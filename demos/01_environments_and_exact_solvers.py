"""Tour of the tabular environments and their exact solvers.

Builds the stochastic 4x4 grid and the slippery 8x8 lake, solves both with
value iteration, cross-checks policy evaluation against a direct linear
solve, and shows the Monte Carlo evaluator's query accounting.
"""
import numpy as np

from qpolicy import (
    build_frozenlake,
    build_gridworld,
    exact_policy_evaluation,
    mc_policy_evaluation,
    value_iteration,
)
from qpolicy.mdp import policy_values

ARROWS = {0: "^", 1: "v", 2: "<", 3: ">"}

grid = build_gridworld(4, 4, slip_prob=0.2, goal=(3, 3), gamma=0.95)
print(f"gridworld: {grid.num_states} states, {grid.num_actions} actions, "
      f"row sparsity d = {grid.sparsity_d}")

q_star, policy = value_iteration(grid, tol=1e-10)
print("\ngreedy policy (G = goal):")
for r in range(4):
    row = "".join("G" if r * 4 + c == 15 else ARROWS[policy.actions[r * 4 + c]]
                  for c in range(4))
    print("   " + row)
print(f"optimal start-state value: {q_star.max(axis=1)[0]:.4f}")

# policy evaluation agrees with solving (I - gamma P) V = r directly
q_eval = exact_policy_evaluation(grid, policy, tol=1e-10)
p_pi = grid.transition_matrix()[np.arange(16), policy.actions]
r_pi = grid.rewards[np.arange(16), policy.actions]
v_solve = np.linalg.solve(np.eye(16) - grid.gamma * p_pi, r_pi)
gap = np.abs(policy_values(grid, policy, q_eval) - v_solve).max()
print(f"\niterative evaluation vs linear solve: max gap {gap:.2e}")

# Monte Carlo evaluation: one query per rollout
q_mc, queries = mc_policy_evaluation(grid, policy, num_trajectories=1000,
                                     horizon=100, seed=0)
err = np.abs(q_mc - q_eval).max()
print(f"Monte Carlo with {queries} queries: max table error {err:.3f}")

lake = build_frozenlake(8, slippery=True, gamma=0.95)
q_lake, _ = value_iteration(lake, tol=1e-10)
print(f"\nfrozen lake: {lake.num_states} states, d = {lake.sparsity_d}, "
      f"start value {q_lake.max(axis=1)[lake.start_state]:.4f}")

"""Independent oracles used to derive expected test values.

Everything here deliberately avoids the library's iterative code paths
and its sparse transition operator: transition tensors are accumulated
densely from raw rows that the oracles or the tests write themselves,
policy values come from a direct linear solve, optimal values from policy
iteration on those solves, Monte Carlo rollouts from CDFs over all S
columns, channel statistics from a density matrix, optimal policies from
exhaustive enumeration, and grid and lake transition rows from explicit
enumeration of the moves against the walls.

Raw rows are nested lists, rows[s][a] holding (next_state, probability)
pairs, the form TabularMDP.from_rows takes.
"""
from __future__ import annotations

import itertools

import numpy as np

from qpolicy.mdp import FROZENLAKE_MAPS, Policy, TabularMDP
from qpolicy.rng import stream


def dense_transitions(rows: list) -> np.ndarray:
    """(S, A, S) tensor accumulated entry by entry from raw rows."""
    num_states, num_actions = len(rows), len(rows[0])
    dense = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states):
        for a in range(num_actions):
            for s_next, p in rows[s][a]:
                dense[s, a, s_next] += p
    return dense


def linear_solve_q(mdp: TabularMDP, policy: Policy, rows: list) -> np.ndarray:
    """Q_pi from solving (I - gamma P_pi) V = r_pi directly, P from the raw
    rows and r, gamma from the MDP."""
    p = dense_transitions(rows)
    w = np.eye(mdp.num_actions)[policy.actions]
    p_pi = np.einsum("sa,sax->sx", w, p)
    r_pi = (w * mdp.rewards).sum(axis=1)
    v = np.linalg.solve(np.eye(mdp.num_states) - mdp.gamma * p_pi, r_pi)
    return mdp.rewards + mdp.gamma * p.dot(v)


def policy_iteration_q(mdp: TabularMDP, rows: list) -> np.ndarray:
    """Q* by Howard's policy iteration on linear_solve_q. A state moves to
    its first best action only where that beats its current one by more
    than 1e-12, so rounding noise between tied actions cannot cycle."""
    actions = np.zeros(mdp.num_states, dtype=int)
    states = np.arange(mdp.num_states)
    while True:
        q = linear_solve_q(mdp, Policy(actions), rows)
        better = q.max(axis=1) > q[states, actions] + 1e-12
        if not better.any():
            return q
        actions = np.where(better, q.argmax(axis=1), actions)


def dense_cdf_mc_policy_evaluation(mdp: TabularMDP, rows: list, policy: Policy,
                                   num_trajectories: int, horizon: int,
                                   seed: int) -> np.ndarray:
    """First-visit Monte Carlo Q_pi with exploring starts, each step drawn
    by comparing one uniform against the CDF over all S next states.

    Draws the same stream as mdp.mc_policy_evaluation in the same order and
    accumulates returns in the same order, so the two agree bit for bit
    wherever the draws pick the same next states.
    """
    s_count, a_count = mdp.num_states, mdp.num_actions
    rng = stream(seed, 0)
    cum_p = np.cumsum(dense_transitions(rows), axis=2)
    n = num_trajectories
    start = rng.integers(0, s_count * a_count, size=n)
    states, actions = start // a_count, start % a_count
    visit_s = np.empty((n, horizon), dtype=int)
    visit_a = np.empty((n, horizon), dtype=int)
    step_r = np.empty((n, horizon))
    for t in range(horizon):
        visit_s[:, t], visit_a[:, t] = states, actions
        step_r[:, t] = mdp.rewards[states, actions]
        u = rng.random(n)
        states = np.minimum((cum_p[states, actions] < u[:, None]).sum(axis=1), s_count - 1)
        actions = policy.actions[states]
    returns = np.zeros((n, horizon + 1))
    for t in range(horizon - 1, -1, -1):
        returns[:, t] = step_r[:, t] + mdp.gamma * returns[:, t + 1]
    sums = np.zeros(s_count * a_count)
    counts = np.zeros(s_count * a_count, dtype=int)
    seen = [set() for _ in range(n)]
    for t in range(horizon):
        for traj in range(n):
            pair = int(visit_s[traj, t]) * a_count + int(visit_a[traj, t])
            if pair not in seen[traj]:
                seen[traj].add(pair)
                sums[pair] += returns[traj, t]
                counts[pair] += 1
    estimate = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return estimate.reshape(s_count, a_count)


def enumerate_optimal_values(mdp: TabularMDP, rows: list) -> np.ndarray:
    """Per-state optimal value over all deterministic policies (small MDPs)."""
    best = np.full(mdp.num_states, -np.inf)
    for actions in itertools.product(range(mdp.num_actions), repeat=mdp.num_states):
        policy = Policy(np.array(actions))
        q = linear_solve_q(mdp, policy, rows)
        v = q[np.arange(mdp.num_states), np.array(actions)]
        best = np.maximum(best, v)
    return best


# Pauli matrices for the density-matrix noise oracle.
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def depolarize_density(rho: np.ndarray, p: float) -> np.ndarray:
    """Single-qubit depolarizing channel applied to a density matrix."""
    return (1 - p) * rho + (p / 3.0) * (_X @ rho @ _X + _Y @ rho @ _Y + _Z @ rho @ _Z)


def measurement_probs(rho: np.ndarray) -> np.ndarray:
    return np.real(np.diag(rho))


def grid_row_oracle(width: int, height: int, slip: float, cell: tuple,
                    action: int) -> dict:
    """Enumerate the four slip outcomes against the walls for one (cell, action).

    Mirrors only the stated dynamics: probability (1 - slip) on the intended
    move plus slip/4 on each of the four moves, off-grid moves staying put.
    """
    moves = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}
    r, c = cell
    outcome: dict = {}
    for move in range(4):
        prob = slip / 4.0 + (1.0 - slip) * (move == action)
        nr, nc = r + moves[move][0], c + moves[move][1]
        if not (0 <= nr < height and 0 <= nc < width):
            nr, nc = r, c
        key = nr * width + nc
        outcome[key] = outcome.get(key, 0.0) + prob
    return outcome


def lake_row_oracle(size: int, slippery: bool, cell: tuple, action: int) -> dict:
    """Enumerate the intended and, when slippery, the two perpendicular moves
    against the walls for one (cell, action), each with probability 1/3.

    Mirrors only the stated dynamics: off-lake moves stay put, and the
    non-slippery lake takes the intended move with probability 1.
    """
    moves = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}
    perpendicular = {0: (2, 3), 1: (2, 3), 2: (0, 1), 3: (0, 1)}
    taken = [(action, 1.0)]
    if slippery:
        taken = [(move, 1.0 / 3.0) for move in (action, *perpendicular[action])]
    r, c = cell
    outcome: dict = {}
    for move, prob in taken:
        nr, nc = r + moves[move][0], c + moves[move][1]
        if not (0 <= nr < size and 0 <= nc < size):
            nr, nc = r, c
        key = nr * size + nc
        outcome[key] = outcome.get(key, 0.0) + prob
    return outcome


def grid_rows(width: int, height: int, slip: float, goal: tuple) -> list:
    """Raw rows of the gridworld: grid_row_oracle off the goal, which self-loops."""
    goal_state = goal[0] * width + goal[1]
    return [[[(s, 1.0)] if s == goal_state else
             sorted(grid_row_oracle(width, height, slip, divmod(s, width), a).items())
             for a in range(4)]
            for s in range(width * height)]


def lake_rows(size: int, slippery: bool) -> list:
    """Raw rows of the frozen lake: lake_row_oracle off the holes and the
    goal, which self-loop."""
    tiles = "".join(FROZENLAKE_MAPS[size])
    return [[[(s, 1.0)] if tiles[s] in "HG" else
             sorted(lake_row_oracle(size, slippery, divmod(s, size), a).items())
             for a in range(4)]
            for s in range(size * size)]


def absorbing_single(reward: float = 1.0, gamma: float = 0.5) -> TabularMDP:
    """One self-looping state, one action; Q = reward / (1 - gamma)."""
    return TabularMDP.from_rows(1, 1, [[[(0, 1.0)]]], np.array([[reward]]), gamma)


def two_state_chain(gamma: float = 0.9) -> TabularMDP:
    """s0 -> s1 (terminal) with reward 1; the single action loops at s1."""
    return TabularMDP.from_rows(2, 1, [[[(1, 1.0)]], [[(1, 1.0)]]],
                                np.array([[1.0], [0.0]]), gamma,
                                terminal_states=frozenset({1}))


TWO_STATE_TWO_ACTION_ROWS = [
    [[(0, 0.7), (1, 0.3)], [(1, 1.0)]],
    [[(0, 1.0)], [(0, 0.4), (1, 0.6)]],
]


def two_state_two_action(gamma: float = 0.5) -> TabularMDP:
    """Two states, two actions, distinct rewards; small enough to enumerate.
    Its raw rows are TWO_STATE_TWO_ACTION_ROWS."""
    rewards = np.array([[0.2, 0.0], [1.0, 0.5]])
    return TabularMDP.from_rows(2, 2, TWO_STATE_TWO_ACTION_ROWS, rewards, gamma)


def random_rows(num_states: int, num_actions: int, seed: int,
                branching: int = 3) -> tuple[list, np.ndarray]:
    """Raw rows and rewards of a random dense-ish MDP for property tests."""
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(num_states):
        state_rows = []
        for a in range(num_actions):
            support = rng.choice(num_states, size=min(branching, num_states), replace=False)
            probs = rng.dirichlet(np.ones(len(support)))
            state_rows.append(sorted(zip(support.tolist(), probs.tolist())))
        rows.append(state_rows)
    rewards = rng.uniform(-1, 1, size=(num_states, num_actions))
    return rows, rewards


def random_mdp(num_states: int, num_actions: int, gamma: float, seed: int,
               branching: int = 3) -> TabularMDP:
    """The MDP of random_rows(num_states, num_actions, seed, branching)."""
    rows, rewards = random_rows(num_states, num_actions, seed, branching)
    return TabularMDP.from_rows(num_states, num_actions, rows, rewards, gamma)

"""One full engine run: back up, read out, improve, account.

Shows the per-iteration record stream in both readout regimes. In the
additive-oracle regime the error decays monotonically until the
convergence check fires; with shot sampling it plateaus at the noise
floor instead.
"""
import numpy as np

from qpolicy import EstimatorConfig, QPolicyConfig, build_gridworld, run_qpolicy, value_iteration

grid = build_gridworld(4, 4, slip_prob=0.2, goal=(3, 3), gamma=0.95)

print("additive-oracle readout at epsilon = 1e-12 (noise-free limit):")
records, policy = run_qpolicy(grid, QPolicyConfig(epsilon=1e-12, seed=0, max_iterations=100))
for rec in records[:6]:
    print(f"  iter {rec.iteration:2d}  error {rec.bellman_error_max:.4f}")
print(f"  ... converged after {len(records)} iterations")

_, vi_policy = value_iteration(grid, 1e-10)
match = np.array_equal(policy.actions[:15], vi_policy.actions[:15])
print(f"  final policy equals the value-iteration policy: {match}")

print("\nshot-sampled readout, 512 shots per table entry:")
cfg = QPolicyConfig(
    epsilon=0.01,
    estimator=EstimatorConfig(mode="shot_sampling", shots=512, seed=0),
    seed=0, max_iterations=30, convergence_tol=1e-12,
)
records, _ = run_qpolicy(grid, cfg)
for rec in records[::6]:
    print(f"  iter {rec.iteration:2d}  error {rec.bellman_error_max:.4f}  "
          f"readout variance {rec.q_variance:.2e}  "
          f"queries so far {rec.queries_cumulative}")
floor = np.mean([r.bellman_error_max for r in records[-10:]])
print(f"  noise floor around {floor:.4f} (shrinks with more shots)")

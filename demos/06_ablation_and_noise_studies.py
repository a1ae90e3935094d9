"""Seeded sweeps: shot-count sensitivity and the cost of depolarizing noise.

Every study arm shares seeds with its siblings, so differences between
arms are attributable to the varied factor alone.
"""
import numpy as np

from qpolicy import EstimatorConfig, QPolicyConfig, build_frozenlake, \
    build_gridworld, run_ablation, run_noise_comparison, summarize

grid = build_gridworld(4, 4, slip_prob=0.2, goal=(3, 3), gamma=0.95)
base = QPolicyConfig(
    epsilon=0.01,
    estimator=EstimatorConfig(mode="shot_sampling", shots=512),
    max_iterations=60, convergence_tol=1e-12,
)

print("shot-count sweep, 5 seeds per cell, final error with 95% CI:")
cells = run_ablation(grid, [0.01], [128, 512, 2048], base, seeds=range(5))
for (eps, shots), runs in sorted(cells.items()):
    finals = [[r.bellman_error_max for r in run.records][-1] for run in runs]
    series = [[run.records[t].bellman_error_max for t in range(60)] for run in runs]
    last = summarize(series)[-1]
    print(f"  shots {shots:>5}: {last.mean:.4f}  [{last.ci95_low:.4f}, {last.ci95_high:.4f}]")

lake = build_frozenlake(8, slippery=True, gamma=0.95)
cfg = QPolicyConfig(
    epsilon=0.01,
    estimator=EstimatorConfig(mode="shot_sampling", shots=512),
    max_iterations=50, convergence_tol=1e-12,
)
print("\ndepolarizing comparison on the 8x8 lake, 20 paired seeds:")
arms = run_noise_comparison(lake, [0.0, 0.01, 0.05], cfg, seeds=range(20))
for p, runs in sorted(arms.items()):
    mean_final = np.mean([run.records[-1].bellman_error_mean for run in runs])
    print(f"  p = {p:<5} mean final error {mean_final:.5f}")
print("noise biases every readout toward the mixed point, lifting the floor")

"""Query accounting: amplitude-style readout vs Monte Carlo rollouts.

The engine charges ceil(c_ae / epsilon) oracle queries per table entry;
the Monte Carlo baseline charges one query per rollout. At matched final
accuracy the oracle budget grows like 1/epsilon while the sampling budget
grows like 1/epsilon^2.
"""
import numpy as np

from qpolicy import build_gridworld, matched_accuracy_scaling, run_query_complexity_study
from qpolicy.experiments import calibrated_query_config, query_summary

grid = build_gridworld(4, 4, slip_prob=0.2, goal=(3, 3), gamma=0.95)

results = run_query_complexity_study(
    grid, calibrated_query_config(), mc_budget=1000, seeds=range(5))
summary = query_summary(results)
print(f"{'method':<14}{'queries/iter':>14}{'total':>10}{'final error':>14}")
for method, row in sorted(summary.items()):
    print(f"{method:<14}{row['queries_per_iteration']:>14.0f}"
          f"{row['total_queries']:>10.0f}{row['final_bellman_error']:>14.4f}")
ratio = summary["qpolicy"]["total_queries"] / summary["monte_carlo"]["total_queries"]
print(f"budget ratio: {ratio:.3f}")

print("\nmatched-accuracy scaling (sampled budget doubled until its RMSE")
print("crosses below the oracle's):")
points = matched_accuracy_scaling([0.1, 0.05, 0.02, 0.01], seed=0)
print(f"{'epsilon':>8}{'oracle queries':>16}{'sampling budget':>17}")
for p in points:
    print(f"{p.epsilon:>8}{p.ae_queries:>16}{p.mc_budget:>17}")
eps = [p.epsilon for p in points]
s_ae = np.polyfit(np.log(eps), np.log([p.ae_queries for p in points]), 1)[0]
s_mc = np.polyfit(np.log(eps), np.log([p.mc_budget for p in points]), 1)[0]
print(f"log-log slopes: oracle {s_ae:.2f}, sampling {s_mc:.2f}")

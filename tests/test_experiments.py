from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from qpolicy.emulator import AE_ORACLE, SHOT_SAMPLING, EstimatorConfig
from qpolicy.engine import QPolicyConfig, run_qpolicy
from qpolicy.experiments import (
    AblationGrid,
    calibrated_query_config,
    compute_bellman_error,
    estimate_resources,
    matched_accuracy_scaling,
    query_summary,
    run_ablation,
    run_noise_comparison,
    run_query_complexity_study,
    summarize,
)
from qpolicy.mdp import Policy, bellman_backup


def records_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra.bellman_error_max != rb.bellman_error_max
                or ra.bellman_error_mean != rb.bellman_error_mean
                or ra.q_variance != rb.q_variance
                or ra.queries_iteration != rb.queries_iteration
                or ra.queries_cumulative != rb.queries_cumulative
                or not np.array_equal(ra.policy_actions, rb.policy_actions)):
            return False
    return True


def shot_config(shots=512, iters=40, seed=0, **kw):
    return QPolicyConfig(
        epsilon=0.01,
        estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=shots, seed=seed),
        seed=seed, max_iterations=iters, convergence_tol=1e-12, **kw,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestComputeBellmanError:
    def test_identical(self):
        assert compute_bellman_error([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        assert compute_bellman_error([0.0, 1.0], [1.0, 1.0]) == (1.0, 0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_bellman_error([0.0], [0.0, 1.0])

    def test_policy_evaluation_iterates_contract(self, grid4):
        policy = Policy.uniform(16, 4)
        q = np.zeros((16, 4))
        v_prev = (policy.matrix(4) * q).sum(axis=1)
        deltas = []
        for _ in range(25):
            q = bellman_backup(grid4, q, policy)
            v = (policy.matrix(4) * q).sum(axis=1)
            deltas.append(compute_bellman_error(v_prev, v)[0])
            v_prev = v
        for t, d in enumerate(deltas):
            assert d <= grid4.gamma ** t * deltas[0] * (1 + 1e-9)


class TestSummarize:
    def test_identical_constants(self):
        out = summarize([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        for st in out:
            assert st.mean == 2.0
            assert st.std == 0.0
            assert st.ci95_low == st.ci95_high == 2.0

    def test_hand_arithmetic(self):
        out = summarize([[0.0, 2.0], [2.0, 0.0]])
        for st in out:
            assert st.mean == pytest.approx(1.0)
            assert st.std == pytest.approx(np.sqrt(2.0))
            assert st.ci95_low <= st.mean <= st.ci95_high

    def test_requires_two_series(self):
        with pytest.raises(ValueError):
            summarize([[1.0, 2.0]])

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    def test_half_width_uses_t_quantile(self, n):
        data = np.random.default_rng(n).normal(size=(n, 3))
        std = data.std(axis=0, ddof=1)
        want = scipy_stats.t.ppf(0.975, n - 1) * std / np.sqrt(n)
        for st, w in zip(summarize(data), want):
            assert st.ci95_high - st.mean == pytest.approx(w, rel=1e-12)

    def test_coverage_of_t_interval(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 10_000))
        out = summarize(data)
        covered = np.mean([st.ci95_low <= 0.0 <= st.ci95_high for st in out])
        assert 0.93 <= covered <= 0.97

    def test_width_shrinks_like_inverse_sqrt(self):
        rng = np.random.default_rng(1)
        sizes = [5, 20, 80]
        widths = []
        for n in sizes:
            data = rng.normal(size=(n, 2000))
            out = summarize(data)
            widths.append(np.mean([st.ci95_high - st.ci95_low for st in out]))
        slope = np.polyfit(np.log(sizes), np.log(widths), 1)[0]
        # the t multiplier also shrinks with n, steepening the pure -0.5 a bit
        assert -0.75 <= slope <= -0.45


# ---------------------------------------------------------------------------
# Resource model
# ---------------------------------------------------------------------------

class TestResources:
    def test_grid_point_values(self, grid4):
        cfg = QPolicyConfig(epsilon=0.01)
        est = estimate_resources(grid4, cfg, kappa=1.0)
        assert est.qubits == 6
        assert est.gates_per_bellman_update == 50
        assert abs(est.gates_per_iteration - 5600) <= 0.15 * 5600
        assert abs(est.seconds_per_iteration_at_1khz - 5.6) <= 0.15 * 5.6
        assert est.sparsity_d == 4

    def test_qubit_formula_large_state_space(self):
        fake = SimpleNamespace(num_states=10 ** 6, num_actions=4, sparsity_d=4)
        est = estimate_resources(fake, QPolicyConfig(epsilon=0.01))
        assert est.qubits == 22  # ceil(log2(4e6)); coarser hardware tallies add ancillas

    def test_qubits_exact_for_environments(self, grid4, frozen8):
        for mdp in (grid4, frozen8):
            est = estimate_resources(mdp, QPolicyConfig(epsilon=0.05))
            pairs = mdp.num_states * mdp.num_actions
            assert est.qubits == int(np.ceil(np.log2(pairs)))

    def test_kappa_validation(self, grid4):
        with pytest.raises(ValueError):
            estimate_resources(grid4, QPolicyConfig(), kappa=0.5)


# ---------------------------------------------------------------------------
# Query complexity
# ---------------------------------------------------------------------------

class TestQueryStudy:
    def test_mc_accounting_exact(self, grid4):
        results = run_query_complexity_study(
            grid4, calibrated_query_config(10, 0), mc_budget=500,
            iterations=10, seeds=[0, 1])
        mc = [r for r in results if r.method == "monte_carlo"]
        assert all(r.queries_per_iteration == 500 for r in mc)
        assert all(r.total_queries == 5000 for r in mc)

    def test_engine_arm_cheaper_and_better(self, grid4):
        results = run_query_complexity_study(
            grid4, calibrated_query_config(50, 0), mc_budget=1000,
            iterations=50, seeds=[0, 1, 2])
        summary = query_summary(results)
        assert summary["qpolicy"]["total_queries"] <= 0.25 * summary["monte_carlo"]["total_queries"]
        assert summary["qpolicy"]["final_bellman_error"] <= summary["monte_carlo"]["final_bellman_error"]

    def test_scaling_slopes(self):
        points = matched_accuracy_scaling([0.1, 0.05, 0.02, 0.01], trials=500, seed=0)
        eps = [p.epsilon for p in points]
        ae_slope = np.polyfit(np.log(eps), np.log([p.ae_queries for p in points]), 1)[0]
        mc_slope = np.polyfit(np.log(eps), np.log([p.mc_budget for p in points]), 1)[0]
        assert -1.2 <= ae_slope <= -0.8
        assert -2.3 <= mc_slope <= -1.7


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

class TestAblation:
    def test_singleton_grid_matches_direct_run(self, grid4):
        base = shot_config(shots=256, iters=15)
        grid = AblationGrid(epsilons=[0.02], shot_counts=[256], seeds=[3], iterations=15)
        cells = run_ablation(grid4, grid, base)
        runs = cells[(0.02, 256)]
        assert len(runs) == 1 and runs[0].seed == 3
        direct_cfg = QPolicyConfig(
            epsilon=0.02,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=256, epsilon=0.02, seed=3),
            seed=3, max_iterations=15, convergence_tol=1e-12,
        )
        direct, _ = run_qpolicy(grid4, direct_cfg)
        assert records_equal(runs[0].records, direct)

    def test_more_shots_lower_error(self, grid4):
        base = shot_config(iters=40)
        grid = AblationGrid(epsilons=[0.01], shot_counts=[128, 4096],
                            seeds=range(5), iterations=40)
        cells = run_ablation(grid4, grid, base)
        err = {
            shots: np.mean([r.records[-1].bellman_error_max for r in cells[(0.01, shots)]])
            for shots in (128, 4096)
        }
        assert err[4096] <= err[128]

    def test_parallel_matches_serial(self, grid4):
        base = shot_config(iters=10)
        grid = AblationGrid(epsilons=[0.01, 0.05], shot_counts=[128],
                            seeds=[0, 1], iterations=10)
        serial = run_ablation(grid4, grid, base, max_workers=1)
        parallel = run_ablation(grid4, grid, base, max_workers=4)
        for key in serial:
            for rs, rp in zip(serial[key], parallel[key]):
                assert records_equal(rs.records, rp.records)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            AblationGrid(epsilons=[], shot_counts=[128], seeds=[0])
        with pytest.raises(ValueError):
            AblationGrid(epsilons=[-0.1], shot_counts=[128], seeds=[0])


class TestNoiseComparison:
    def test_requires_zero_arm(self, grid4):
        with pytest.raises(ValueError):
            run_noise_comparison(grid4, [0.01], shot_config(), seeds=[0])

    def test_zero_arm_identical_to_plain_run(self, grid4):
        cfg = shot_config(shots=256, iters=12)
        arms = run_noise_comparison(grid4, [0.0, 0.05], cfg, seeds=[5])
        plain_cfg = QPolicyConfig(
            epsilon=0.01,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=256, seed=5),
            seed=5, max_iterations=12, convergence_tol=1e-12,
        )
        plain, _ = run_qpolicy(grid4, plain_cfg)
        assert records_equal(arms[0.0][0].records, plain)

    def test_full_noise_single_state_terminates(self):
        from oracles import absorbing_single
        mdp = absorbing_single(reward=1.0, gamma=0.5)
        arms = run_noise_comparison(mdp, [0.0, 1.0], shot_config(iters=5), seeds=[0])
        assert len(arms[1.0][0].records) <= 5


class TestUpdateRuleAblation:
    def test_oracle_beats_shots_at_matched_budget(self, grid4):
        # ceil(1/epsilon) = 512 queries per readout on both arms
        eps = 1.0 / 512
        cfg = QPolicyConfig(
            epsilon=eps,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=512, epsilon=eps),
            max_iterations=40, convergence_tol=1e-12,
        )

        def runs(mode):
            return [run_qpolicy(grid4, replace(cfg, seed=seed, estimator=replace(
                cfg.estimator, mode=mode, seed=seed)))[0] for seed in range(30)]

        def mean_err(arm):
            return np.mean([records[-1].bellman_error_max for records in arm])

        ae_arm, shot_arm = runs(AE_ORACLE), runs(SHOT_SAMPLING)
        assert ae_arm[0][0].queries_iteration == shot_arm[0][0].queries_iteration
        assert mean_err(ae_arm) < mean_err(shot_arm)

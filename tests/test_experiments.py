import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import stdtrit

from qpolicy import experiments
from qpolicy.emulator import AE_ORACLE, SHOT_SAMPLING, EstimatorConfig
from qpolicy.engine import QPolicyConfig, policy_improve, run_qpolicy, run_qpolicy_lockstep
from qpolicy.experiments import (
    _run_jobs,
    calibrated_query_config,
    estimate_resources,
    matched_accuracy_scaling,
    query_summary,
    run_ablation,
    run_noise_comparison,
    run_query_complexity_study,
    summarize,
)
from qpolicy.mdp import Policy, bellman_backup, build_gridworld, mc_policy_evaluation, policy_values
from qpolicy.rng import child_seed


def records_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra.bellman_error_max != rb.bellman_error_max
                or ra.bellman_error_mean != rb.bellman_error_mean
                or ra.q_variance != rb.q_variance
                or ra.queries_iteration != rb.queries_iteration
                or ra.queries_cumulative != rb.queries_cumulative):
            return False
    return True


def shot_config(shots=512, iters=40, seed=0, **kw):
    return QPolicyConfig(
        epsilon=0.01,
        estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=shots),
        seed=seed, max_iterations=iters, convergence_tol=1e-12, **kw,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestComputeBellmanError:
    def test_policy_evaluation_iterates_contract(self, grid4):
        policy = Policy(np.random.default_rng(0).integers(0, 4, 16))
        q = np.zeros((16, 4))
        v_prev = policy_values(grid4, policy, q)
        deltas = []
        for _ in range(25):
            q = bellman_backup(grid4, q, policy)
            v = policy_values(grid4, policy, q)
            deltas.append(float(np.abs(v - v_prev).max()))
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

    def test_t_table_is_stdtrit_bit_for_bit(self):
        # summary.csv prints at .17g, so any other float would change its bytes
        assert len(experiments._T975) == 200
        for df in range(1, 201):
            assert experiments._T975[df - 1] == stdtrit(df, 0.975), df

    @pytest.mark.parametrize("n", [201, 202])
    def test_interval_ends_bit_for_bit(self, n):
        # 201 series read the table's last entry; 202 import stdtrit for df 201
        data = np.random.default_rng(n).normal(size=(n, 3))
        mean, std = data.mean(axis=0), data.std(axis=0, ddof=1)
        half = stdtrit(n - 1, 0.975) * std / np.sqrt(n)
        for st, m, h in zip(summarize(data), mean, half):
            assert (st.ci95_low, st.ci95_high) == (m - h, m + h)

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
        est = estimate_resources(grid4, QPolicyConfig(epsilon=0.01))
        assert est.qubits == 6
        assert est.sparsity_d == 4
        assert est.gates_per_bellman_update == 50
        assert abs(est.gates_per_read - 5600) <= 0.15 * 5600
        # 60 reads of 100 queries, each query priced at 50 gates times 1.12
        assert est.queries_per_iteration == 6000
        assert est.gates_per_iteration == 336000
        assert est.seconds_per_iteration_at_1khz == 336.0

    def test_priced_at_the_estimators_epsilon(self, grid4):
        # the run reads out at the estimator's 0.01, 100 queries a readout:
        # beside an explicit estimator, the epsilon shorthand is ignored
        cfg = QPolicyConfig(epsilon=0.05, estimator=EstimatorConfig(mode=AE_ORACLE, epsilon=0.01),
                            max_iterations=1)
        (record,), _ = run_qpolicy(grid4, cfg)
        assert record.queries_iteration == 60 * 100  # 4 goal-state pairs are pinned at zero
        est = estimate_resources(grid4, cfg)
        assert est.queries_per_iteration == record.queries_iteration
        assert est.gates_per_read == round(est.gates_per_bellman_update * 100 * 1.12)
        assert est == estimate_resources(grid4, QPolicyConfig(epsilon=0.01))

    CONFIGS = {
        "ae_oracle": QPolicyConfig(estimator=EstimatorConfig(mode=AE_ORACLE, epsilon=0.01)),
        "calibrated": calibrated_query_config(),
        "shots512": QPolicyConfig(estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=512)),
    }

    # 60, 212 and 396 reads at 100 queries (c_ae 1), 4 (c_ae 0.04) or 512 shots
    @pytest.mark.parametrize("model, config, queries", [
        ("grid4", "ae_oracle", 6000), ("grid4", "calibrated", 240),
        ("grid4", "shots512", 30720),
        ("lake8", "ae_oracle", 21200), ("lake8", "calibrated", 848),
        ("lake8", "shots512", 108544),
        ("grid10", "ae_oracle", 39600), ("grid10", "calibrated", 1584),
        ("grid10", "shots512", 202752),
    ])
    def test_queries_equal_a_one_iteration_run(self, grid4, frozen8, model, config, queries):
        mdp = {"grid4": grid4, "lake8": frozen8,
               "grid10": build_gridworld(10, 10, 0.2, (9, 9), 0.95)}[model]
        cfg = self.CONFIGS[config]
        (record,), _ = run_qpolicy(mdp, replace(cfg, max_iterations=1))
        est = estimate_resources(mdp, cfg)
        assert est.queries_per_iteration == record.queries_iteration == queries
        # from the queries, not from the rounded gates_per_read times the reads
        assert est.gates_per_iteration == round(
            est.gates_per_bellman_update * est.queries_per_iteration * 1.12)

    def test_prices_an_iteration_whose_targets_are_not_constant(self, grid4):
        # with every reward 0 the targets of iteration 0 are all 0: the run
        # reads nothing and charges nothing, while the estimate still prices
        # the 60 reads of an iteration whose targets differ
        flat = replace(grid4, rewards=np.zeros((16, 4)))
        cfg = QPolicyConfig(epsilon=0.01, max_iterations=1)
        (record,), _ = run_qpolicy(flat, cfg)
        assert record.queries_iteration == 0
        assert estimate_resources(flat, cfg).queries_per_iteration == 6000

    def test_qubit_formula_large_state_space(self):
        fake = SimpleNamespace(num_states=10 ** 6, num_actions=4, sparsity_d=4,
                               terminal_states=frozenset())
        est = estimate_resources(fake, QPolicyConfig(epsilon=0.01))
        assert est.qubits == 22  # ceil(log2(4e6)); coarser hardware tallies add ancillas

    def test_qubits_exact_for_environments(self, grid4, frozen8):
        for mdp in (grid4, frozen8):
            est = estimate_resources(mdp, QPolicyConfig(epsilon=0.05))
            pairs = mdp.num_states * mdp.num_actions
            assert est.qubits == int(np.ceil(np.log2(pairs)))

    # a read's count is an int past the float range; the iteration's is, and
    # a read's is not; a read's count reaches inf; shots past the float range
    @pytest.mark.parametrize("constants", [
        {"mode": AE_ORACLE, "c_ae": 1e307, "epsilon": 0.5},
        {"mode": AE_ORACLE, "c_ae": 1e305, "epsilon": 0.1},
        {"mode": AE_ORACLE, "c_ae": 1.7e306, "epsilon": 0.5},
        {"mode": SHOT_SAMPLING, "shots": 10 ** 307},
    ])
    def test_gate_count_overflow_names_the_constants(self, grid4, constants):
        named = " and ".join(f"{k} {v!r}" for k, v in constants.items() if k != "mode")
        with pytest.raises(ValueError, match=re.escape(
                f"the gate count overflows the float range at {named}")):
            estimate_resources(grid4, QPolicyConfig(estimator=EstimatorConfig(**constants)))


# ---------------------------------------------------------------------------
# Query complexity
# ---------------------------------------------------------------------------

class TestQueryStudy:
    def test_mc_accounting_exact(self, grid4):
        config = calibrated_query_config().with_settings(0, iters=10)
        results = run_query_complexity_study(grid4, config, mc_budget=500, seeds=[0, 1])
        mc = [r for r in results if r.method == "monte_carlo"]
        assert all(r.queries_per_iteration == 500 for r in mc)
        assert all(r.total_queries == 5000 for r in mc)

    def test_mc_arm_equals_a_per_seed_reference_loop(self, grid4):
        seeds, budget, iterations, horizon = [4, 0, 9], 300, 8, 100
        config = calibrated_query_config().with_settings(0, iters=iterations)
        results = run_query_complexity_study(grid4, config, mc_budget=budget, seeds=seeds)
        assert [(r.method, r.seed) for r in results] == [
            (method, seed) for seed in seeds for method in ("qpolicy", "monte_carlo")]
        for result in results[1::2]:
            policy = policy_improve(np.zeros((16, 4)))
            v_prev = np.zeros(16)
            assert len(result.records) == iterations
            for k, record in enumerate(result.records):
                q_mc, queries = mc_policy_evaluation(grid4, policy, budget, horizon=horizon,
                                                     seed=child_seed(result.seed, 6, k))
                policy = policy_improve(q_mc)
                v_next = q_mc.max(axis=1)
                assert record.iteration == k
                diff = np.abs(v_next - v_prev)
                assert (record.bellman_error_max, record.bellman_error_mean) == (
                    float(diff.max()), float(diff.mean()))
                assert (record.queries_iteration, record.queries_cumulative) == (
                    queries, queries * (k + 1))
                v_prev = v_next
            assert result.final_bellman_error == result.records[-1].bellman_error_max
            assert result.total_queries == budget * iterations

    def test_engine_arm_runs_the_base_at_each_seed(self, grid4, engine_calls):
        base = calibrated_query_config().with_settings(0, iters=3)
        results = run_query_complexity_study(grid4, base, mc_budget=20, seeds=[4, 0])
        configs = [replace(base, seed=seed, estimator=replace(base.estimator, seed=seed))
                   for seed in (4, 0)]
        assert engine_calls.batches == [configs]
        for result, config in zip(results[0::2], configs):
            assert records_equal(result.records, run_qpolicy(grid4, config)[0])

    def test_both_arms_run_the_configs_iterations(self, grid4):
        config = calibrated_query_config().with_settings(0, iters=3)
        results = run_query_complexity_study(grid4, config, mc_budget=20, seeds=[0, 1])
        assert [len(r.records) for r in results] == [3] * 4
        assert [r.total_queries for r in results if r.method == "monte_carlo"] == [3 * 20] * 2

    def test_only_the_engine_arm_stops_at_the_tolerance(self, grid4):
        config = calibrated_query_config().with_settings(0, iters=5, tol=1e300)
        results = run_query_complexity_study(grid4, config, mc_budget=20, seeds=[0, 1])
        assert [(r.method, len(r.records)) for r in results] == [
            ("qpolicy", 1), ("monte_carlo", 5)] * 2
        assert [r.total_queries for r in results] == [240, 5 * 20] * 2

    def test_engine_arm_cheaper_and_better(self, grid4):
        results = run_query_complexity_study(
            grid4, calibrated_query_config(), mc_budget=1000, seeds=[0, 1, 2])
        summary = query_summary(results)
        assert summary["qpolicy"]["total_queries"] <= 0.25 * summary["monte_carlo"]["total_queries"]
        assert summary["qpolicy"]["final_bellman_error"] <= summary["monte_carlo"]["final_bellman_error"]

    def test_scaling_slopes(self):
        points = matched_accuracy_scaling([0.1, 0.05, 0.02, 0.01], seed=0)
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
        cells = run_ablation(grid4, [0.02], [256], base, [3])
        runs = cells[(0.02, 256)]
        assert len(runs) == 1 and runs[0].seed == 3
        direct_cfg = QPolicyConfig(
            epsilon=0.02,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=256, epsilon=0.02),
            seed=3, max_iterations=15, convergence_tol=1e-12,
        )
        direct, _ = run_qpolicy(grid4, direct_cfg)
        assert records_equal(runs[0].records, direct)

    def test_more_shots_lower_error(self, grid4):
        base = shot_config(iters=40)
        cells = run_ablation(grid4, [0.01], [128, 4096], base, range(5))
        err = {
            shots: np.mean([r.records[-1].bellman_error_max for r in cells[(0.01, shots)]])
            for shots in (128, 4096)
        }
        assert err[4096] <= err[128]

    def test_every_cell_runs_the_configs_iterations(self, grid4):
        cells = run_ablation(grid4, [0.01, 0.05], [64, 128], shot_config(iters=3), [0, 1])
        assert [len(run.records) for cell in cells.values() for run in cell] == [3] * 8

    def test_grid_validation(self, grid4, engine_calls):
        # ae_oracle reads no shot count, so its estimator takes shots=0
        base = with_mode(shot_config(iters=2), AE_ORACLE)
        for epsilons, shot_counts, seeds, message in [
            ([], [128], [0], "nonempty"),
            ([0.01], [], [0], "nonempty"),
            ([0.01], [128], [], "nonempty"),
            ([-0.1], [128], [0], "epsilon must be positive"),
            ([0.01], [0], [0], "shot counts must be positive"),
        ]:
            with pytest.raises(ValueError, match=message):
                run_ablation(grid4, epsilons, shot_counts, base, seeds)
        assert engine_calls.members == []


@pytest.fixture()
def engine_calls(monkeypatch):
    """The runs the sweeps start, through the name they call: members holds
    one config per lockstep member, batches one member list per call."""
    calls = SimpleNamespace(members=[], batches=[])

    def counting(mdp, configs):
        calls.batches.append(list(configs))
        calls.members.extend(configs)
        return run_qpolicy_lockstep(mdp, configs)
    monkeypatch.setattr(experiments, "run_qpolicy_lockstep", counting)
    return calls


def with_mode(config, mode):
    return replace(config, estimator=replace(config.estimator, mode=mode))


# a field run_qpolicy reads, set on the estimator or on the config
READ_IN_BOTH_MODES = [
    ("estimator", {"noise_p": 0.05}),
    ("config", {"seed": 1}),
    ("config", {"max_iterations": 5}),
    ("config", {"convergence_tol": 1e-3}),
]


def field_cases(rows):
    return [pytest.param(mode, where, fields, id=f"{mode}-{where}.{'+'.join(fields)}")
            for mode, where, fields in rows]


def changed(config, where, fields):
    if where == "estimator":
        return replace(config, estimator=replace(config.estimator, **fields))
    return replace(config, **fields)


class TestEffectiveConfigRuns:
    """A sweep runs each distinct effective config once."""

    @pytest.mark.parametrize("mode, runs", [(SHOT_SAMPLING, 5 * 5), (AE_ORACLE, 3 * 5)])
    def test_readme_grid(self, grid4, engine_calls, mode, runs):
        # the README's ablate grid: 3 epsilons x 5 shot counts x 5 seeds = 75 cells
        base = with_mode(shot_config(iters=6), mode)
        cells = run_ablation(grid4, [0.001, 0.01, 0.05], [128, 512, 1024, 2048, 4096], base,
                             range(5))
        assert len(engine_calls.members) == runs
        assert len(engine_calls.batches) == 1
        assert sum(len(cell) for cell in cells.values()) == 75
        for (eps, shots), cell in cells.items():
            for run in cell:
                own = base.with_settings(run.seed, epsilon=eps, shots=shots)
                assert records_equal(run.records, run_qpolicy(grid4, own)[0])

    @pytest.mark.parametrize("sweep", ["ablation", "noise"])
    def test_a_sweep_makes_one_lockstep_call(self, grid4, engine_calls, sweep):
        base = shot_config(iters=4)
        if sweep == "ablation":
            run_ablation(grid4, [0.01, 0.05], [64, 128], base, [0, 1])
        else:
            run_noise_comparison(grid4, [0.0, 0.02], base, seeds=[0, 1])
        assert len(engine_calls.batches) == 1
        assert len(engine_calls.members) == 4  # 2 shot counts, or 2 arms, x 2 seeds

    @pytest.mark.parametrize("mode, where, fields", field_cases([
        (SHOT_SAMPLING, "estimator", {"epsilon": 0.2, "c_ae": 3.0}),
        (SHOT_SAMPLING, "config", {"epsilon": 0.2}),
        (AE_ORACLE, "estimator", {"shots": 7}),
        (AE_ORACLE, "config", {"epsilon": 0.2}),
    ]))
    def test_unread_fields_share_one_run(self, grid4, engine_calls, mode, where, fields):
        config = with_mode(shot_config(iters=8), mode)
        other = changed(config, where, fields)
        done = _run_jobs(grid4, {"a": config, "b": other})
        assert len(engine_calls.members) == 1
        assert done["a"] is done["b"]
        assert records_equal(done["b"], run_qpolicy(grid4, other)[0])

    @pytest.mark.parametrize("mode, where, fields", field_cases([
        (SHOT_SAMPLING, "estimator", {"shots": 256}),
        (AE_ORACLE, "estimator", {"epsilon": 0.02}),
        (AE_ORACLE, "estimator", {"c_ae": 2.0}),
    ] + [(mode, where, fields) for mode in (SHOT_SAMPLING, AE_ORACLE)
         for where, fields in READ_IN_BOTH_MODES]))
    def test_read_field_makes_a_separate_run(self, grid4, engine_calls, mode, where,
                                             fields):
        config = with_mode(shot_config(iters=8), mode)
        other = changed(config, where, fields)
        done = _run_jobs(grid4, {"a": config, "b": other})
        assert len(engine_calls.members) == 2
        assert len(engine_calls.batches) == 1
        assert records_equal(done["a"], run_qpolicy(grid4, config)[0])
        assert records_equal(done["b"], run_qpolicy(grid4, other)[0])


class TestNoiseComparison:
    def test_requires_zero_arm(self, grid4):
        with pytest.raises(ValueError):
            run_noise_comparison(grid4, [0.01], shot_config(), seeds=[0])

    def test_zero_arm_identical_to_plain_run(self, grid4):
        cfg = shot_config(shots=256, iters=12)
        arms = run_noise_comparison(grid4, [0.0, 0.05], cfg, seeds=[5])
        plain_cfg = QPolicyConfig(
            epsilon=0.01,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=256),
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

import os
import re
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import stdtrit

from qpolicy import cli, engine, experiments
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


def no_child_left():
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def failing_at(fail_at, iterations=4):
    """A chunk runner whose seed s raises ValueError at iteration
    fail_at[s], -1 meaning before its first iteration; each seed's result
    is a string naming it."""
    def run_chunk(chunk, at):
        for k in range(-1, iterations):
            if k >= 0:
                at(k)
            for seed in chunk:
                if fail_at.get(seed) == k:
                    raise ValueError(f"seed {seed} failed at iteration {k}")
        return [f"records of seed {seed}" for seed in chunk]
    return run_chunk


class TestMonteCarloChunks:
    SEEDS = [4, 0, 9, 2, 7, 11, 5]  # 7 seeds, which 2 and 3 do not divide

    @pytest.mark.parametrize("model", ["grid4", "frozen8"])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 9])
    def test_records_do_not_depend_on_the_cpu_count(self, model, k, cpus, monkeypatch,
                                                    request):
        mdp = request.getfixturevalue(model)
        own = [experiments.run_mc_policy_iteration(mdp, 60, 4, [seed])[0]
               for seed in self.SEEDS]
        forks = []
        fork_chunk = experiments._fork_chunk
        monkeypatch.setattr(experiments, "_fork_chunk",
                            lambda run, chunk: forks.append(chunk) or fork_chunk(run, chunk))
        cpus(k)
        runs = experiments.run_mc_policy_iteration(mdp, 60, 4, self.SEEDS)
        # repr writes each float's shortest round trip: equal reprs, equal bits
        assert repr(runs) == repr(own)
        sizes = [len(chunk) for chunk in forks]
        assert len(forks) == min(k, 7) - 1
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
        assert sum(forks, []) == self.SEEDS[7 - sum(sizes):]
        assert no_child_left()

    @pytest.mark.parametrize("fail_at", [
        {}, {4: 2}, {5: 1, 2: 1, 0: 3}, {9: 0, 5: 0}, {5: 3, 4: 3}, {7: 2, 11: -1},
        {4: 1, 5: 0}, {0: 3, 11: 3},
    ])
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_the_serial_runs_error_is_raised(self, fail_at, k, cpus):
        cpus(1)
        try:
            serial = experiments._in_chunks(failing_at(fail_at), self.SEEDS)
        except ValueError as error:
            serial = error
        cpus(k)
        if isinstance(serial, list):
            assert experiments._in_chunks(failing_at(fail_at), self.SEEDS) == serial
        else:
            with pytest.raises(ValueError, match=f"^{serial}$"):
                experiments._in_chunks(failing_at(fail_at), self.SEEDS)
        assert no_child_left()

    def test_an_overflowing_run_names_the_serial_runs_seed(self, grid4, cpus):
        # a reward of 1.5e308 on entering the goal overflows the returns of
        # every seed in its first evaluation; the error names the first seed
        huge = replace(grid4, rewards=np.where(grid4.rewards > 0, 1.5e308, grid4.rewards))
        cpus(3)
        with pytest.raises(experiments.DivergenceError, match=re.escape(
                "iteration 0: the Monte Carlo estimates of seed 4 are not finite")) as info:
            experiments.run_mc_policy_iteration(huge, 20, 3, self.SEEDS)
        assert info.value.at == (0, 0)
        assert no_child_left()

    def test_a_child_that_leaves_without_a_result_raises(self, cpus):
        parent = os.getpid()

        def run_chunk(chunk, at):
            if os.getpid() != parent and 3 in chunk:
                os._exit(3)
            return list(chunk)
        cpus(3)
        with pytest.raises(RuntimeError, match=re.escape(
                "the process running seeds [2, 3] left without a result, wait status 768")):
            experiments._in_chunks(run_chunk, [0, 1, 2, 3, 4])
        assert no_child_left()

    def test_an_interrupt_kills_the_children(self, cpus):
        parent = os.getpid()

        def run_chunk(chunk, at):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
        cpus(2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            experiments._in_chunks(run_chunk, [0, 1])
        assert time.monotonic() - start < 30
        assert no_child_left()

    def test_children_write_nothing(self, cpus, capfd):
        # a byte left in this process's stdout buffer, and a chunk that raises
        # in a child: neither the buffer nor a traceback reaches the fds twice
        print("kept", end="")
        cpus(3)
        with pytest.raises(ValueError, match="seed 5 failed at iteration 0"):
            experiments._in_chunks(failing_at({5: 0}), self.SEEDS)
        assert experiments._in_chunks(failing_at({}), self.SEEDS) == [
            f"records of seed {seed}" for seed in self.SEEDS]
        assert capfd.readouterr() == ("kept", "")

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert experiments._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert experiments._usable_cpus() == (os.cpu_count() or 1)
        monkeypatch.delattr(os, "fork", raising=False)
        assert experiments._usable_cpus() == 1

    def test_the_fork_warning_filter_matches_the_warning(self):
        # the message Python 3.12 and later give; 3.11 does not warn
        message = ("This process (pid=4242) is multi-threaded, use of fork() may lead "
                   "to deadlocks in the child.")
        assert re.match(experiments._FORK_WARNING, message)


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
def engine_calls(monkeypatch, cpus):
    """The runs the sweeps start, through the name they call: members holds
    one config per lockstep member, batches one member list per call. The
    sweeps run in this process (one usable CPU), where the lists are kept."""
    cpus(1)
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


def diverging(plan):
    """An engine._read_out for members told apart by their shot count:
    member m (shots 100 + m) diverges at iteration k of plan[m] = (k,
    check). For check 0 its backup targets are made inf, which the targets
    check of _read_out rejects; for check 1 its read-out table is made -1,
    below the reward bound, which the check after _read_out rejects."""
    read_out = engine._read_out

    def stub(targets, mask, estimators, rngs, iteration, seeds):
        planned = [plan.get(est.shots - 100) for est in estimators]
        targets = targets.copy()
        for j, at in enumerate(planned):
            if at == (iteration, 0):
                targets[j] = np.inf
        q, queries, variances = read_out(targets, mask, estimators, rngs, iteration, seeds)
        for j, at in enumerate(planned):
            if at == (iteration, 1):
                q[j] = -1.0
        return q, queries, variances
    return stub


class TestSweepChunks:
    """The sweeps' distinct runs go through _in_chunks, in up to one
    process per usable CPU, with the one-process results and errors."""

    @pytest.mark.parametrize("model", ["grid4", "frozen8"])
    @pytest.mark.parametrize("sweep, runs", [("ablation", 9), ("noise", 10)])
    def test_records_do_not_depend_on_the_cpu_count(self, model, sweep, runs, cpus,
                                                    monkeypatch, request):
        mdp = request.getfixturevalue(model)
        base = shot_config(iters=5)
        if sweep == "ablation":  # shot mode: 3 shot counts x 3 seeds, each twice
            cells = {(eps, shots): {"epsilon": eps, "shots": shots}
                     for eps in (0.01, 0.05) for shots in (64, 256, 1024)}
            seeds = [0, 4, 1]
        else:  # 5 arms x 2 seeds
            cells = {p: {"noise_p": p} for p in (0.0, 0.01, 0.05, 0.1, 0.2)}
            seeds = [3, 0]
        own = {cell: [run_qpolicy(mdp, base.with_settings(seed, **settings))[0]
                      for seed in seeds] for cell, settings in cells.items()}
        forks = []
        fork_chunk = experiments._fork_chunk
        monkeypatch.setattr(experiments, "_fork_chunk",
                            lambda run, chunk: forks.append(chunk) or fork_chunk(run, chunk))
        # 2 and 4 do not divide 9 runs, 3 and 4 do not divide 10
        for k in (1, 2, 3, 4, runs, runs + 2):
            forks.clear()
            cpus(k)
            if sweep == "ablation":
                done = run_ablation(mdp, [0.01, 0.05], [64, 256, 1024], base, seeds)
            else:
                done = run_noise_comparison(mdp, list(cells), base, seeds)
            # repr writes each float's shortest round trip: equal reprs, equal bits
            assert repr({cell: [run.records for run in done[cell]] for cell in cells}) == \
                repr(own)
            assert [run.seed for cell in cells for run in done[cell]] == seeds * len(cells)
            assert len(forks) == min(k, runs) - 1
            sizes = [len(chunk) for chunk in forks]
            assert max(sizes, default=0) - min(sizes, default=0) <= 1
            assert no_child_left()

    def test_members_are_counted_across_chunks(self, grid4, cpus, monkeypatch, tmp_path):
        # a count kept in memory would miss the child's chunk: each call
        # appends its process and member count to a file
        log = tmp_path / "calls"
        lockstep = experiments.run_qpolicy_lockstep

        def counting(mdp, configs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {len(configs)}\n")
            return lockstep(mdp, configs)
        monkeypatch.setattr(experiments, "run_qpolicy_lockstep", counting)
        cpus(2)
        run_ablation(grid4, [0.001, 0.01, 0.05], [128, 512, 1024, 2048, 4096],
                     shot_config(iters=3), range(5))
        calls = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(size) for _, size in calls) == [12, 13]
        assert len({pid for pid, _ in calls}) == 2 and str(os.getpid()) in dict(calls)
        assert no_child_left()

    MEMBERS = 7

    @pytest.mark.parametrize("plan", [
        {}, {0: (2, 1)}, {4: (1, 0), 1: (1, 1)}, {5: (2, 1), 2: (2, 1)},
        {6: (1, 0), 0: (3, 1)}, {3: (2, 0), 5: (2, 0)}, {1: (3, 0), 6: (3, 1), 2: (4, 1)},
        {6: (2, 1), 3: (2, 0)}, {2: (4, 0), 5: (3, 1)},
    ])
    def test_the_one_process_error_is_raised(self, grid4, plan, cpus, monkeypatch):
        jobs = {m: replace(shot_config(shots=100 + m, iters=6), seed=m)
                for m in range(self.MEMBERS)}
        monkeypatch.setattr(engine, "_read_out", diverging(plan))

        def outcome():
            try:
                return repr(_run_jobs(grid4, jobs))
            except engine.DivergenceError as error:
                return error
        cpus(1)
        serial = outcome()
        if plan:
            assert isinstance(serial, engine.DivergenceError)
            first = min(plan, key=lambda m: (plan[m], m))  # member m has seed m
            k, check = plan[first]
            assert serial.at == (k, check) and str(serial).startswith(f"iteration {k}: ")
            assert f" of seed {first} " in str(serial)
        for k in (2, 3, self.MEMBERS):
            cpus(k)
            got = outcome()
            assert type(got) is type(serial) and str(got) == str(serial)
            assert no_child_left()

    def test_a_child_that_leaves_without_a_result_raises(self, grid4, cpus, monkeypatch,
                                                         tmp_path, capsys):
        parent, lockstep = os.getpid(), experiments.run_qpolicy_lockstep

        def leaving(mdp, configs):
            if os.getpid() != parent and any(c.seed == 3 for c in configs):
                os._exit(3)
            return lockstep(mdp, configs)
        monkeypatch.setattr(experiments, "run_qpolicy_lockstep", leaving)
        cpus(3)
        message = "the process running seeds [2, 3] left without a result, wait status 768"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            _run_jobs(grid4, {seed: shot_config(iters=2, seed=seed) for seed in range(5)})
        assert no_child_left()
        env = tmp_path / "env.json"
        assert cli.main(["gen-env", "gridworld", "--width", "4", "--height", "4",
                         "--out", str(env)]) == cli.EXIT_OK
        assert cli.main(["noise-study", "--env", str(env), "--iters", "2", "--seeds", "5",
                         "--p-values", "0", "--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == f"runtime error: {message}\n"
        assert no_child_left()

    def test_children_write_nothing(self, grid4, cpus, capfd, monkeypatch):
        # a byte left in this process's stdout buffer, and a run that
        # diverges in a child: neither the buffer nor a traceback reaches
        # the fds twice
        print("kept", end="")
        cpus(3)
        assert run_noise_comparison(grid4, [0.0, 0.01, 0.05], shot_config(iters=3), [0, 1])
        monkeypatch.setattr(engine, "_read_out", diverging({4: (1, 1)}))
        jobs = {m: replace(shot_config(shots=100 + m, iters=3), seed=m) for m in range(6)}
        with pytest.raises(engine.DivergenceError, match="^iteration 1: the read-out table "
                                                         "of seed 4 "):
            _run_jobs(grid4, jobs)
        assert capfd.readouterr() == ("kept", "")
        assert no_child_left()


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

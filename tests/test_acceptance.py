"""End-to-end acceptance checks, one test per numbered criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. Each test pins its tolerances inline; expected values either
follow from closed forms, from the independent oracles in oracles.py, or
are direct artifact checks.
"""
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

from qpolicy import engine
from qpolicy.cli import EXIT_OK, main
from qpolicy.emulator import (
    AE_ORACLE,
    SHOT_SAMPLING,
    EstimatorConfig,
    amplitude_encode,
    depolarized_value,
    readout_batch,
)
from qpolicy.engine import QPolicyConfig, run_qpolicy, run_qpolicy_lockstep
from qpolicy.experiments import (
    calibrated_query_config,
    estimate_resources,
    matched_accuracy_scaling,
    query_summary,
    run_noise_comparison,
    run_query_complexity_study,
)
from qpolicy.mdp import (
    Policy,
    TabularMDP,
    bellman_backup,
    build_frozenlake,
    build_gridworld,
    exact_policy_evaluation,
    greedy_actions,
    policy_values,
    value_iteration,
)

from oracles import depolarize_density, measurement_probs

SEEDS_10 = list(range(10))


def _report(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n:2d} PASS: {message}")


@pytest.fixture(scope="module")
def grid():
    return build_gridworld(4, 4, 0.2, (3, 3), 0.95)


@pytest.fixture(scope="module")
def lake():
    return build_frozenlake(8, True, 0.95)


def test_c01_oracle_equivalence(grid):
    _, vi_policy = value_iteration(grid, 1e-10)
    non_terminal = [s for s in range(16) if s not in grid.terminal_states]
    for seed in SEEDS_10:
        cfg = QPolicyConfig(epsilon=1e-12, seed=seed, max_iterations=200,
                            convergence_tol=1e-10)
        _, policy = run_qpolicy(grid, cfg)
        assert np.array_equal(policy.actions[non_terminal], vi_policy.actions[non_terminal]), \
            f"policy mismatch at seed {seed}"
    _report(1, "exact-mode runs reproduce the value-iteration policy on 10 seeds")


def test_c02_bellman_error_monotone(grid):
    for seed in SEEDS_10:
        cfg = QPolicyConfig(epsilon=1e-12, seed=seed, max_iterations=100, convergence_tol=1e-8)
        records, _ = run_qpolicy(grid, cfg)
        deltas = [r.bellman_error_max for r in records]
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-12
        for t, d in enumerate(deltas):
            assert d <= grid.gamma ** t * deltas[0] * 1.01
    _report(2, "error decay is monotone and within the contraction envelope, 10 seeds")


def test_c03_query_complexity_table(grid):
    results = run_query_complexity_study(
        grid, calibrated_query_config(), mc_budget=1000, seeds=SEEDS_10)
    mc = [r for r in results if r.method == "monte_carlo"]
    qp = [r for r in results if r.method == "qpolicy"]
    assert all(r.queries_per_iteration == 1000 for r in mc)
    assert all(r.total_queries == 50_000 for r in mc)
    summary = query_summary(results)
    ratio = summary["qpolicy"]["total_queries"] / summary["monte_carlo"]["total_queries"]
    assert ratio <= 0.25
    assert summary["qpolicy"]["final_bellman_error"] <= summary["monte_carlo"]["final_bellman_error"]
    _report(3, f"engine used {ratio:.3f} of the Monte Carlo query budget "
               f"({int(summary['qpolicy']['total_queries'])} vs 50000) at lower final error "
               f"({summary['qpolicy']['final_bellman_error']:.4f} vs "
               f"{summary['monte_carlo']['final_bellman_error']:.4f})")


def test_c04_scaling_slopes():
    points = matched_accuracy_scaling([0.1, 0.05, 0.02, 0.01], seed=0)
    eps = [p.epsilon for p in points]
    ae_slope = float(np.polyfit(np.log(eps), np.log([p.ae_queries for p in points]), 1)[0])
    mc_slope = float(np.polyfit(np.log(eps), np.log([p.mc_budget for p in points]), 1)[0])
    assert -1.2 <= ae_slope <= -0.8
    assert -2.3 <= mc_slope <= -1.7
    _report(4, f"oracle queries scale with slope {ae_slope:.2f}, matched-RMSE "
               f"sampling with slope {mc_slope:.2f}")


def test_c05_hard_bound_no_violations():
    values = np.random.default_rng(123).random(100_000)
    epsilon = 0.05
    reads = readout_batch(values, EstimatorConfig(mode=AE_ORACLE, epsilon=epsilon),
                          np.random.default_rng(124))
    violations = int(np.count_nonzero(np.abs(reads - values) > epsilon))
    assert violations == 0
    _report(5, "additive-precision bound held on all 100000 oracle reads")


def test_c06_depolarizing_channel_fidelity():
    # Pr(1) of the density matrix of sqrt(1 - v)|0> + sqrt(v)|1> after the channel
    worst = 0.0
    for p in (0.0, 0.01, 0.35, 0.75, 1.0):
        for v in np.linspace(0.0, 1.0, 101):
            amps = np.array([np.sqrt(1.0 - v), np.sqrt(v)], dtype=complex)
            rho = np.outer(amps, amps.conj())
            want = measurement_probs(depolarize_density(rho, p))[1]
            worst = max(worst, abs(depolarized_value(v, p) - want))
    assert worst <= 1e-12
    _report(6, f"the depolarized readout value matches the density-matrix channel "
               f"at 5 strengths and 101 values (worst gap {worst:.1e})")


def test_c07_uniform_encoding_example():
    state, scale, pad = amplitude_encode([0.5, 0.5, 0.5, 0.5])
    assert state.num_qubits == 2
    assert np.abs(state.amplitudes - 0.5).max() <= 1e-12
    outcome_law = np.abs(state.amplitudes) ** 2
    assert np.abs(outcome_law - 0.25).max() <= 1e-12
    expected = float(np.arange(4) @ outcome_law)
    assert expected == pytest.approx(1.5, abs=1e-12)
    _report(7, f"uniform state encodes exactly, its outcome law is uniform, and its "
               f"expected index is {expected:.12f}")


class OracleRun(NamedTuple):
    """One engine run and every iteration's (q_k, q_{k+1}, span_k), span_k
    the max - min of the backup targets that iteration read out."""
    mdp: TabularMDP
    q_star: np.ndarray
    error: float  # readout error bound in [0, 1] units, epsilon + 2p/3
    policy: Policy
    steps: list


@pytest.fixture(scope="module")
def oracle_runs(grid, lake):
    """ae_oracle runs of the engine on the grid and the lake, at epsilon in
    {0.1, 0.01} and p in {0, 0.05}, 5 seeds of 60 iterations each. The loop's
    evaluate step is wrapped to keep each table it is given and returns."""
    runs, captured = [], []
    loop = engine.policy_iteration_lockstep

    def capturing_loop(mdp, budgets, evaluate):
        steps = [[] for _ in budgets]
        captured.append(steps)

        def capture(k, q, actions, active):
            q_next, queries, variances = evaluate(k, q, actions, active)
            for j, i in enumerate(active):
                targets = bellman_backup(mdp, q[j], Policy(actions[j]))
                steps[i].append((q[j], q_next[j], float(targets.max() - targets.min())))
            return q_next, queries, variances
        return loop(mdp, budgets, capture)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "policy_iteration_lockstep", capturing_loop)
        for mdp in (grid, lake):
            q_star, _ = value_iteration(mdp, 1e-10)
            for epsilon in (0.1, 0.01):
                for p in (0.0, 0.05):
                    base = QPolicyConfig(epsilon=epsilon, max_iterations=60)
                    configs = [base.with_settings(seed, noise_p=p) for seed in range(5)]
                    results = run_qpolicy_lockstep(mdp, configs)
                    for (_, policy), steps in zip(results, captured.pop()):
                        runs.append(OracleRun(mdp, q_star, epsilon + 2 * p / 3, policy, steps))
    return runs


def _distance(q, q_star) -> float:
    return float(np.abs(q - q_star).max())


def test_c09_greedy_loss_bound(oracle_runs):
    # Singh & Yee (1994): the greedy policy of q loses at most
    # 2 ||q - Q*|| / (1 - gamma)
    worst = 0.0
    for run in oracle_runs:
        q_final = run.steps[-1][1]
        assert np.array_equal(run.policy.actions, greedy_actions(q_final))
        v_pi = policy_values(run.mdp, run.policy,
                             exact_policy_evaluation(run.mdp, run.policy, 1e-10))
        loss = float(np.abs(run.q_star.max(axis=1) - v_pi).max())
        bound = 2.0 * _distance(q_final, run.q_star) / (1.0 - run.mdp.gamma)
        assert loss <= bound + 1e-9
        worst = max(worst, loss / bound)
    _report(9, f"each of {len(oracle_runs)} ae_oracle runs returns the greedy policy of "
               f"its last table, whose loss is within 2 ||q_K - Q*|| / (1 - gamma) "
               f"(worst ratio {worst:.3f})")


def test_c10_convergence_bound(oracle_runs):
    # Bertsekas & Tsitsiklis (1996), noisy value iteration: every read lies
    # within error * span_k of its target T* q_k; 1e-9 covers greedy's tie
    # tolerance
    worst_step = worst_closed = 0.0
    for run in oracle_runs:
        gamma = run.mdp.gamma
        widest = 0.0
        for k, (q, q_next, span) in enumerate(run.steps):
            widest = max(widest, span)
            gap = _distance(q_next, run.q_star)
            step = gamma * _distance(q, run.q_star) + run.error * span
            closed = (gamma ** (k + 1) * float(np.abs(run.q_star).max())
                      + run.error * widest / (1.0 - gamma))
            assert gap <= step + 1e-9, f"iteration {k}: {gap} > {step}"
            assert gap <= closed + 1e-9 / (1.0 - gamma), f"iteration {k}: {gap} > {closed}"
            worst_step = max(worst_step, gap / step)
            worst_closed = max(worst_closed, gap / closed)
    _report(10, f"||q_k+1 - Q*|| <= gamma ||q_k - Q*|| + (epsilon + 2p/3) span_k on every "
                f"iteration of {len(oracle_runs)} ae_oracle runs (worst ratio "
                f"{worst_step:.3f}; closed form {worst_closed:.3f})")


def test_c11_resource_estimates(grid):
    est = estimate_resources(grid, QPolicyConfig(epsilon=0.01), kappa=1.0)
    assert est.qubits == 6
    assert abs(est.gates_per_iteration - 5600) <= 0.15 * 5600
    assert abs(est.seconds_per_iteration_at_1khz - 5.6) <= 0.15 * 5.6
    _report(11, f"6 qubits, {est.gates_per_iteration} gates/iteration, "
                f"{est.seconds_per_iteration_at_1khz:.2f} s at 1 kHz")


def test_c12_ablation_grid(grid, tmp_path):
    env_path = tmp_path / "grid.json"
    from qpolicy.mdp import save_mdp
    save_mdp(grid, env_path)
    out = tmp_path / "ablation"
    code = main(["ablate", "--env", str(env_path),
                 "--epsilons", "0.001,0.01,0.05",
                 "--shots", "128,512,1024,2048,4096",
                 "--iters", "100", "--seeds", "5", "--mode", "shot_sampling",
                 "--out", str(out)])
    assert code == EXIT_OK
    arm_files = sorted(out.glob("arm_*.csv"))
    assert len(arm_files) == 15
    assert (out / "summary.csv").exists()

    def final_errors(path):
        rows = path.read_text().strip().splitlines()[1:]
        by_seed = {}
        for row in rows:
            cols = row.split(",")
            by_seed[int(cols[6])] = float(cols[1])  # last row per seed wins
        return np.mean(list(by_seed.values()))

    err_128 = final_errors(out / "arm_eps0.01_shots128.csv")
    err_4096 = final_errors(out / "arm_eps0.01_shots4096.csv")
    assert err_4096 <= err_128
    _report(12, f"75-run grid completed; mean final error {err_4096:.4f} at 4096 "
                f"shots vs {err_128:.4f} at 128")


def test_c13_noise_study(lake):
    cfg = QPolicyConfig(
        epsilon=0.01,
        estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=512),
        max_iterations=50, convergence_tol=1e-12,
    )
    seeds = list(range(50))
    arms = run_noise_comparison(lake, [0.0, 0.01], cfg, seeds=seeds)
    mean_clean = np.mean([r.records[-1].bellman_error_mean for r in arms[0.0]])
    mean_noisy = np.mean([r.records[-1].bellman_error_mean for r in arms[0.01]])
    assert mean_noisy >= mean_clean

    # the p = 0 arm must be bitwise identical to a run without a noise model
    plain_cfg = QPolicyConfig(
        epsilon=0.01,
        estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=512, seed=17),
        seed=17, max_iterations=50, convergence_tol=1e-12,
    )
    plain, _ = run_qpolicy(lake, plain_cfg)
    zero_arm = next(r.records for r in arms[0.0] if r.seed == 17)
    for ra, rb in zip(zero_arm, plain):
        assert ra.bellman_error_max == rb.bellman_error_max
        assert ra.q_variance == rb.q_variance
    _report(13, f"mean final error {mean_noisy:.5f} with noise vs {mean_clean:.5f} "
                f"without, over 50 paired seeds; p=0 arm is bit-identical")


def test_c14_cli_determinism(grid, tmp_path, subprocess_env, one_config_per_call):
    from qpolicy.mdp import save_mdp
    env_path = tmp_path / "grid.json"
    save_mdp(grid, env_path)

    def csv_bytes(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}

    def run_cmd(argv, out_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "qpolicy.cli"] + argv + ["--out", str(out_dir)],
            env=subprocess_env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        return csv_bytes(out_dir)

    def run_one_config_per_call(argv, out_dir):
        assert main(argv + ["--out", str(out_dir)]) == EXIT_OK
        return csv_bytes(out_dir)

    run_args = ["run", "--env", str(env_path), "--epsilon", "0.01",
                "--shots", "512", "--iters", "25", "--seed", "7"]
    first = run_cmd(run_args, tmp_path / "r1")
    second = run_cmd(run_args, tmp_path / "r2")
    assert first == second

    ablate_args = ["ablate", "--env", str(env_path), "--epsilons", "0.01,0.05",
                   "--shot-counts", "128,512", "--iters", "8", "--seeds", "3"]
    batch = run_cmd(ablate_args, tmp_path / "a1")
    batch_again = run_cmd(ablate_args, tmp_path / "a2")
    solo = run_one_config_per_call(ablate_args, tmp_path / "a3")
    assert batch == batch_again == solo

    noise_args = ["noise-study", "--env", str(env_path), "--p-values", "0,0.02",
                  "--iters", "8", "--seeds", "3"]
    batch = run_cmd(noise_args, tmp_path / "n1")
    batch_again = run_cmd(noise_args, tmp_path / "n2")
    solo = run_one_config_per_call(noise_args, tmp_path / "n3")
    assert batch == batch_again == solo
    # each study's 2 x 3 distinct runs, in one call whose members run one by one
    assert one_config_per_call == [6, 6]
    _report(14, "byte-identical CSVs across reruns, lockstep or one config per call")

"""Checks of workload outputs, computed apart from the qpolicy library.

Nothing here imports qpolicy. Every expected figure is derived from the
environment file the benchmark wrote, from the workload's flags, or from an
independent computation (a sparse linear solve, a Student-t interval), never
from a stored copy of earlier output. Each check raises CheckError with the
file and the first disagreement it finds.
"""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.special import stdtrit

RUN_COLUMNS = ["iteration", "bellman_error_max", "bellman_error_mean", "q_variance",
               "queries_iteration", "queries_cumulative", "seed"]
SUMMARY_COLUMNS = ["arm", "iteration", "mean", "std", "ci95_low", "ci95_high", "n"]
RUNS_COLUMNS = ["method", "seed", "queries_per_iteration", "total_queries",
                "final_bellman_error"]
COMPARISON_COLUMNS = ["method", "queries_per_iteration", "total_queries",
                      "final_bellman_error", "n"]
SCALING_COLUMNS = ["epsilon", "ae_queries", "ae_rmse", "mc_budget", "mc_rmse"]
SOLVE_COLUMNS = ["iteration", "bellman_error_max", "queries_iteration", "queries_cumulative"]

REL_TOL = 1e-9          # the CLI writes 17 significant digits
OPTIMALITY_TOL = 1e-8   # value_iteration is asked for 1e-8
EVALUATION_TOL = 1e-9   # exact_policy_evaluation is asked for 1e-10


class CheckError(Exception):
    """An artifact disagrees with its independent recomputation."""


class Env:
    """The environment file as a sparse (S*A, S) operator plus its rewards."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        self.num_states = int(doc["num_states"])
        self.num_actions = int(doc["num_actions"])
        self.gamma = float(doc["gamma"])
        self.terminals = sorted(int(t) for t in doc["terminals"])
        self.rewards = np.asarray(doc["rewards"], dtype=float)
        rows, cols, probs = [], [], []
        for entry in doc["transitions"]:
            flat = int(entry["s"]) * self.num_actions + int(entry["a"])
            for s_next, p in entry["rows"]:
                rows.append(flat)
                cols.append(int(s_next))
                probs.append(float(p))
        shape = (self.num_states * self.num_actions, self.num_states)
        self.transitions = sp.csr_matrix((probs, (rows, cols)), shape=shape)

    @property
    def read_pairs(self) -> int:
        """(s, a) entries read out per iteration: terminal rows are skipped."""
        return (self.num_states - len(self.terminals)) * self.num_actions

    def backup(self, v: np.ndarray) -> np.ndarray:
        """r + gamma * P v as an (S, A) table."""
        pv = self.transitions @ v
        return self.rewards + self.gamma * pv.reshape(self.num_states, self.num_actions)


def ae_cost(c_ae: float, epsilon: float) -> int:
    """ceil(c_ae / epsilon), taken exactly on the decimal values."""
    return math.ceil(Fraction(repr(c_ae)) / Fraction(repr(epsilon)))


def arm_name(epsilon: float, shots: int) -> str:
    return f"eps{format(epsilon, 'g')}_shots{shots}"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _read_csv(path: Path, columns: list[str]) -> list[dict]:
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != columns:
            raise CheckError(f"{path.name}: header {header} is not {columns}")
        return [dict(zip(columns, row)) for row in reader]


def _close(a: float, b: float, what: str) -> None:
    if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15):
        raise CheckError(f"{what}: {a!r} != recomputed {b!r}")


def _check_run_rows(name: str, rows: list[dict], seeds, iterations: int,
                    per_iteration: int) -> None:
    """One block of `iterations` rows per seed, in seed order, with exact
    query counts and running sums."""
    if len(rows) != len(seeds) * iterations:
        raise CheckError(f"{name}: {len(rows)} rows, expected {len(seeds)} x {iterations}")
    for i, row in enumerate(rows):
        seed, k = seeds[i // iterations], i % iterations
        where = f"{name} row {i + 1}"
        if int(row["seed"]) != seed or int(row["iteration"]) != k:
            raise CheckError(f"{where}: seed/iteration {row['seed']}/{row['iteration']}, "
                             f"expected {seed}/{k}")
        if int(row["queries_iteration"]) != per_iteration:
            raise CheckError(f"{where}: queries_iteration {row['queries_iteration']}, "
                             f"expected {per_iteration}")
        if int(row["queries_cumulative"]) != per_iteration * (k + 1):
            raise CheckError(f"{where}: queries_cumulative {row['queries_cumulative']} "
                             f"is not the running sum {per_iteration * (k + 1)}")
        err_max, err_mean = float(row["bellman_error_max"]), float(row["bellman_error_mean"])
        q_var = float(row["q_variance"])
        if not (math.isfinite(err_max) and 0.0 <= err_mean <= err_max and q_var >= 0.0):
            raise CheckError(f"{where}: errors {err_mean}/{err_max} or variance {q_var} "
                             "out of range")


def _t_interval(data: np.ndarray):
    """Mean, sample std and 95% Student-t half-width per column."""
    n = data.shape[0]
    mean = data.mean(axis=0)
    std = data.std(axis=0, ddof=1)
    half = stdtrit(n - 1, 0.975) * std / math.sqrt(n)
    return mean, std, half


# ---------------------------------------------------------------------------
# Workload checks; each returns the number of policy-iteration records
# ---------------------------------------------------------------------------

def check_ablate(out: Path, env: Env, seeds, params: dict) -> int:
    """Arm files carry shot-mode query counts; summary.csv matches a fresh
    t-interval over the arm files."""
    out = Path(out)
    iterations = params["iterations"]
    expected_summary = {}
    records = 0
    for eps in params["epsilons"]:
        for shots in params["shot_counts"]:
            arm = arm_name(eps, shots)
            rows = _read_csv(out / f"arm_{arm}.csv", RUN_COLUMNS)
            _check_run_rows(f"arm_{arm}.csv", rows, seeds, iterations, env.read_pairs * shots)
            records += len(rows)
            errors = np.array([float(r["bellman_error_max"]) for r in rows])
            mean, std, half = _t_interval(errors.reshape(len(seeds), iterations))
            for k in range(iterations):
                expected_summary[(arm, k)] = (mean[k], std[k], mean[k] - half[k],
                                              mean[k] + half[k])
    summary = _read_csv(out / "summary.csv", SUMMARY_COLUMNS)
    if len(summary) != len(expected_summary):
        raise CheckError(f"summary.csv: {len(summary)} rows, expected {len(expected_summary)}")
    for row in summary:
        key = (row["arm"], int(row["iteration"]))
        if key not in expected_summary:
            raise CheckError(f"summary.csv: unexpected row {key}")
        if int(row["n"]) != len(seeds):
            raise CheckError(f"summary.csv {key}: n {row['n']}, expected {len(seeds)}")
        for col, value in zip(("mean", "std", "ci95_low", "ci95_high"), expected_summary[key]):
            _close(float(row[col]), float(value), f"summary.csv {key} {col}")
    return records


def check_compare(out: Path, env: Env, seeds, params: dict) -> int:
    """Engine queries follow (S - |T|) * A * ceil(c_ae / eps), MC totals are
    budget x iterations, comparison.csv is their mean, and the scaling table
    prices the oracle at ceil(1 / eps) with MC error no worse than it."""
    out = Path(out)
    iterations, mc_budget = params["iterations"], params["mc_budget"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    estimator = manifest["config"]["estimator"]
    if estimator["mode"] != "ae_oracle":
        raise CheckError(f"manifest.json: engine arm mode {estimator['mode']!r}")
    per_iteration = {
        "qpolicy": env.read_pairs * ae_cost(estimator["c_ae"], estimator["epsilon"]),
        "monte_carlo": mc_budget,
    }
    runs = _read_csv(out / "comparison_runs.csv", RUNS_COLUMNS)
    expected_order = [(seed, method) for seed in seeds for method in ("qpolicy", "monte_carlo")]
    got_order = [(int(r["seed"]), r["method"]) for r in runs]
    if got_order != expected_order:
        raise CheckError(f"comparison_runs.csv: rows {got_order}, expected {expected_order}")
    for r in runs:
        where = f"comparison_runs.csv {r['method']} seed {r['seed']}"
        want = per_iteration[r["method"]]
        if int(r["queries_per_iteration"]) != want:
            raise CheckError(f"{where}: queries_per_iteration {r['queries_per_iteration']}, "
                             f"expected {want}")
        if int(r["total_queries"]) != want * iterations:
            raise CheckError(f"{where}: total_queries {r['total_queries']}, "
                             f"expected {want} x {iterations}")
        err = float(r["final_bellman_error"])
        if not (math.isfinite(err) and err >= 0.0):
            raise CheckError(f"{where}: final_bellman_error {err}")

    table = _read_csv(out / "comparison.csv", COMPARISON_COLUMNS)
    if sorted(r["method"] for r in table) != sorted(per_iteration):
        raise CheckError(f"comparison.csv: methods {[r['method'] for r in table]}")
    for row in table:
        mine = [r for r in runs if r["method"] == row["method"]]
        where = f"comparison.csv {row['method']}"
        for col in ("queries_per_iteration", "total_queries"):
            want = round(np.mean([int(r[col]) for r in mine]))
            if int(row[col]) != want:
                raise CheckError(f"{where}: {col} {row[col]}, expected {want}")
        _close(float(row["final_bellman_error"]),
               float(np.mean([float(r["final_bellman_error"]) for r in mine])),
               f"{where} final_bellman_error")
        if int(row["n"]) != len(seeds):
            raise CheckError(f"{where}: n {row['n']}, expected {len(seeds)}")

    scaling = _read_csv(out / "scaling.csv", SCALING_COLUMNS)
    want_eps = sorted(params["scaling_epsilons"], reverse=True)
    if [float(r["epsilon"]) for r in scaling] != want_eps:
        raise CheckError(f"scaling.csv: epsilons {[r['epsilon'] for r in scaling]}, "
                         f"expected {want_eps}")
    for r in scaling:
        eps = float(r["epsilon"])
        where = f"scaling.csv epsilon {eps}"
        if int(r["ae_queries"]) != ae_cost(1.0, eps):
            raise CheckError(f"{where}: ae_queries {r['ae_queries']}, "
                             f"expected {ae_cost(1.0, eps)}")
        ae_rmse, mc_rmse = float(r["ae_rmse"]), float(r["mc_rmse"])
        if not 0.0 < ae_rmse <= eps:
            raise CheckError(f"{where}: ae_rmse {ae_rmse} outside (0, epsilon]")
        if not mc_rmse <= ae_rmse:
            raise CheckError(f"{where}: mc_rmse {mc_rmse} > ae_rmse {ae_rmse}")
        budget = int(r["mc_budget"])
        if budget < 2 or budget & (budget - 1):
            raise CheckError(f"{where}: mc_budget {budget} is not a doubling of 2")
    return len(seeds) * 2 * iterations


def check_solve(out: Path, env: Env, seeds, params: dict) -> int:
    """Shot-mode query counts, then, from a sparse operator built from the
    environment file alone: the final policy's Q matches a direct linear
    solve, its value stays below V*, and Q* satisfies Bellman optimality."""
    out = Path(out)
    iterations = params["iterations"]
    rows = _read_csv(out / "records.csv", SOLVE_COLUMNS)
    per_iteration = env.read_pairs * params["shots"]
    if [int(r["iteration"]) for r in rows] != list(range(iterations)):
        raise CheckError(f"records.csv: iterations are not 0..{iterations - 1}")
    for k, r in enumerate(rows):
        if int(r["queries_iteration"]) != per_iteration:
            raise CheckError(f"records.csv row {k + 1}: queries_iteration "
                             f"{r['queries_iteration']}, expected {per_iteration}")
        if int(r["queries_cumulative"]) != per_iteration * (k + 1):
            raise CheckError(f"records.csv row {k + 1}: queries_cumulative "
                             f"{r['queries_cumulative']} is not the running sum")

    s_count, a_count = env.num_states, env.num_actions
    q_star = np.load(out / "q_star.npy")
    q_pi = np.load(out / "q_pi.npy")
    policy = np.load(out / "policy.npy")
    if q_star.shape != (s_count, a_count) or q_pi.shape != (s_count, a_count):
        raise CheckError(f"q tables have shapes {q_star.shape}, {q_pi.shape}")
    if policy.shape != (s_count,) or policy.min() < 0 or policy.max() >= a_count:
        raise CheckError("policy.npy is not one action per state")

    chosen = np.arange(s_count) * a_count + policy
    p_pi = env.transitions[chosen]
    r_pi = env.rewards[np.arange(s_count), policy]
    v_pi = spsolve((sp.identity(s_count, format="csr") - env.gamma * p_pi).tocsc(), r_pi)
    gap = float(np.max(np.abs(env.backup(v_pi) - q_pi)))
    if gap > EVALUATION_TOL:
        raise CheckError(f"q_pi.npy: differs from the direct sparse solve by {gap:.3e}")

    v_star = q_star.max(axis=1)
    excess = float(np.max(v_pi - v_star))
    if excess > OPTIMALITY_TOL:
        raise CheckError(f"policy value exceeds V* by {excess:.3e}")
    residual = float(np.max(np.abs(env.backup(v_star) - q_star)))
    if residual > OPTIMALITY_TOL:
        raise CheckError(f"q_star.npy: Bellman optimality residual {residual:.3e}")
    return len(rows)

"""Seeded studies: error decay, query budgets, ablations, noise, resources.

Every study is a pure function of (environment, config, seeds); paired
studies share seeds across arms so differences are attributable to the
varied factor alone. Aggregation across seeds uses Student-t confidence
intervals, which do not understate width at the small seed counts used
here.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import stdtrit

from .emulator import AE_ORACLE, EstimatorConfig, NoiseModel, ae_query_cost
from .engine import IterationRecord, QPolicyConfig, policy_improve, run_qpolicy
from .mdp import TabularMDP, mc_policy_evaluation
from .rng import child_seed, stream

# Gate-count calibration: a sparsity-4 grid row costs 50 gates per backup and
# the estimation overhead lifts one iteration at epsilon = 0.01 to ~5600.
DEFAULT_C_GATE = 12.5
DEFAULT_C_OVERHEAD = 1.12


@dataclass
class AblationGrid:
    epsilons: Sequence[float]
    shot_counts: Sequence[int]
    seeds: Sequence[int]
    iterations: int = 100

    def __post_init__(self):
        if not self.epsilons or not self.shot_counts or not self.seeds:
            raise ValueError("grid lists must be nonempty")
        if any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if any(s <= 0 for s in self.shot_counts):
            raise ValueError("shot counts must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class SummaryStats:
    mean: float
    std: float
    ci95_low: float
    ci95_high: float
    n: int


@dataclass
class ResourceEstimate:
    qubits: int
    gates_per_bellman_update: int
    gates_per_iteration: int
    seconds_per_iteration_at_1khz: float
    kappa: float
    sparsity_d: int


@dataclass
class StudyRun:
    seed: int
    records: list


@dataclass
class MethodResult:
    method: str
    seed: int
    queries_per_iteration: int
    total_queries: int
    final_bellman_error: float
    records: list


@dataclass
class ScalingPoint:
    epsilon: float
    ae_queries: int
    ae_rmse: float
    mc_budget: int
    mc_rmse: float


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def compute_bellman_error(v_prev, v_next) -> tuple[float, float]:
    """Max and mean of elementwise |v_next - v_prev|."""
    v_prev = np.asarray(v_prev, dtype=float)
    v_next = np.asarray(v_next, dtype=float)
    if v_prev.shape != v_next.shape:
        raise ValueError("value vectors must have equal length")
    diff = np.abs(v_next - v_prev)
    return float(diff.max()), float(diff.mean())


def summarize(series_across_seeds: Sequence[Sequence[float]]) -> list[SummaryStats]:
    """Per-index mean, sample std and 95% t-interval across seeds."""
    if len(series_across_seeds) < 2:
        raise ValueError("need at least 2 series for a confidence interval")
    data = np.asarray(series_across_seeds, dtype=float)
    if data.ndim != 2:
        raise ValueError("series must all have equal length")
    n = data.shape[0]
    mean = data.mean(axis=0)
    std = data.std(axis=0, ddof=1)
    half = stdtrit(n - 1, 0.975) * std / math.sqrt(n)
    return [
        SummaryStats(float(m), float(s), float(m - h), float(m + h), n)
        for m, s, h in zip(mean, std, half)
    ]


# ---------------------------------------------------------------------------
# Monte Carlo baseline arm
# ---------------------------------------------------------------------------

def run_mc_policy_iteration(mdp: TabularMDP, budget: int, iterations: int,
                            seed: int, horizon: int = 100) -> list:
    """Policy iteration with first-visit MC evaluation; one query = one rollout."""
    policy = policy_improve(np.zeros((mdp.num_states, mdp.num_actions)))
    v_prev = np.zeros(mdp.num_states)
    records = []
    cumulative = 0
    for k in range(iterations):
        q_mc, queries = mc_policy_evaluation(
            mdp, policy, budget, horizon=horizon, seed=child_seed(seed, 6, k))
        policy = policy_improve(q_mc)
        v_next = q_mc.max(axis=1)
        err_max, err_mean = compute_bellman_error(v_prev, v_next)
        cumulative += queries
        records.append(IterationRecord(
            iteration=k,
            bellman_error_max=err_max,
            bellman_error_mean=err_mean,
            q_variance=0.0,
            queries_iteration=queries,
            queries_cumulative=cumulative,
            policy_actions=policy.actions.copy(),
        ))
        v_prev = v_next
    return records


# ---------------------------------------------------------------------------
# Query complexity
# ---------------------------------------------------------------------------

def calibrated_query_config(iterations: int = 50, seed: int = 0) -> QPolicyConfig:
    """Study defaults for the query comparison.

    c_ae is a calibration knob: 0.04 prices one readout at epsilon = 0.01 at
    4 oracle queries, so a 4x4 grid (60 non-terminal pairs) costs 240
    queries per iteration.
    """
    return QPolicyConfig(
        epsilon=0.01,
        estimator=EstimatorConfig(mode=AE_ORACLE, epsilon=0.01, c_ae=0.04, seed=seed),
        seed=seed,
        max_iterations=iterations,
        convergence_tol=1e-12,
    )


def run_query_complexity_study(mdp: TabularMDP, qp_config: QPolicyConfig,
                               mc_budget: int = 1000, iterations: int = 50,
                               seeds: Sequence[int] = tuple(range(10)),
                               horizon: int = 100) -> list[MethodResult]:
    """Run the engine and the MC baseline for the same iteration budget."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    results = []
    for seed in seeds:
        cfg = replace(qp_config, seed=seed, max_iterations=iterations,
                      estimator=replace(qp_config.estimator, seed=seed))
        records, _ = run_qpolicy(mdp, cfg)
        results.append(MethodResult(
            method="qpolicy",
            seed=seed,
            queries_per_iteration=records[0].queries_iteration,
            total_queries=records[-1].queries_cumulative,
            final_bellman_error=records[-1].bellman_error_max,
            records=records,
        ))
        mc_records = run_mc_policy_iteration(mdp, mc_budget, iterations, seed, horizon)
        results.append(MethodResult(
            method="monte_carlo",
            seed=seed,
            queries_per_iteration=mc_budget,
            total_queries=mc_records[-1].queries_cumulative,
            final_bellman_error=mc_records[-1].bellman_error_max,
            records=mc_records,
        ))
    return results


def query_summary(results: Sequence[MethodResult]) -> dict:
    """Mean per-method queries and final error over seeds."""
    out = {}
    for method in ("qpolicy", "monte_carlo"):
        rows = [r for r in results if r.method == method]
        if not rows:
            continue
        out[method] = {
            "queries_per_iteration": float(np.mean([r.queries_per_iteration for r in rows])),
            "total_queries": float(np.mean([r.total_queries for r in rows])),
            "final_bellman_error": float(np.mean([r.final_bellman_error for r in rows])),
            "n": len(rows),
        }
    return out


def matched_accuracy_scaling(epsilons: Sequence[float], trials: int = 500,
                             seed: int = 0, c_ae: float = 1.0,
                             true_value: float = 0.5,
                             max_budget: int = 1 << 24) -> list[ScalingPoint]:
    """For each precision, the MC budget whose RMSE matches the oracle's.

    The oracle's RMSE comes from its uniform error law; the MC budget is
    grown by doubling until the empirical shot RMSE crosses below it.
    """
    points = []
    for i, eps in enumerate(sorted(epsilons, reverse=True)):
        cfg = EstimatorConfig(mode=AE_ORACLE, epsilon=eps, c_ae=c_ae)
        rng = stream(seed, 8, i)
        ae_err = rng.uniform(-eps, eps, size=trials)
        ae_rmse = float(np.sqrt(np.mean(ae_err ** 2)))
        budget = 2
        while True:
            est = rng.binomial(budget, true_value, size=trials) / budget
            mc_rmse = float(np.sqrt(np.mean((est - true_value) ** 2)))
            if mc_rmse <= ae_rmse or budget >= max_budget:
                break
            budget *= 2
        points.append(ScalingPoint(eps, ae_query_cost(cfg), ae_rmse, budget, mc_rmse))
    return points


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _cell_config(base: QPolicyConfig, *, seed: int, epsilon: float | None = None,
                 shots: int | None = None, noise_p: float | None = None,
                 iterations: int | None = None) -> QPolicyConfig:
    est = replace(
        base.estimator,
        seed=seed,
        epsilon=base.estimator.epsilon if epsilon is None else epsilon,
        shots=base.estimator.shots if shots is None else shots,
        noise=base.estimator.noise if noise_p is None else NoiseModel(noise_p),
    )
    return replace(
        base,
        seed=seed,
        estimator=est,
        epsilon=base.epsilon if epsilon is None else epsilon,
        max_iterations=base.max_iterations if iterations is None else iterations,
    )


def _run_jobs(mdp: TabularMDP, jobs: dict, max_workers: int = 1) -> dict:
    """Run independent configs, keyed; results do not depend on scheduling."""
    if max_workers <= 1:
        return {key: run_qpolicy(mdp, cfg)[0] for key, cfg in jobs.items()}
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = {key: pool.submit(run_qpolicy, mdp, cfg) for key, cfg in jobs.items()}
        return {key: fut.result()[0] for key, fut in futures.items()}


def run_ablation(mdp: TabularMDP, grid: AblationGrid, base_config: QPolicyConfig,
                 max_workers: int = 1) -> dict:
    """Full Cartesian sweep over (epsilon, shots), every cell run per seed."""
    jobs = {
        (eps, shots, seed): _cell_config(base_config, seed=seed, epsilon=eps,
                                         shots=shots, iterations=grid.iterations)
        for eps in grid.epsilons
        for shots in grid.shot_counts
        for seed in grid.seeds
    }
    done = _run_jobs(mdp, jobs, max_workers)
    out = {}
    for eps in grid.epsilons:
        for shots in grid.shot_counts:
            out[(eps, shots)] = [
                StudyRun(seed=seed, records=done[(eps, shots, seed)])
                for seed in grid.seeds
            ]
    return out


def run_noise_comparison(mdp: TabularMDP, p_values: Sequence[float],
                         config: QPolicyConfig, seeds: Sequence[int],
                         max_workers: int = 1) -> dict:
    """Run the engine at each depolarizing strength with shared seeds."""
    if 0.0 not in [float(p) for p in p_values]:
        raise ValueError("p_values must include 0 as the reference arm")
    jobs = {
        (float(p), seed): _cell_config(config, seed=seed, noise_p=float(p))
        for p in p_values
        for seed in seeds
    }
    done = _run_jobs(mdp, jobs, max_workers)
    return {
        float(p): [StudyRun(seed=seed, records=done[(float(p), seed)]) for seed in seeds]
        for p in p_values
    }


# ---------------------------------------------------------------------------
# Resource model
# ---------------------------------------------------------------------------

def estimate_resources(mdp: TabularMDP, config: QPolicyConfig, kappa: float = 1.0,
                       c_gate: float = DEFAULT_C_GATE,
                       c_overhead: float = DEFAULT_C_OVERHEAD) -> ResourceEstimate:
    """Logical-qubit and gate-count model for one run on hardware.

    qubits = ceil(log2(|S| * |A|)); the gate constants are calibration
    parameters, not derived quantities.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    pairs = mdp.num_states * mdp.num_actions
    qubits = (pairs - 1).bit_length()
    gates_update = round(c_gate * mdp.sparsity_d * kappa)
    ae_queries = ae_query_cost(EstimatorConfig(
        mode=AE_ORACLE, epsilon=config.epsilon, c_ae=config.estimator.c_ae))
    gates_iteration = round(gates_update * ae_queries * c_overhead)
    return ResourceEstimate(
        qubits=qubits,
        gates_per_bellman_update=int(gates_update),
        gates_per_iteration=int(gates_iteration),
        seconds_per_iteration_at_1khz=gates_iteration / 1000.0,
        kappa=float(kappa),
        sparsity_d=mdp.sparsity_d,
    )

"""Seeded studies: error decay, query budgets, ablations, noise, resources.

Every study is a pure function of (environment, config, seeds); paired
studies share seeds across arms so differences are attributable to the
varied factor alone. Aggregation across seeds uses Student-t confidence
intervals, which do not understate width at the small seed counts used
here.

The interval's 0.975 t-quantiles for 1 to 200 degrees of freedom come
from the committed table _T975, written with repr from
scipy.special.stdtrit, so they are its float64s bit for bit. scipy is
imported only past the table, to summarize more than 201 series
(df > 200): importing this module, or a study over fewer seeds, never
loads it.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import numpy as np

from .emulator import AE_ORACLE, SHOT_SAMPLING, EstimatorConfig, query_cost
# run_qpolicy and mc_policy_evaluation stay bound here, where
# perfbench/tracing.py hooks them
from .engine import (  # noqa: F401
    DivergenceError,
    QPolicyConfig,
    _readout_mask,
    policy_iteration_lockstep,
    run_qpolicy,
    run_qpolicy_lockstep,
)
from .mdp import Policy, TabularMDP, mc_policy_evaluation, mc_policy_evaluation_lockstep  # noqa: F401
from .rng import child_seed, stream

# Gate-count calibration: a sparsity-4 grid row costs 50 gates per Bellman
# update, and the estimation overhead lifts one read at epsilon = 0.01 to 5600.
C_GATE = 12.5
C_OVERHEAD = 1.12

_MC_HORIZON = 100  # steps per rollout of the Monte Carlo arm


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
    sparsity_d: int
    gates_per_bellman_update: int
    gates_per_read: int
    queries_per_iteration: int
    gates_per_iteration: int
    seconds_per_iteration_at_1khz: float


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
# Summaries
# ---------------------------------------------------------------------------

# scipy.special.stdtrit(df, 0.975) for df = 1, ..., 200, each written with repr
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
    1.983731002955606, 1.9834952585628793, 1.9832641447734565, 1.9830375264837259,
    1.9828152737950475, 1.9825972617655006, 1.9823833701756908, 1.982173483307727,
    1.9819674897364825, 1.981765282132372, 1.9815667570749007, 1.9813718148763053,
    1.981180359414661, 1.9809922979758567, 1.9808075411039094, 1.9806260024590894,
    1.9804475986834025, 1.980272249272974, 1.9800998764569397, 1.9799304050824402,
    1.9797637625053868, 1.9795998784866382, 1.9794386850933035, 1.9792801166048548,
    1.9791241094237977, 1.9789706019906281, 1.9788195347028539, 1.978670849837835,
    1.9785244914792577, 1.9783804054470222, 1.9782385392303798, 1.9780988419241303,
    1.9779612641677262, 1.9778257580871244, 1.9776922772392527, 1.977560776558935,
    1.9774312123081748, 1.9773035420276506, 1.977177724490333, 1.9770537196570985,
    1.9769314886342528, 1.9768109936328597, 1.976692197929798, 1.9765750658304433,
    1.9764595626329178, 1.9763456545938125, 1.976233308895327, 1.9761224936137445,
    1.976013177689192, 1.9759053308966201, 1.9757989238179392, 1.97569392781527,
    1.9755903150052492, 1.9754880582343404, 1.9753871310551152, 1.9752875077034489,
    1.9751891630765912, 1.9750920727120844, 1.9749962127674756, 1.9749015600007986,
    1.974808091751787, 1.974715785923791, 1.974624620966361, 1.9745345758584756,
    1.9744456300923825, 1.9743577636580294, 1.9742709570280557, 1.9741851911433248,
    1.9741004473989765, 1.9740167076309703, 1.973933954103107, 1.9738521694945061,
    1.973771336887522, 1.9736914397560734, 1.9736124619543842, 1.9735343877061042,
    1.9734572015938032, 1.9733808885488238, 1.9733054338414737, 1.9732308230715456,
    1.9731570421591593, 1.973084077335903, 1.973011915136267, 1.9729405423893598,
    1.9728699462108963, 1.9728001139954416, 1.9727310334089099, 1.9726626923813002,
    1.9725950790996682, 1.972528182001318, 1.972461989767211, 1.9723964913155805,
    1.9723316757957499, 1.9722675325821355, 1.9722040512684433, 1.9721412216620415,
    1.9720790337785026, 1.9720174778363146, 1.9719565442517533, 1.9718962236339088,
)


def _t975(df: int) -> float:
    """0.975 quantile of Student's t with df degrees of freedom."""
    if df <= len(_T975):
        return _T975[df - 1]
    # imported here, past the table only, to keep scipy off the import path
    from scipy.special import stdtrit
    return float(stdtrit(df, 0.975))


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
    half = _t975(n - 1) * std / math.sqrt(n)
    return [
        SummaryStats(float(m), float(s), float(m - h), float(m + h), n)
        for m, s, h in zip(mean, std, half)
    ]


# ---------------------------------------------------------------------------
# Monte Carlo baseline arm
# ---------------------------------------------------------------------------

def run_mc_policy_iteration(mdp: TabularMDP, budget: int, iterations: int,
                            seeds: Sequence[int]) -> list[list]:
    """Policy iteration with first-visit MC evaluation, one run per seed, for
    the given number of iterations (no convergence tolerance stops it early);
    one query = one rollout of _MC_HORIZON steps. Its evaluation
    step in policy_iteration_lockstep makes one lockstep sampler call for
    every seed's policy; seed i's at iteration k draws from
    child_seed(seeds[i], 6, k) alone. Estimates that are not finite (the
    returns overflowed) raise DivergenceError naming the iteration and the
    first such seed."""
    def evaluate(k, q, actions, active):
        tables = mc_policy_evaluation_lockstep(
            mdp, [Policy(a) for a in actions], budget, _MC_HORIZON,
            [child_seed(seeds[i], 6, k) for i in active])
        bad = np.flatnonzero(~np.isfinite(tables).all(axis=(1, 2)))
        if bad.size:
            raise DivergenceError(f"iteration {k}: the Monte Carlo estimates of seed "
                                  f"{seeds[active[bad[0]]]} are not finite")
        return tables, [budget] * len(active), [0.0] * len(active)

    runs = policy_iteration_lockstep(mdp, [(iterations, 0.0)] * len(seeds), evaluate)
    return [records for records, _ in runs]


# ---------------------------------------------------------------------------
# Query complexity
# ---------------------------------------------------------------------------

def calibrated_query_config() -> QPolicyConfig:
    """Study defaults for the query comparison: 50 iterations at seed 0,
    which QPolicyConfig.with_settings changes.

    c_ae is a calibration knob: 0.04 prices one readout at epsilon = 0.01 at
    4 oracle queries, so a 4x4 grid (60 non-terminal pairs) costs 240
    queries per iteration.
    """
    return QPolicyConfig(
        estimator=EstimatorConfig(mode=AE_ORACLE, epsilon=0.01, c_ae=0.04),
        max_iterations=50,
        convergence_tol=1e-12,
    )


def run_query_complexity_study(mdp: TabularMDP, qp_config: QPolicyConfig, mc_budget: int,
                               seeds: Sequence[int]) -> list[MethodResult]:
    """Run the engine and the MC baseline at each seed; each arm steps every
    seed's run in lockstep (run_qpolicy_lockstep, run_mc_policy_iteration).
    The engine arm stops at qp_config.max_iterations or once a run's table
    moves less than qp_config.convergence_tol; the MC arm always runs
    qp_config.max_iterations iterations."""
    mc_runs = run_mc_policy_iteration(mdp, mc_budget, qp_config.max_iterations, seeds)
    engine_runs = run_qpolicy_lockstep(mdp, [qp_config.with_settings(seed) for seed in seeds])
    results = []
    for seed, (engine_records, _), mc_records in zip(seeds, engine_runs, mc_runs):
        for method, records in (("qpolicy", engine_records), ("monte_carlo", mc_records)):
            results.append(MethodResult(
                method=method,
                seed=seed,
                queries_per_iteration=records[0].queries_iteration,
                total_queries=records[-1].queries_cumulative,
                final_bellman_error=records[-1].bellman_error_max,
                records=records,
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


def matched_accuracy_scaling(epsilons: Sequence[float], seed: int) -> list[ScalingPoint]:
    """For each precision, the MC budget whose RMSE matches the oracle's.

    Both RMSEs are taken over 500 trials of reading the value 0.5. The
    oracle's RMSE comes from its uniform error law, and it is priced at
    c_ae = 1; the MC budget is doubled from 2 until the empirical shot RMSE
    crosses below the oracle's, or the budget reaches 2**24.
    """
    trials, true_value, max_budget = 500, 0.5, 1 << 24
    points = []
    for i, eps in enumerate(sorted(epsilons, reverse=True)):
        cfg = EstimatorConfig(mode=AE_ORACLE, epsilon=eps, c_ae=1.0)
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
        points.append(ScalingPoint(eps, query_cost(cfg), ae_rmse, budget, mc_rmse))
    return points


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _run_jobs(mdp: TabularMDP, jobs: dict) -> dict:
    """Run keyed configs; keys whose configs differ only in fields their
    estimator's mode ignores (EstimatorConfig.effective) share one run, and
    the distinct runs go through one run_qpolicy_lockstep call."""
    effective = {key: astuple(replace(cfg, estimator=cfg.estimator.effective()))
                 for key, cfg in jobs.items()}
    distinct = {}  # effective config -> the first config that has it
    for key, cfg in jobs.items():
        distinct.setdefault(effective[key], cfg)
    results = run_qpolicy_lockstep(mdp, list(distinct.values()))
    runs = {eff: records for eff, (records, _) in zip(distinct, results)}
    return {key: runs[effective[key]] for key in jobs}


def _sweep(mdp: TabularMDP, config: QPolicyConfig, cells: dict, seeds: Sequence[int]) -> dict:
    """cell -> one StudyRun per seed of config.with_settings(seed, **settings),
    with the cell's settings; every run goes through one _run_jobs call."""
    done = _run_jobs(mdp, {(cell, seed): config.with_settings(seed, **settings)
                           for cell, settings in cells.items() for seed in seeds})
    return {cell: [StudyRun(seed=seed, records=done[(cell, seed)]) for seed in seeds]
            for cell in cells}


def run_ablation(mdp: TabularMDP, epsilons: Sequence[float], shot_counts: Sequence[int],
                 config: QPolicyConfig, seeds: Sequence[int]) -> dict:
    """Full Cartesian sweep over (epsilon, shots) and seeds, each run for
    config.max_iterations iterations. Cells with one effective config share
    one run's records list: shot mode never reads epsilon, ae_oracle mode
    never reads shots (EstimatorConfig.effective)."""
    if not epsilons or not shot_counts or not seeds:
        raise ValueError("epsilons, shot counts and seeds must be nonempty")
    # checked here: an ae_oracle estimator takes any shot count
    if any(s <= 0 for s in shot_counts):
        raise ValueError("shot counts must be positive")
    return _sweep(mdp, config, {(eps, shots): {"epsilon": eps, "shots": shots}
                                for eps in epsilons for shots in shot_counts}, seeds)


def run_noise_comparison(mdp: TabularMDP, p_values: Sequence[float],
                         config: QPolicyConfig, seeds: Sequence[int]) -> dict:
    """Run the engine at each depolarizing strength with shared seeds."""
    if 0.0 not in [float(p) for p in p_values]:
        raise ValueError("p_values must include 0 as the reference arm")
    return _sweep(mdp, config, {float(p): {"noise_p": float(p)} for p in p_values}, seeds)


# ---------------------------------------------------------------------------
# Resource model
# ---------------------------------------------------------------------------

def estimate_resources(mdp: TabularMDP, config: QPolicyConfig) -> ResourceEstimate:
    """Logical qubits and gates of one engine iteration on hardware.

    qubits = ceil(log2(|S| * |A|)), the index register alone. An iteration
    reads what the engine reads (engine._readout_mask: each pair of a
    non-terminal state) at query_cost(config.estimator) a read, so
    queries_per_iteration is the queries_iteration of a run's iteration
    whose targets are not constant. An iteration whose targets are constant
    (every reward 0, say) reads nothing and is charged 0. A Bellman update
    costs round(C_GATE * d) gates at sparsity d, and each query that many
    times C_OVERHEAD; both constants are calibrations, not derived.
    """
    per_read = query_cost(config.estimator)
    queries = int(_readout_mask(mdp).sum()) * per_read
    gates_update = round(C_GATE * mdp.sparsity_d)
    try:
        gates_read = round(gates_update * per_read * C_OVERHEAD)
        gates_iteration = round(gates_update * queries * C_OVERHEAD)
    except OverflowError:  # round(inf), or an int past the float range
        est = config.estimator
        setting = (f"shots {est.shots!r}" if est.mode == SHOT_SAMPLING
                   else f"c_ae {est.c_ae!r} and epsilon {est.epsilon!r}")
        raise ValueError(f"the gate count overflows the float range at {setting}") from None
    return ResourceEstimate(
        qubits=(mdp.num_states * mdp.num_actions - 1).bit_length(),
        sparsity_d=mdp.sparsity_d,
        gates_per_bellman_update=gates_update,
        gates_per_read=gates_read,
        queries_per_iteration=queries,
        gates_per_iteration=gates_iteration,
        seconds_per_iteration_at_1khz=gates_iteration / 1000.0,
    )

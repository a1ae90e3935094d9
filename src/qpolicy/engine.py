"""Policy iteration with emulated quantum readout.

Each iteration computes exact one-step backup targets from the model (the
action the Bellman unitary would implement), maps the target table affinely
into [0, 1], reads every entry back once through the configured estimator,
and improves the policy greedily on the read-out table. Iteration k backs
q_k up under its own greedy policy, which makes the target T* q_k (up to
the 1e-9 tie tolerance of greedy_actions): the loop is value iteration with
read-out backups. Each read lies in [0, 1], so the read-out table stays
within the hull of its targets and hence within the reward bound over
1 - gamma; a run whose table leaves that bound stops with DivergenceError.
Query accounting covers every estimator invocation; rows whose targets are
known exactly (terminal states pinned at zero) are skipped at zero cost.
The reported readout variance is the estimator's expected variance, in
closed form. run_qpolicy_lockstep steps several runs through one loop,
each run's records the same as if it ran alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .emulator import (
    AE_ORACLE,
    EstimatorConfig,
    NoiseModel,
    ae_query_cost,
    amplitude_encode,
    readout_batch,
    readout_variance,
    shift_for_encoding,
)
# bellman_backup stays bound here, where perfbench/tracing.py hooks it
from .mdp import (  # noqa: F401
    Policy,
    QTable,
    TabularMDP,
    bellman_backup,
    exact_policy_evaluation,
    greedy_actions,
    policy_values,
    value_iteration,
)
from .rng import stream

# Stream key of the readout draws; other consumers use other keys, so draws
# are order independent.
_READOUT = 1


# Relative slack of the reward-bound check, for the rounding of
# lo + span * read at the ends of the bound.
_BOUND_RTOL = 1e-9


class DivergenceError(RuntimeError):
    """An iteration's backup targets left the finite float range, or its
    read-out table left the reward bound over 1 - gamma."""


@dataclass
class QPolicyConfig:
    """Knobs for one policy-iteration run.

    epsilon is only the precision of the default estimator, made when none
    is supplied; nothing else reads it, so an explicit estimator's epsilon
    is the one that counts. The discount is the MDP's (TabularMDP.with_gamma
    gives a model at another one).
    """

    epsilon: float = 0.01
    estimator: EstimatorConfig | None = None
    max_iterations: int = 100
    convergence_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.estimator is None:
            self.estimator = EstimatorConfig(
                mode=AE_ORACLE, epsilon=self.epsilon, seed=self.seed
            )

    def effective(self) -> "QPolicyConfig":
        """This config with the fields run_qpolicy never reads reset: epsilon,
        and the estimator fields its mode ignores (EstimatorConfig.effective)."""
        return replace(self, epsilon=QPolicyConfig.epsilon,
                       estimator=self.estimator.effective())

    def with_settings(self, seed: int, *, mode=None, shots=None, epsilon=None, c_ae=None,
                      noise_p=None, iters=None, tol=None) -> "QPolicyConfig":
        """This config at seed, with each setting that is not None applied,
        under the command line's names: mode, shots, c_ae and noise_p set the
        estimator, epsilon both the estimator and this config, iters
        max_iterations and tol convergence_tol. Raises ValueError for a value
        the config or its estimator rejects."""
        given = {"mode": mode, "shots": shots, "epsilon": epsilon, "c_ae": c_ae,
                 "noise": None if noise_p is None else NoiseModel(noise_p)}
        own = {"epsilon": epsilon, "max_iterations": iters, "convergence_tol": tol}
        estimator = replace(self.estimator, seed=seed,
                            **{k: v for k, v in given.items() if v is not None})
        return replace(self, seed=seed, estimator=estimator,
                       **{k: v for k, v in own.items() if v is not None})


@dataclass
class IterationRecord:
    """Per-iteration metrics of a run."""

    iteration: int
    bellman_error_max: float
    bellman_error_mean: float
    q_variance: float
    queries_iteration: int
    queries_cumulative: int


# ---------------------------------------------------------------------------
# Encoding the table
# ---------------------------------------------------------------------------

def encode_qtable(q: QTable):
    """Flatten row by row (entry (s, a) at s * A + a), min-shift and
    amplitude encode; real(amplitudes[:q.size]) * scale + offset inverts it.

    Returns (state, scale, offset). A constant table has no normalized
    encoding; it is flagged with state=None, scale=0 and handled classically
    downstream (the offset is the exact answer, at zero query cost).
    """
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("q table must be finite")
    shifted, offset = shift_for_encoding(q.reshape(-1))
    if not shifted.any():
        return None, 0.0, offset
    state, scale, _ = amplitude_encode(shifted)
    return state, scale, offset


# ---------------------------------------------------------------------------
# Quantum-emulated Bellman evaluation
# ---------------------------------------------------------------------------

def _value_bound(mdp: TabularMDP) -> tuple[float, float]:
    """[min(r_min, 0), max(r_max, 0)] / (1 - gamma).

    Every Q_pi lies within it, and so does every table of a run from q = 0
    whose reads stay in the hull of their targets, since the backup maps
    the interval into itself. The 0 only matters for an MDP without a
    terminal state, whose rewards may all have one sign.
    """
    scale = 1.0 / (1.0 - mdp.gamma)
    return (min(float(mdp.rewards.min()), 0.0) * scale,
            max(float(mdp.rewards.max()), 0.0) * scale)


def _readout_mask(mdp: TabularMDP) -> np.ndarray:
    """Flat boolean mask of (s, a) entries that go through the estimator:
    all but the terminal rows, whose targets are exactly 0."""
    mask = np.ones((mdp.num_states, mdp.num_actions), dtype=bool)
    if mdp.terminal_states:
        mask[sorted(mdp.terminal_states), :] = False
    return mask.reshape(-1)


def _read_out(targets: np.ndarray, mask: np.ndarray, estimators, rngs,
              iteration: int, seeds):
    """Read each member's masked target entries out once; returns (q_tilde,
    queries, q_variance), a table and two figures per member.

    targets is (members, S, A), with one estimator, rng and seed per member.
    Each member's table is mapped affinely onto [0, 1] by its own min and
    span and read through its own readout_batch call. Entries outside the
    mask keep their exact targets at zero cost, as does a member whose
    targets are constant. q_variance is the expected variance of one readout
    of q_tilde, averaged over all (s, a) entries, unmasked ones counting
    zero. A target that is not finite, or a span that overflows, leaves the
    map without meaning: that raises DivergenceError naming the iteration
    and the member's seed.
    """
    flat = targets.reshape(len(targets), -1)
    lo = flat.min(axis=1)
    span = flat.max(axis=1) - lo
    bad = np.flatnonzero(~np.isfinite(span))
    if bad.size:
        i = bad[0]
        raise DivergenceError(
            f"iteration {iteration}: the backup targets of seed {seeds[i]} are not "
            f"finite or span more than the float range (min {float(lo[i])!r}, "
            f"span {float(span[i])!r})")
    q_tilde = flat.copy()
    queries, q_variance = [0] * len(flat), [0.0] * len(flat)
    rows = np.flatnonzero(span > 0.0)
    if rows.size:
        # one boolean index over the whole batch: the read entries of the
        # members whose targets are not constant, row by row
        read = mask & (span > 0.0)[:, None]
        lo_r, span_r = lo[rows, None], span[rows, None]
        values = (flat[read].reshape(rows.size, -1) - lo_r) / span_r
        reads = np.empty_like(values)
        for j, i in enumerate(rows):
            reads[j] = readout_batch(values[j], estimators[i], rngs[i])
            queries[i] = values.shape[1] * ae_query_cost(estimators[i])
            # span * (span * v) keeps q_variance 0, not inf * 0, when every
            # read is exact and span * span overflows
            s = float(span[i])
            q_variance[i] = s * (s * float(readout_variance(values[j], estimators[i]).sum())
                                 / mask.size)
        q_tilde[read] = (lo_r + span_r * reads).reshape(-1)
    return q_tilde.reshape(targets.shape), queries, q_variance


def policy_improve(q: QTable) -> Policy:
    """Greedy deterministic policy; ties broken by lowest action index."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("q table must be finite")
    return Policy(greedy_actions(q))


# ---------------------------------------------------------------------------
# The iteration loop
# ---------------------------------------------------------------------------

def run_qpolicy(mdp: TabularMDP, config: QPolicyConfig):
    """Execute up to K iterations; returns (records, final_policy).

    Iteration k backs up the table under its greedy policy, reads the
    targets out from the readout stream of key k and improves greedily on
    the read-out table. Stops early when max |q_tilde - q| drops below
    convergence_tol. Bellman error is tracked as max/mean of
    |V_{k+1} - V_k| with V the greedy value of the table.
    Raises DivergenceError when an iteration's backup targets leave the
    finite float range or its read-out table leaves the reward bound. This
    is the one-member call of run_qpolicy_lockstep.
    """
    return run_qpolicy_lockstep(mdp, [config])[0]


def run_qpolicy_lockstep(mdp: TabularMDP, configs) -> list:
    """run_qpolicy for several configs in one loop; returns one (records,
    final_policy) per config, in order.

    Member i's records and policy are those of run_qpolicy(mdp, configs[i])
    bit for bit, whatever runs beside it: it reads out from its own
    stream(seed, _READOUT, k) through its own readout_batch call, and it
    leaves the batch at its own max_iterations or convergence_tol. Each
    iteration makes the backup, the normalisation, the bound check and the
    greedy improvement once over the (members, S, A) batch. Every member
    runs at the MDP's discount; a DivergenceError names the member's seed.
    """
    configs = list(configs)
    if not configs:
        return []
    mask = _readout_mask(mdp)
    lo, hi = _value_bound(mdp)
    slack = _BOUND_RTOL * max(-lo, hi)

    active = list(range(len(configs)))  # the member of each batch row
    q = np.zeros((len(configs), mdp.num_states, mdp.num_actions))
    v = q.max(axis=2)
    actions = greedy_actions(q)
    records: list[list[IterationRecord]] = [[] for _ in configs]
    policies: list[Policy | None] = [None] * len(configs)
    cumulative = [0] * len(configs)

    # tables near the float limit read inf in the bookkeeping below; a
    # diverging run is reported by DivergenceError alone
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max(c.max_iterations for c in configs)):
            members = [configs[i] for i in active]
            seeds = [c.seed for c in members]
            on_policy = np.take_along_axis(q, actions[:, :, None], axis=2)[:, :, 0]
            targets = mdp.rewards + mdp.gamma * mdp.expect(on_policy)
            q_tilde, queries, q_vars = _read_out(
                targets, mask, [c.estimator for c in members],
                [stream(seed, _READOUT, k) for seed in seeds], k, seeds)
            v_next = q_tilde.max(axis=2)
            q_min = q_tilde.reshape(len(members), -1).min(axis=1)
            q_max = v_next.max(axis=1)
            out = np.flatnonzero(~((q_min >= lo - slack) & (q_max <= hi + slack)))
            if out.size:
                j = out[0]
                raise DivergenceError(
                    f"iteration {k}: the read-out table of seed {seeds[j]} spans "
                    f"[{float(q_min[j])!r}, {float(q_max[j])!r}], outside the reward "
                    f"bound [{lo!r}, {hi!r}]")
            actions = greedy_actions(q_tilde)

            diff = np.abs(v_next - v)
            err_max, err_mean = diff.max(axis=1).tolist(), diff.mean(axis=1).tolist()
            shift = np.abs(q_tilde - q).reshape(len(members), -1).max(axis=1).tolist()
            stay = []
            for j, (i, config) in enumerate(zip(active, members)):
                cumulative[i] += queries[j]
                records[i].append(IterationRecord(
                    iteration=k,
                    bellman_error_max=err_max[j],
                    bellman_error_mean=err_mean[j],
                    q_variance=q_vars[j],
                    queries_iteration=queries[j],
                    queries_cumulative=cumulative[i],
                ))
                if shift[j] < config.convergence_tol or k + 1 == config.max_iterations:
                    policies[i] = Policy(actions[j].copy())
                else:
                    stay.append(j)
            q, v = q_tilde, v_next
            if len(stay) < len(active):
                if not stay:
                    break
                active = [active[j] for j in stay]
                q, v, actions = q[stay], v[stay], actions[stay]
    return list(zip(records, policies))


# ---------------------------------------------------------------------------
# Empirical checks of the stability and convergence bounds
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    trials: int
    violations: int
    bound: float
    max_value_change: float
    epsilon_k: float


@dataclass
class ConvergenceReport:
    iterations: int
    epsilon: float
    bound: float
    bound_small_gamma: float  # alternative (1 - 3 gamma) form, inf for gamma >= 1/3
    gap: float
    holds: bool


def _exact_values(mdp: TabularMDP, policy: Policy, cache: dict, tol: float = 1e-10):
    key = policy.actions.tobytes()
    if key not in cache:
        q = exact_policy_evaluation(mdp, policy, tol)
        cache[key] = policy_values(mdp, policy, q)
    return cache[key]


def verify_stability(mdp: TabularMDP, policy: Policy, epsilon_k: float,
                     trials: int = 100, seed: int = 0) -> StabilityReport:
    """Perturb exact Q_pi by noise bounded by epsilon_k, improve greedily,
    and check ||V_pi' - V_pi||_inf <= 2 gamma epsilon_k / (1 - gamma)."""
    if epsilon_k < 0:
        raise ValueError("epsilon_k must be nonnegative")
    q_exact = exact_policy_evaluation(mdp, policy, 1e-10)
    v_base = policy_values(mdp, policy, q_exact)
    bound = 2.0 * mdp.gamma * epsilon_k / (1.0 - mdp.gamma)
    cache: dict = {}
    violations = 0
    worst = 0.0
    for t in range(trials):
        noise = stream(seed, 4, t).uniform(-epsilon_k, epsilon_k, size=q_exact.shape)
        improved = policy_improve(q_exact + noise)
        v_new = _exact_values(mdp, improved, cache)
        gap = float(np.max(np.abs(v_new - v_base)))
        worst = max(worst, gap)
        if gap > bound + 1e-9:
            violations += 1
    return StabilityReport(trials, violations, bound, worst, epsilon_k)


def verify_convergence_bound(mdp: TabularMDP, epsilon: float, seed: int = 0) -> ConvergenceReport:
    """Approximate policy iteration with injected evaluation error <= epsilon
    for K = ceil(log(1/epsilon) / (1 - gamma)) iterations, compared against
    the optimal values; checks gap <= 2 gamma epsilon / (1 - gamma)^2."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    gamma = mdp.gamma
    if epsilon > 0:
        k_total = math.ceil(math.log(1.0 / epsilon) / (1.0 - gamma))
    else:
        k_total = 1000  # exact policy iteration reaches a fixed policy long before this
    policy = policy_improve(np.zeros((mdp.num_states, mdp.num_actions)))
    for k in range(k_total):
        q = exact_policy_evaluation(mdp, policy, 1e-10)
        if epsilon > 0:
            q = q + stream(seed, 5, k).uniform(-epsilon, epsilon, size=q.shape)
        new_policy = policy_improve(q)
        if epsilon == 0 and new_policy == policy:
            break
        policy = new_policy
    q_star, _ = value_iteration(mdp, 1e-10)
    v_star = q_star.max(axis=1)
    v_pik = policy_values(mdp, policy, exact_policy_evaluation(mdp, policy, 1e-10))
    gap = float(np.max(np.abs(v_star - v_pik)))
    bound = 2.0 * gamma * epsilon / (1.0 - gamma) ** 2
    small = 2.0 * epsilon / (1.0 - 3.0 * gamma) if gamma < 1.0 / 3.0 else math.inf
    return ConvergenceReport(k_total, epsilon, bound, small, gap, gap <= bound + 1e-9)

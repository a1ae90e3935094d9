"""Policy iteration with emulated quantum readout.

Each iteration computes exact one-step backup targets from the model (the
action the Bellman unitary would implement), maps the target table affinely
into [0, 1], reads every entry back once through the configured estimator,
and improves the policy greedily on the read-out table. Each read lies in
[0, 1], so the read-out table stays within the hull of its targets and
hence within the reward bound over 1 - gamma; a run whose table leaves that
bound stops with DivergenceError. Query accounting covers every
estimator invocation; rows whose targets are known exactly (terminal states
pinned at zero) can be skipped at zero cost. The reported readout variance
is the estimator's expected variance, in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .emulator import (
    AE_ORACLE,
    EstimatorConfig,
    StateVector,
    ae_query_cost,
    amplitude_encode,
    decode_amplitudes,
    readout_batch,
    readout_variance,
    shift_for_encoding,
)
from .mdp import (
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


@dataclass(frozen=True)
class IndexMap:
    """Bijection between (s, a) pairs and flat indices idx = s * A + a."""

    num_states: int
    num_actions: int

    @property
    def size(self) -> int:
        return self.num_states * self.num_actions

    def flat(self, s: int, a: int) -> int:
        if not (0 <= s < self.num_states and 0 <= a < self.num_actions):
            raise ValueError(f"({s}, {a}) outside the index map")
        return s * self.num_actions + a

    def pair(self, idx: int) -> tuple[int, int]:
        if not 0 <= idx < self.size:
            raise ValueError(f"flat index {idx} outside the index map")
        return divmod(idx, self.num_actions)


@dataclass
class QPolicyConfig:
    """Knobs for one policy-iteration run.

    epsilon mirrors into the default estimator when none is supplied; an
    explicit estimator wins. gamma, when set, overrides the MDP discount.
    """

    epsilon: float = 0.01
    estimator: EstimatorConfig | None = None
    max_iterations: int = 100
    convergence_tol: float = 1e-8
    gamma: float | None = None
    seed: int = 0
    skip_terminal_rows: bool = True

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.gamma is not None and not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma override must lie in [0, 1)")
        if self.estimator is None:
            self.estimator = EstimatorConfig(
                mode=AE_ORACLE, epsilon=self.epsilon, seed=self.seed
            )

    def effective(self) -> "QPolicyConfig":
        """This config with the fields run_qpolicy never reads reset: epsilon,
        and the estimator fields its mode ignores (EstimatorConfig.effective)."""
        return replace(self, epsilon=QPolicyConfig.epsilon,
                       estimator=self.estimator.effective())

    @classmethod
    def exact(cls, seed: int = 0, **kwargs) -> "QPolicyConfig":
        """Noise-free limit: additive-oracle readout at epsilon = 1e-12."""
        est = EstimatorConfig(mode=AE_ORACLE, epsilon=1e-12, seed=seed)
        kwargs.setdefault("epsilon", 1e-12)
        return cls(estimator=est, seed=seed, **kwargs)


@dataclass
class IterationRecord:
    """Per-iteration metrics of a run."""

    iteration: int
    bellman_error_max: float
    bellman_error_mean: float
    q_variance: float
    queries_iteration: int
    queries_cumulative: int
    policy_actions: np.ndarray


# ---------------------------------------------------------------------------
# Encoding the table
# ---------------------------------------------------------------------------

def encode_qtable(q: QTable, index_map: IndexMap):
    """Flatten by idx(s, a), min-shift, amplitude encode.

    Returns (state, scale, offset). A constant table has no normalized
    encoding; it is flagged with state=None, scale=0 and handled classically
    downstream (the offset is the exact answer, at zero query cost).
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (index_map.num_states, index_map.num_actions):
        raise ValueError("q table shape does not match the index map")
    if not np.all(np.isfinite(q)):
        raise ValueError("q table must be finite")
    shifted, offset = shift_for_encoding(q.reshape(-1))
    if not shifted.any():
        return None, 0.0, offset
    state, scale, _ = amplitude_encode(shifted)
    return state, scale, offset


def decode_qtable(state: StateVector | None, scale: float, offset: float,
                  index_map: IndexMap) -> QTable:
    """Invert encode_qtable back to a dense (S, A) table."""
    if state is None:
        return np.full((index_map.num_states, index_map.num_actions), offset)
    flat = decode_amplitudes(state, scale, offset, index_map.size)
    return flat.reshape(index_map.num_states, index_map.num_actions)


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


def _readout_mask(mdp: TabularMDP, skip_terminal: bool) -> np.ndarray:
    """Flat boolean mask of (s, a) entries that go through the estimator."""
    mask = np.ones((mdp.num_states, mdp.num_actions), dtype=bool)
    if skip_terminal and mdp.terminal_states:
        mask[sorted(mdp.terminal_states), :] = False
    return mask.reshape(-1)


def _normalize_targets(targets: QTable, iteration: int):
    """Affine map of the target table onto [0, 1] plus its span.

    A target that is not finite, or a span that overflows, leaves the map
    without meaning: that raises DivergenceError naming the iteration.
    """
    lo = float(targets.min())
    span = float(targets.max()) - lo
    if not math.isfinite(span):
        raise DivergenceError(
            f"iteration {iteration}: backup targets are not finite or span more "
            f"than the float range (min {lo!r}, span {span!r})")
    if span == 0.0:
        return None, lo, 0.0
    return (targets.reshape(-1) - lo) / span, lo, span


def _read_out(targets: QTable, mask: np.ndarray, estimator: EstimatorConfig,
              rng: np.random.Generator, iteration: int = 0):
    """Read the masked target entries out once; returns (q_tilde, queries,
    q_variance).

    Entries outside the mask keep their exact targets at zero cost.
    q_variance is the expected variance of one readout of q_tilde, averaged
    over all (s, a) entries, unmasked ones counting zero. A lone update
    counts as iteration 0, the readout stream key it draws from by default.
    """
    normalized, lo, span = _normalize_targets(targets, iteration)
    if normalized is None:
        return targets.copy(), 0, 0.0
    values = normalized[mask]
    flat = targets.reshape(-1).copy()
    flat[mask] = lo + span * readout_batch(values, estimator, rng)
    queries = int(mask.sum()) * ae_query_cost(estimator)
    # span * (span * v) keeps q_variance 0, not inf * 0, when every read
    # is exact and span * span overflows
    q_variance = span * (span * float(readout_variance(values, estimator).sum()) / mask.size)
    return flat.reshape(targets.shape), queries, q_variance


def quantum_bellman_update(mdp: TabularMDP, q: QTable, policy: Policy,
                           config: QPolicyConfig,
                           rng: np.random.Generator | None = None):
    """One emulated Bellman evaluation; returns (q_tilde, queries).

    Targets t(s,a) = r + gamma * P V_pi are computed exactly from the model,
    normalized into [0, 1], read out entrywise under config.estimator, and
    mapped back. In ae_oracle mode the result satisfies
    ||q_tilde - T_pi q||_inf <= epsilon * span(targets).
    """
    if config.gamma is not None:
        mdp = mdp.with_gamma(config.gamma)
    if rng is None:
        rng = stream(config.seed, _READOUT, 0)
    targets = bellman_backup(mdp, q, policy)
    mask = _readout_mask(mdp, config.skip_terminal_rows)
    q_tilde, queries, _ = _read_out(targets, mask, config.estimator, rng)
    return q_tilde, queries


def policy_improve(q: QTable) -> Policy:
    """Greedy deterministic policy; ties broken by lowest action index."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("q table must be finite")
    return Policy.deterministic(greedy_actions(q))


# ---------------------------------------------------------------------------
# The iteration loop
# ---------------------------------------------------------------------------

def run_qpolicy(mdp: TabularMDP, config: QPolicyConfig):
    """Execute up to K iterations; returns (records, final_policy).

    Iteration k is quantum_bellman_update with the readout stream of key k,
    followed by greedy improvement. Stops early when max |q_tilde - q| drops
    below convergence_tol. Bellman error is tracked as max/mean of
    |V_{k+1} - V_k| with V the greedy value of the table. Raises
    DivergenceError when an iteration's backup targets leave the finite
    float range or its read-out table leaves the reward bound.
    """
    mdp_eff = mdp.with_gamma(config.gamma) if config.gamma is not None else mdp
    q = np.zeros((mdp_eff.num_states, mdp_eff.num_actions))
    policy = policy_improve(q)
    records: list[IterationRecord] = []
    cumulative = 0
    mask = _readout_mask(mdp_eff, config.skip_terminal_rows)
    lo, hi = _value_bound(mdp_eff)
    slack = _BOUND_RTOL * max(-lo, hi)

    # tables near the float limit read inf in the bookkeeping below; a
    # diverging run is reported by DivergenceError alone
    with np.errstate(over="ignore"):
        for k in range(config.max_iterations):
            targets = bellman_backup(mdp_eff, q, policy)
            q_tilde, queries, q_var = _read_out(
                targets, mask, config.estimator, stream(config.seed, _READOUT, k), k)
            v_next = q_tilde.max(axis=1)
            q_min, q_max = float(q_tilde.min()), float(v_next.max())
            if q_min < lo - slack or q_max > hi + slack:
                raise DivergenceError(
                    f"iteration {k}: the read-out table spans [{q_min!r}, {q_max!r}], "
                    f"outside the reward bound [{lo!r}, {hi!r}]")
            policy = policy_improve(q_tilde)

            diff = np.abs(v_next - q.max(axis=1))
            cumulative += queries
            records.append(IterationRecord(
                iteration=k,
                bellman_error_max=float(diff.max()),
                bellman_error_mean=float(diff.mean()),
                q_variance=q_var,
                queries_iteration=queries,
                queries_cumulative=cumulative,
                policy_actions=policy.actions.copy(),
            ))
            table_shift = float(np.max(np.abs(q_tilde - q)))
            q = q_tilde
            if table_shift < config.convergence_tol:
                break
    return records, policy


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


def verify_convergence_bound(mdp: TabularMDP, epsilon: float, seed: int = 0,
                             iterations: int | None = None) -> ConvergenceReport:
    """Approximate policy iteration with injected evaluation error <= epsilon
    for K = ceil(log(1/epsilon) / (1 - gamma)) iterations, compared against
    the optimal values; checks gap <= 2 gamma epsilon / (1 - gamma)^2."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    gamma = mdp.gamma
    if iterations is not None:
        k_total = iterations
    elif epsilon > 0:
        k_total = math.ceil(math.log(1.0 / epsilon) / (1.0 - gamma))
    else:
        k_total = 1000  # exact policy iteration reaches a fixed policy long before this
    policy = policy_improve(np.zeros((mdp.num_states, mdp.num_actions)))
    for k in range(k_total):
        q = exact_policy_evaluation(mdp, policy, 1e-10)
        if epsilon > 0:
            q = q + stream(seed, 5, k).uniform(-epsilon, epsilon, size=q.shape)
        new_policy = policy_improve(q)
        if epsilon == 0 and np.array_equal(new_policy.actions, policy.actions):
            policy = new_policy
            break
        policy = new_policy
    q_star, _ = value_iteration(mdp, 1e-10)
    v_star = q_star.max(axis=1)
    v_pik = policy_values(mdp, policy, exact_policy_evaluation(mdp, policy, 1e-10))
    gap = float(np.max(np.abs(v_star - v_pik)))
    bound = 2.0 * gamma * epsilon / (1.0 - gamma) ** 2
    small = 2.0 * epsilon / (1.0 - 3.0 * gamma) if gamma < 1.0 / 3.0 else math.inf
    return ConvergenceReport(k_total, epsilon, bound, small, gap, gap <= bound + 1e-9)

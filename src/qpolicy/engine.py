"""Policy iteration with emulated quantum readout.

policy_iteration_lockstep is the one policy-iteration loop. It steps
several runs from q = 0, improves each greedily, keeps their records and
stop rules, and takes the evaluation step as a function: the engine's and
the Monte Carlo arm's (experiments.run_mc_policy_iteration) differ only
there. The engine's step computes exact one-step backup targets from the
model (the action the Bellman unitary would implement), maps the target
table affinely into [0, 1] and reads every entry back once through the
run's estimator. Iteration k backs q_k up under its own greedy policy,
which makes the target T* q_k (up to the 1e-9 tie tolerance of
greedy): the engine is value iteration with read-out backups.
An ae_oracle read at the estimator's epsilon and noise_p = p lies within
epsilon + 2p/3 of its target mapped into [0, 1], so with span_k the span
of iteration k's targets every run obeys the noisy value-iteration
recursion ||q_{k+1} - Q*|| <= gamma ||q_k - Q*|| + (epsilon + 2p/3) span_k
in the max norm (Bertsekas & Tsitsiklis 1996), and the greedy policy of q_k
loses at most 2 ||q_k - Q*|| / (1 - gamma) (Singh & Yee 1994).
Each read lies in [0, 1], so the read-out table stays within the hull of
its targets and hence within the reward bound over 1 - gamma; a run whose
table leaves that bound stops with DivergenceError. Query accounting
covers every estimator invocation; rows whose targets are known exactly
(terminal states pinned at zero) are skipped at zero cost. The reported
readout variance is the estimator's expected variance, in closed form.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from numbers import Integral

import numpy as np

from .emulator import (
    AE_ORACLE,
    EstimatorConfig,
    amplitude_encode,
    query_cost,
    readout_batch,
    readout_variance,
)
# bellman_backup and stream stay bound here, where perfbench/tracing.py hooks them
from .mdp import (  # noqa: F401
    Policy,
    QTable,
    TabularMDP,
    bellman_backup,
    greedy,
)
from .rng import stream, streams  # noqa: F401

# Stream key of the readout draws; other consumers use other keys, so draws
# are order independent.
_READOUT = 1


# Relative slack of the reward-bound check, for the rounding of
# lo + span * read at the ends of the bound.
_BOUND_RTOL = 1e-9


class DivergenceError(RuntimeError):
    """An iteration's backup targets left the finite float range, or its
    read-out table left the reward bound over 1 - gamma, or its Monte Carlo
    estimates (experiments.run_mc_policy_iteration) are not finite.

    at is (iteration, check), where it was raised: check 0 is the targets
    check of _read_out, or the Monte Carlo estimates' check, and 1 the
    reward-bound check that follows _read_out in the same iteration. It is
    (-1, 0) where not given."""

    def __init__(self, message: str, at: tuple[int, int] = (-1, 0)):
        super().__init__(message)
        self.at = at


@dataclass
class QPolicyConfig:
    """One policy-iteration run: its estimator, which holds every readout
    setting, its stop rule and its seed; the discount is the MDP's
    (TabularMDP.with_gamma gives a model at another one). epsilon is
    construction shorthand, not a field: with no estimator, the run reads
    out through ae_oracle at precision epsilon (0.01 when it is not given);
    with one, epsilon is ignored."""

    epsilon: InitVar[float | None] = None
    estimator: EstimatorConfig | None = None
    max_iterations: int = 100
    convergence_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self, epsilon):
        if (type(self.max_iterations) is bool or not isinstance(self.max_iterations, Integral)
                or not self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be >= 1, a whole number, "
                             f"got {self.max_iterations!r}")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.estimator is None:
            self.estimator = EstimatorConfig(
                mode=AE_ORACLE, epsilon=0.01 if epsilon is None else epsilon)

    def with_settings(self, seed: int, *, mode=None, shots=None, epsilon=None, c_ae=None,
                      noise_p=None, iters=None, tol=None) -> "QPolicyConfig":
        """This config at seed, with each setting that is not None applied,
        under the command line's names: mode, shots, epsilon, c_ae and
        noise_p set the estimator's fields of those names, iters
        max_iterations and tol convergence_tol. Raises ValueError for a value
        the config or its estimator rejects."""
        given = {"mode": mode, "shots": shots, "epsilon": epsilon, "c_ae": c_ae, "noise_p": noise_p}
        own = {"max_iterations": iters, "convergence_tol": tol}
        estimator = replace(self.estimator, **{k: v for k, v in given.items() if v is not None})
        return replace(self, seed=seed, estimator=estimator,
                       **{k: v for k, v in own.items() if v is not None})


@dataclass(slots=True)
class IterationRecord:
    """Per-iteration metrics of a run."""

    iteration: int
    bellman_error_max: float
    bellman_error_mean: float
    q_variance: float
    queries_iteration: int
    queries_cumulative: int

    def __reduce__(self):
        # the fields in order: a chunk's records cross a pipe
        # (experiments._in_chunks) in half the time of the slots' state dict
        return IterationRecord, (self.iteration, self.bellman_error_max,
                                 self.bellman_error_mean, self.q_variance,
                                 self.queries_iteration, self.queries_cumulative)


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
    flat = q.reshape(-1)
    offset = float(flat.min())
    shifted = flat - offset
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
    What stays per member is its stream and its draw: each member's entries
    are read through its own readout_batch call on its rng. The rest is
    batched: one affine map of every member's table onto [0, 1] by its own
    min and span, one readout_variance call per distinct estimator over the
    rows of the members that share it, and the query counts. Entries outside
    the mask keep their exact targets at zero cost, as does a member whose
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
            f"span {float(span[i])!r})", (iteration, 0))
    q_tilde = flat.copy()
    queries, q_variance = [0] * len(flat), [0.0] * len(flat)
    live = span > 0.0
    rows = np.flatnonzero(live)
    if rows.size:
        # one boolean index over the whole batch: the read entries of the
        # members whose targets are not constant, row by row
        read = mask & live[:, None]
        lo_r, span_r = lo[rows, None], span[rows, None]
        values = (flat[read].reshape(rows.size, -1) - lo_r) / span_r
        reads = np.empty_like(values)
        rows = rows.tolist()
        sharing = {}  # estimator -> the rows of values it reads
        for j, i in enumerate(rows):
            reads[j] = readout_batch(values[j], estimators[i], rngs[i])
            sharing.setdefault(estimators[i], []).append(j)
        q_tilde[read] = (lo_r + span_r * reads).reshape(-1)
        spans = span_r[:, 0].tolist()
        for est, js in sharing.items():
            cost = values.shape[1] * query_cost(est)
            # a row sum of the contiguous (rows, entries) block adds in the
            # order a lone row's sum does, so each member's figure is bit
            # for bit its own
            sums = readout_variance(values[js], est).sum(axis=1).tolist()
            for j, v in zip(js, sums):
                queries[rows[j]] = cost
                # span * (span * v) keeps q_variance 0, not inf * 0, when
                # every read is exact and span * span overflows
                q_variance[rows[j]] = spans[j] * (spans[j] * v / mask.size)
    return q_tilde.reshape(targets.shape), queries, q_variance


# no caller in the library; it stays bound here, where perfbench/tracing.py hooks it
def policy_improve(q: QTable) -> Policy:
    """Greedy deterministic policy; ties broken by lowest action index."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("q table must be finite")
    return Policy(greedy(q)[1])


# ---------------------------------------------------------------------------
# The iteration loop
# ---------------------------------------------------------------------------

def policy_iteration_lockstep(mdp: TabularMDP, budgets, evaluate) -> list:
    """Policy iteration for several runs in one loop; returns one (records,
    final_policy) per run, in order.

    budgets lists each run's (max_iterations, convergence_tol). Every run
    starts from q = 0. Iteration k calls evaluate(k, q, actions, active) on
    the (rows, S, A) tables of the runs still in the batch, their greedy
    actions and the run of each row; it returns the rows' next tables, and
    per row the queries charged and the readout variance. The loop improves
    greedily on the next tables (greedy, ties within 1e-9), records
    max and mean of |V_{k+1} - V_k| with V the greedy value of the table,
    and drops a run from the batch at its max_iterations or once
    max |q_{k+1} - q_k| < its convergence_tol. A run's records depend on
    what runs beside it only through evaluate.
    """
    active = list(range(len(budgets)))  # the run of each batch row
    q = np.zeros((len(budgets), mdp.num_states, mdp.num_actions))
    v, actions = greedy(q)
    records: list[list[IterationRecord]] = [[] for _ in budgets]
    policies: list[Policy | None] = [None] * len(budgets)
    cumulative = [0] * len(budgets)

    # tables near the float limit read inf in the bookkeeping below; a
    # diverging run is reported by its evaluation step alone
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max((m for m, _ in budgets), default=0)):
            q_next, queries, variances = evaluate(k, q, actions, active)
            v_next, actions = greedy(q_next)
            diff = np.abs(v_next - v)
            err_max, err_mean = diff.max(axis=1).tolist(), diff.mean(axis=1).tolist()
            shift = np.abs(q_next - q).reshape(len(active), -1).max(axis=1).tolist()
            stay = []
            for j, i in enumerate(active):
                cumulative[i] += queries[j]
                records[i].append(IterationRecord(k, err_max[j], err_mean[j], variances[j],
                                                  queries[j], cumulative[i]))
                if shift[j] < budgets[i][1] or k + 1 == budgets[i][0]:
                    policies[i] = Policy(actions[j].copy())
                else:
                    stay.append(j)
            q, v = q_next, v_next
            if len(stay) < len(active):
                if not stay:
                    break
                active = [active[j] for j in stay]
                q, v, actions = q[stay], v[stay], actions[stay]
    return list(zip(records, policies))


def run_qpolicy(mdp: TabularMDP, config: QPolicyConfig):
    """Execute up to K iterations; returns (records, final_policy): the
    one-member call of run_qpolicy_lockstep. Iteration k backs up the table
    under its greedy policy, reads the targets out from the readout stream
    of key k and improves greedily on the read-out table. Raises
    DivergenceError when an iteration's backup targets leave the finite
    float range or its read-out table leaves the reward bound."""
    return run_qpolicy_lockstep(mdp, [config])[0]


def run_qpolicy_lockstep(mdp: TabularMDP, configs) -> list:
    """run_qpolicy for several configs in one loop: policy_iteration_lockstep
    with the read-out backup as its evaluation step. Returns one (records,
    final_policy) per config, in order.

    Member i's records and policy are those of run_qpolicy(mdp, configs[i])
    bit for bit, whatever runs beside it. What stays per member is its
    stream and its draw: it reads out from its own stream(seed, _READOUT, k),
    taken from its own streams iterator, through its own readout_batch call.
    The rest is batched: each iteration makes the backup, the normalisation
    and the bound check once over the (members, S, A) batch, and the
    readout variance and query count once per distinct estimator (_read_out).
    Every member runs at the MDP's discount; a DivergenceError names the
    member's seed.
    """
    configs = list(configs)
    mask = _readout_mask(mdp)
    lo, hi = _value_bound(mdp)
    slack = _BOUND_RTOL * max(-lo, hi)
    readout_rngs = [streams(c.seed, _READOUT) for c in configs]  # key k at iteration k

    def evaluate(k, q, actions, active):
        members = [configs[i] for i in active]
        seeds = [c.seed for c in members]
        on_policy = np.take_along_axis(q, actions[:, :, None], axis=2)[:, :, 0]
        targets = mdp.rewards + mdp.gamma * mdp.expect(on_policy)
        q_tilde, queries, q_vars = _read_out(
            targets, mask, [c.estimator for c in members],
            [next(readout_rngs[i]) for i in active], k, seeds)
        q_min, q_max = q_tilde.min(axis=(1, 2)), q_tilde.max(axis=(1, 2))
        out = np.flatnonzero(~((q_min >= lo - slack) & (q_max <= hi + slack)))
        if out.size:
            j = out[0]
            raise DivergenceError(
                f"iteration {k}: the read-out table of seed {seeds[j]} spans "
                f"[{float(q_min[j])!r}, {float(q_max[j])!r}], outside the reward "
                f"bound [{lo!r}, {hi!r}]", (k, 1))
        return q_tilde, queries, q_vars

    return policy_iteration_lockstep(
        mdp, [(c.max_iterations, c.convergence_tol) for c in configs], evaluate)

"""Finite tabular MDPs stored as one padded sparse operator, plus exact solvers.

States and actions are integer indexed. A model's transitions are (S*A, d)
arrays of next states and probabilities, d the widest row, stored column by
column, so that a sum over a row runs over d contiguous columns. Memory and
time per backup grow with S*A*d rather than with the S*A*S of a dense
tensor; rewards are expected immediate rewards r(s, a). JSON files keep
ragged (next_state, probability) rows, derived from the arrays by mdp_to_dict.
Terminal states self-loop with zero reward so value recursions need no
special casing. The exact solvers sweep the value vector and build the
(S, A) table once, from the last (see _sweep), within gamma * tol of their
fixed points. Policy evaluation runs the policy's sweep of S entries;
value iteration is modified policy iteration, full max sweeps of S*A
entries with _MPI_SWEEPS on-policy sweeps between them, and stops on a
full sweep's change. Sums over operator rows add left to right, one
gather of the d columns, then one reduction (see _column_sums).
Everything here is deterministic given its inputs; the only random
operation, Monte Carlo evaluation, takes an explicit seed.
"""
from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral

import numpy as np

from .rng import stream

PROB_TOL = 1e-9
# Two actions within this of a row's max tie in the greedy step.
_GREEDY_TOL = 1e-9

# Grid actions, shared by both environment builders.
UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
GRID_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))
_OPPOSITE = (DOWN, UP, RIGHT, LEFT)

QTable = np.ndarray  # dense (num_states, num_actions) float array


@dataclass
class TabularMDP:
    """Finite MDP (S, A, P, r, gamma) stored as one padded sparse operator.

    Row s * A + a of the (S*A, k) arrays next_states and next_probs lists
    the transitions of (s, a) in any order, repeats and zeros allowed. They
    are validated and kept read-only with each row sorted by next state,
    repeats summed in input order, zeros dropped and the tail padded with
    probability 0 on the row's last next state. The operator is stored
    column by column: next_states and next_probs are transposed views of
    contiguous (d, S*A) arrays whose row k holds entry k of every row, so
    next_states.T and next_probs.T are contiguous columns. Ragged rows enter
    through from_rows.
    """

    num_states: int
    num_actions: int
    next_states: np.ndarray = field(repr=False)  # (S*A, d) intp
    next_probs: np.ndarray = field(repr=False)  # (S*A, d) float
    rewards: np.ndarray  # (S, A) expected immediate reward
    gamma: float
    terminal_states: frozenset = frozenset()
    start_state: int = 0
    sparsity_d: int = field(init=False)  # widest row; every entry but padding is positive

    def __post_init__(self):
        s_count, a_count = self.num_states, self.num_actions
        if s_count < 1 or a_count < 1:
            raise ValueError("num_states and num_actions must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.rewards.shape != (s_count, a_count):
            raise ValueError("rewards shape does not match (num_states, num_actions)")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")
        states = np.asarray(self.next_states, dtype=float)
        probs = np.asarray(self.next_probs, dtype=float)
        if probs.ndim != 2 or probs.shape != states.shape or probs.shape[1] < 1 \
                or len(probs) != s_count * a_count:
            raise ValueError("next_states and next_probs must both have shape "
                             "(num_states * num_actions, k) with k >= 1")
        row_checks = (
            (np.isfinite(probs) & (probs >= 0), "probabilities must be finite and nonnegative"),
            (_is_index(states, s_count), f"next states must be integers in [0, {s_count})"),
            (abs(probs.sum(axis=1, keepdims=True) - 1.0) <= PROB_TOL,
             "probabilities do not sum to 1"),
        )
        for ok, problem in row_checks:
            bad = np.flatnonzero(~ok.all(axis=1))
            if bad.size:
                s, a = divmod(int(bad[0]), a_count)
                raise ValueError(f"row ({s}, {a}): {problem}")
        # a bool is not a state, though the float conversion would read it as one
        terminals = np.asarray(sorted(self.terminal_states), dtype=float)
        if any(isinstance(t, (bool, np.bool_)) for t in self.terminal_states) \
                or not _is_index(terminals, s_count).all():
            raise ValueError(f"terminal states must be integers in [0, {s_count})")
        start = self.start_state
        if type(start) is bool or not isinstance(start, Integral) or not 0 <= start < s_count:
            raise ValueError(f"start_state must be an integer in [0, {s_count}), got {start!r}")
        self.start_state = int(start)
        self.next_states, self.next_probs = _padded_operator(states.astype(np.intp), probs)
        terminals = terminals.astype(np.intp)
        targets = self.next_states.reshape(s_count, a_count, -1)[terminals]
        first_probs = self.next_probs.reshape(s_count, a_count, -1)[terminals, :, 0]
        self_loop = ((targets == terminals[:, None, None]).all(axis=(1, 2))
                     & (first_probs == 1.0).all(axis=1)
                     & (self.rewards[terminals] == 0.0).all(axis=1))
        if not self_loop.all():
            raise ValueError(f"terminal state {terminals[~self_loop][0]} must self-loop "
                             "with reward 0")
        self.terminal_states = frozenset(terminals.tolist())
        self.sparsity_d = self.next_states.shape[1]
        self.rewards.flags.writeable = False

    @classmethod
    def from_rows(cls, num_states: int, num_actions: int, rows, rewards, gamma: float,
                  terminal_states=frozenset(), start_state: int = 0) -> "TabularMDP":
        """MDP from ragged rows, rows[s][a] listing (next_state, probability)
        pairs, padded with probability-0 entries for the constructor."""
        if len(rows) != num_states or any(len(row) != num_actions for row in rows):
            raise ValueError("rows must hold one transition row per action for each state")
        flat = list(chain.from_iterable(rows))
        entries = list(chain.from_iterable(flat))
        if not entries or set(map(len, entries)) - {2}:
            raise ValueError("transition entries must be (next_state, probability) pairs")
        values = np.fromiter(chain.from_iterable(entries), dtype=float, count=2 * len(entries))
        row_of = np.repeat(np.arange(len(flat)), [len(row) for row in flat])
        next_states, next_probs = _pad_rows(row_of, values[0::2], values[1::2], len(flat))
        return cls(num_states, num_actions, next_states.T, next_probs.T, rewards, gamma,
                   terminal_states=terminal_states, start_state=start_state)

    def expect(self, v: np.ndarray) -> np.ndarray:
        """(S, A) table of E[v(s') | s, a] = sum_s' P(s' | s, a) v(s'); a
        stack of value vectors, shape (..., S), gives a (..., S, A) stack."""
        rows = _column_sums(self.next_states.T, self.next_probs.T, v)
        return rows.reshape(v.shape[:-1] + (self.num_states, self.num_actions))

    def transition_matrix(self) -> np.ndarray:
        """Dense (S, A, S) tensor of the operator, built on every call.

        For oracles and small demos only: it takes S*A*S floats, and no
        solver or sampler in the library uses it.
        """
        dense = np.zeros((self.num_states * self.num_actions, self.num_states))
        rows = np.arange(len(dense))[:, None]
        np.add.at(dense, (rows, self.next_states), self.next_probs)
        return dense.reshape(self.num_states, self.num_actions, self.num_states)

    def with_gamma(self, gamma: float) -> "TabularMDP":
        """Copy of this MDP with a different discount factor; it shares the
        validated read-only arrays, so only gamma is checked."""
        if gamma == self.gamma:
            return self
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        twin = copy.copy(self)
        twin.gamma = float(gamma)
        return twin


def _column_sums(states: np.ndarray, probs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k probs[k] * v[..., states[k]] over the d rows of the (d, n)
    columns of operator rows: shape v.shape[:-1] + (n,). TabularMDP.expect
    sums the whole operator this way, _policy_sweep a policy's rows of it,
    so the two give the same bits.

    One gather takes the d * n values, one multiply weighs them in place,
    and one reduction over the d axis adds the products left to right from
    +0.0, whatever d is: for d <= 7 that is the order in which numpy sums a
    row, so this is (next_probs * v[..., next_states]).sum(axis=-1) bit for
    bit there, an all -0.0 row giving +0.0 as there.
    """
    # padding reads the row's own last next state, so an infinite value
    # elsewhere in v cannot turn a row into 0 * inf; a diverging caller
    # reports the overflow itself, so numpy stays quiet about it
    terms = v.take(states.reshape(-1), axis=-1).reshape(v.shape[:-1] + states.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        terms *= probs
        return np.add.reduce(terms, axis=-2, initial=0.0)


def _is_index(values: np.ndarray, bound: int) -> np.ndarray:
    """Mask of the float values that are integers in [0, bound)."""
    return (values >= 0) & (values < bound) & (values == np.floor(values))


def _padded_operator(states: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, d) arrays normalised as TabularMDP describes, views
    of contiguous (d, rows) columns; every row must hold positive mass."""
    keep = probs > 0
    row_of = np.nonzero(keep)[0]  # row-major, so input order within a row
    states, probs = states[keep], probs[keep]
    order = np.lexsort((states, row_of))  # stable, so duplicates keep row order
    row_of, states, probs = row_of[order], states[order], probs[order]
    first = np.ones(len(states), dtype=bool)
    first[1:] = (row_of[1:] != row_of[:-1]) | (states[1:] != states[:-1])
    starts = np.flatnonzero(first)
    next_states, next_probs = _pad_rows(row_of[starts], states[starts],
                                        np.add.reduceat(probs, starts), len(keep))
    next_states.flags.writeable = False
    next_probs.flags.writeable = False
    return next_states.T, next_probs.T


def _pad_rows(row_of: np.ndarray, states: np.ndarray, probs: np.ndarray,
              row_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous (d, row_count) columns of the entries, by their sorted
    rows: column k holds entry k of every row, each row padded to the
    widest, d, with probability 0 on its last next state."""
    widths = np.bincount(row_of, minlength=row_count)
    row_start = np.cumsum(widths) - widths
    column = np.arange(len(states)) - row_start[row_of]
    next_states = np.repeat(states[row_start + widths - 1][None, :], widths.max(), axis=0)
    next_states[column, row_of] = states
    next_probs = np.zeros(next_states.shape)
    next_probs[column, row_of] = probs
    return next_states, next_probs


@dataclass
class Policy:
    """Deterministic stationary policy: one action per state of a tabular MDP.
    Two policies are equal when their actions are."""

    actions: np.ndarray  # (S,), intp when every entry is a whole number

    def __post_init__(self):
        actions = np.asarray(self.actions)
        if actions.dtype != np.intp:
            # whole numbers become intp; any other value is kept as given,
            # for check_policy to reject rather than truncate
            whole = np.isfinite(actions) & (np.floor(actions) == actions)
            actions = actions.astype(np.intp) if whole.all() else actions
        self.actions = actions

    def __eq__(self, other) -> bool:
        return isinstance(other, Policy) and np.array_equal(self.actions, other.actions)


def action_max(q: np.ndarray) -> np.ndarray:
    """Max over actions, q.max(axis=-1) bit for bit, signed zeros included:
    an (S, A) table gives (S,), a stack (..., S, A) gives (..., S).

    It takes one action column at a time, which is several times faster
    than numpy's reduction along the short last axis.
    """
    columns = np.moveaxis(q, -1, 0)
    best = columns[0].copy()
    for column in columns[1:]:
        np.maximum(best, column, out=best)
    return best


def greedy(q: QTable) -> tuple[np.ndarray, np.ndarray]:
    """(action_max(q), the greedy actions): in each row the first action
    within _GREEDY_TOL (1e-9) of the max, 0 where the max is NaN; a stack
    of tables, shape (..., S, A), gives two (..., S) stacks.

    The tolerance makes tie-breaking stable across independently computed
    tables whose tied entries differ only by float rounding.
    """
    q = np.asarray(q, dtype=float)
    best = action_max(q)
    near = best - _GREEDY_TOL
    actions = np.zeros(best.shape, dtype=np.intp)
    for a in range(q.shape[-1] - 1, -1, -1):  # down, so the lowest near action wins
        np.copyto(actions, a, where=q[..., a] >= near)
    return best, actions


def _actions_below(actions: np.ndarray, num_actions: int) -> bool:
    """Whether actions is one whole number (an intp, as Policy stores it) in
    [0, num_actions) per state."""
    # as unsigned, a negative action is huge, so one comparison checks both ends
    return (actions.ndim == 1 and actions.dtype == np.intp
            and not np.count_nonzero(actions.view(np.uintp) >= num_actions))


def check_policy(mdp: TabularMDP, policy: Policy) -> None:
    """Raise ValueError unless policy is one for mdp: one whole-number action
    in [0, A) per state. Every reader of a policy calls it, so no action
    wraps round or is truncated."""
    if policy.actions.shape != (mdp.num_states,) \
            or not _actions_below(policy.actions, mdp.num_actions):
        raise ValueError(f"a policy needs one action in [0, {mdp.num_actions}) per state, "
                         f"each a whole number, for {mdp.num_states} states")


def _chosen(mdp: TabularMDP, policy: Policy) -> np.ndarray:
    """Flat (S*A) index s * A + pi(s) of each state's chosen pair, which is
    also its row of the operator."""
    return np.arange(mdp.num_states) * mdp.num_actions + policy.actions


def policy_values(mdp: TabularMDP, policy: Policy, q: QTable) -> np.ndarray:
    """V(s) = Q(s, pi(s)), gathered, so no other entry of q is read."""
    check_policy(mdp, policy)
    q = np.asarray(q, dtype=float)
    if q.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(f"q table shape {q.shape} does not match the MDP")
    return q.take(_chosen(mdp, policy))


# ---------------------------------------------------------------------------
# Environment builders
# ---------------------------------------------------------------------------

def _grid_mdp(height: int, width: int, move_probs: np.ndarray, terminals, goal: int,
              gamma: float, start_state: int = 0) -> TabularMDP:
    """Grid MDP in which action a takes move m with probability move_probs[a, m].

    The moves are GRID_MOVES; one that would leave the grid keeps the agent
    in place, and moves that land on the same cell merge. Terminal cells
    self-loop with reward 0, and r(s, a) is the mass that (s, a) moves into
    the goal, so entering it pays +1.
    """
    num_states, num_actions = height * width, len(move_probs)
    cells, step = np.arange(num_states)[:, None], np.array(GRID_MOVES)
    to_row, to_col = cells // width + step[:, 0], cells % width + step[:, 1]
    inside = (to_row >= 0) & (to_row < height) & (to_col >= 0) & (to_col < width)
    targets = np.where(inside, to_row * width + to_col, cells)  # (S, moves)
    next_states = np.repeat(targets[:, None, :], num_actions, axis=1)  # (S, A, moves)
    next_probs = np.broadcast_to(move_probs, next_states.shape).copy()
    rewards = np.where(next_states == goal, next_probs, 0.0).sum(axis=2)
    next_states[terminals] = np.asarray(terminals)[:, None, None]
    next_probs[terminals] = np.eye(1, next_probs.shape[2])
    rewards[terminals] = 0.0
    return TabularMDP(num_states, num_actions, next_states.reshape(num_states * num_actions, -1),
                      next_probs.reshape(num_states * num_actions, -1), rewards, gamma,
                      terminal_states=frozenset(terminals), start_state=start_state)


def build_gridworld(width: int, height: int, slip_prob: float, goal: tuple,
                    gamma: float = 0.95) -> TabularMDP:
    """Stochastic gridworld: 4 moves, slip mass spread uniformly over all 4.

    With probability (1 - slip_prob) the intended move executes; with
    probability slip_prob one of the four moves is chosen uniformly (the
    intended one included, so the unobstructed intended-move probability is
    1 - slip_prob + slip_prob/4). Off-grid moves keep the agent in place.
    Entering the goal cell pays +1 and the goal is absorbing.
    """
    if width < 1 or height < 1 or width * height < 2:
        raise ValueError("grid must contain at least 2 cells")
    if not 0.0 <= slip_prob <= 1.0:
        raise ValueError("slip_prob must lie in [0, 1]")
    if len(goal) != 2:
        raise ValueError(f"goal must be (row, col), got {goal}")
    gr, gc = int(goal[0]), int(goal[1])
    if not (0 <= gr < height and 0 <= gc < width):
        raise ValueError(f"goal {goal} outside the {height}x{width} grid")
    move_probs = slip_prob / 4.0 + (1.0 - slip_prob) * np.eye(4)
    goal_state = gr * width + gc
    return _grid_mdp(height, width, move_probs, [goal_state], goal_state, gamma)


# Fixed lake layouts. S start, F frozen, H hole, G goal.
FROZENLAKE_MAPS = {
    4: ("SFFF",
        "FHFH",
        "FFFH",
        "HFFG"),
    8: ("SFFFFFFF",
        "FFFFFFFF",
        "FFFHFFFF",
        "FFFFFHFF",
        "FFFHFFFF",
        "FHHFFFHF",
        "FHFFHFHF",
        "FFFHFFFG"),
    10: ("SFFFFFFFFF",
         "FFFHFFFHFF",
         "FHFFFHFFFF",
         "FFFFHFFFHF",
         "FHFFFFFHFF",
         "FFFHFFFFFF",
         "FHFFFHFFHF",
         "FFFFHFFFFF",
         "FHFFFFFHFF",
         "FFFHFFFFFG"),
}


def build_frozenlake(size: int, slippery: bool, gamma: float = 0.95) -> TabularMDP:
    """Frozen lake on a fixed map: holes and goal are absorbing, goal pays +1.

    Slippery dynamics put probability 1/3 on the intended move and 1/3 on
    each of the two perpendicular moves; non-slippery is deterministic.
    """
    if size not in FROZENLAKE_MAPS:
        raise ValueError(f"unsupported size {size}, expected one of {sorted(FROZENLAKE_MAPS)}")
    tiles = np.array([list(line) for line in FROZENLAKE_MAPS[size]]).ravel()
    if slippery:
        move_probs = np.full((4, 4), 1.0 / 3.0)
        move_probs[np.arange(4), _OPPOSITE] = 0.0
    else:
        move_probs = np.eye(4)
    terminals = np.flatnonzero((tiles == "H") | (tiles == "G")).tolist()
    (goal,), (start,) = np.flatnonzero(tiles == "G"), np.flatnonzero(tiles == "S")
    return _grid_mdp(size, size, move_probs, terminals, int(goal), gamma,
                     start_state=int(start))


# ---------------------------------------------------------------------------
# Exact solvers and the Bellman operator
# ---------------------------------------------------------------------------

_MAX_SWEEPS = 10_000_000
# On-policy sweeps that value_iteration runs after each full max sweep that
# does not stop it; 16 to 32 measured fastest on 45x45 to 316x316 grids.
_MPI_SWEEPS = 16


def bellman_backup(mdp: TabularMDP, q: QTable, policy: Policy) -> QTable:
    """One synchronous backup (T_pi q)(s,a) = r + gamma * P @ V_pi(q)."""
    return _backup(mdp, policy_values(mdp, policy, q))


def _backup(mdp: TabularMDP, v: np.ndarray) -> QTable:
    """The (S, A) table r + gamma * E[v(s')] of the value vector v."""
    with np.errstate(over="ignore", invalid="ignore"):  # see _column_sums
        return mdp.rewards + mdp.gamma * mdp.expect(v)


def _sweep(mdp: TabularMDP, tol: float, what: str, value_step) -> QTable:
    """The table _backup(mdp, v) of the value vector v that sweeping from
    v = 0 reaches once a step v <- value_step(v) changes v by less than
    tol * (1 - gamma) / gamma.

    value_step(v) returns the next vector and either None or the operator
    rows s * A + a of one action per state. Rows start _MPI_SWEEPS
    on-policy sweeps under that policy (see _policy_sweep) before the next
    value_step; their changes are not tested against the threshold.

    value_step must be a gamma-contraction in the max norm, as both
    solvers' steps are. Then a change below the threshold, at any v, puts
    the new v within tol of the fixed point, and the table, one backup on,
    within gamma * tol of its own.

    A change that is not finite, on a sweep of either kind, means the
    values overflowed, and no later sweep can converge. With finite values
    the table can still leave the float range, at an entry that no value
    reads. Either raises RuntimeError naming the sweep; sweeps of both
    kinds count, from 0.
    """
    if not tol > 0:  # so that a NaN tol fails too
        raise ValueError("tol must be positive")
    threshold = math.inf if mdp.gamma == 0 else tol * (1.0 - mdp.gamma) / mdp.gamma
    v = np.zeros(mdp.num_states)
    on_policy_left = 0
    with np.errstate(over="ignore", invalid="ignore"):  # see _column_sums
        for sweep in range(_MAX_SWEEPS):
            full = not on_policy_left
            if full:
                v_next, rows = value_step(v)
            else:
                v_next = policy_step(v)
                on_policy_left -= 1
            delta = np.max(np.abs(v_next - v))
            v = v_next
            if full and delta < threshold:
                q = _backup(mdp, v)
                if not np.isfinite(q).all():
                    raise RuntimeError(f"{what} diverged: the table after sweep {sweep} "
                                       "left the float range")
                return q
            if not math.isfinite(delta):
                raise RuntimeError(f"{what} diverged: sweep {sweep} changed the values by "
                                   f"{float(delta)!r}")
            if full and rows is not None:
                policy_step, on_policy_left = _policy_sweep(mdp, rows), _MPI_SWEEPS
    raise RuntimeError(f"{what} failed to converge")


def _operator_rows(mdp: TabularMDP, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (d, len(rows)) columns of next states and probabilities of the
    given operator rows, in that order, for _column_sums; taken along the
    columns, they stay contiguous."""
    return mdp.next_states.T.take(rows, axis=1), mdp.next_probs.T.take(rows, axis=1)


def _policy_sweep(mdp: TabularMDP, chosen: np.ndarray):
    """The sweep v <- r_pi + gamma * sum_k p_k v(s_k) of the policy whose
    operator rows s * A + pi(s) are chosen, with those rows and their
    rewards taken once. Each entry is summed as TabularMDP.expect sums, so
    the sweep gives the backup's q[s, pi(s)] bit for bit."""
    states, probs = _operator_rows(mdp, chosen)
    r_pi = mdp.rewards.take(chosen)
    return lambda v: r_pi + mdp.gamma * _column_sums(states, probs, v)


def exact_policy_evaluation(mdp: TabularMDP, policy: Policy, tol: float = 1e-8) -> QTable:
    """Fixed point of T_pi to within gamma * tol in the infinity norm: the
    backup of V_pi swept to its stop (see _sweep), every sweep the
    policy's own (see _policy_sweep)."""
    check_policy(mdp, policy)
    step = _policy_sweep(mdp, _chosen(mdp, policy))
    return _sweep(mdp, tol, "policy evaluation", lambda v: (step(v), None))


def value_iteration(mdp: TabularMDP, tol: float = 1e-8) -> tuple[QTable, Policy]:
    """Optimal Q within gamma * tol plus its greedy policy (ties to lowest
    index), by modified policy iteration on the value vector (Puterman &
    Shin 1978): the backup of V swept to its stop (see _sweep).

    A full sweep backs up every pair and takes V = max_a Q. Its operator
    rows are taken once, action by action, a copy the size of the
    operator, so that the max over actions reads contiguous (A, S) blocks;
    each entry is the backup's, bit for bit. Unless its change stops the
    loop, _MPI_SWEEPS on-policy sweeps of S entries follow under the
    exact argmax of that sweep's table, the lowest index among equal
    maxima. The argmax, not greedy's 1e-9 tie tolerance: an action up to
    1e-9 below the max would pull v away from the max sweep's fixed point,
    and the full sweep's change could stall above the threshold.
    """
    s_count, a_count = mdp.num_states, mdp.num_actions
    states, probs = _operator_rows(mdp, (np.arange(s_count) * a_count
                                         + np.arange(a_count)[:, None]).ravel())
    rewards_by_action = np.ascontiguousarray(mdp.rewards.T)
    first_rows = np.arange(s_count) * a_count

    def value_step(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sums = _column_sums(states, probs, v).reshape(a_count, s_count)
        q_by_action = rewards_by_action + mdp.gamma * sums
        return action_max(q_by_action.T), first_rows + q_by_action.argmax(axis=0)

    q = _sweep(mdp, tol, "value iteration", value_step)
    return q, Policy(greedy(q)[1])


def mc_policy_evaluation(mdp: TabularMDP, policy: Policy, num_trajectories: int,
                         horizon: int = 100, seed: int = 0) -> tuple[QTable, int]:
    """First-visit Monte Carlo estimate of Q_pi with exploring starts.

    Each trajectory starts at a uniformly random (s, a) pair, then follows
    the policy for `horizon` steps. Discounted returns from the first visit
    of each pair are averaged; pairs never visited estimate 0. The query
    count is one per trajectory (a rollout is one environment query).

    This is the one-member call of mc_policy_evaluation_lockstep, which
    describes how the trajectories are stepped and what memory they take.
    """
    estimates = mc_policy_evaluation_lockstep(mdp, [policy], num_trajectories, horizon, [seed])
    return estimates[0], num_trajectories


def mc_policy_evaluation_lockstep(mdp: TabularMDP, policies, num_trajectories: int,
                                  horizon: int, seeds) -> np.ndarray:
    """mc_policy_evaluation for several (policy, seed) members in one pass.

    Returns the (members, S, A) estimates; each member's query count is
    num_trajectories. Member i's estimate is mc_policy_evaluation(mdp,
    policies[i], num_trajectories, horizon, seeds[i]) bit for bit: it draws
    from its own stream(seeds[i], 0), first its starts and then, at each
    step it moves, one uniform per trajectory, live or not, for the next
    states; the policy then fixes each next action. The members are stepped
    together, so each step costs one set of array operations over every
    member's live trajectories.

    A trajectory that reaches a terminal state is absorbed: from there on it
    earns 0 and visits only terminal pairs, whose estimate is 0 however
    often they are visited, so it leaves the live set. A member whose
    trajectories are all absorbed stops drawing, and the loop ends once no
    trajectory is live; the estimates are those of stepping every
    trajectory to the horizon, bit for bit.

    Each step records only its live trajectories: their rows (int32), their
    ids member * n + trajectory (int32, shared by the steps between two
    absorptions) and, for each row that differs from the trajectory's
    previous one, a (trajectory, pair, step) key (int64). That is at most
    16 bytes per live entry and nothing per absorbed one. One sort of the
    keys opens each (trajectory, pair) run with its first visit; a second
    puts the first visits in time-major, trajectory-ascending order. The
    returns run backward over the live entries, and one bincount over
    members * S*A bins sums each member's first-visit returns in that
    order, so memory has no (trajectories x S*A) term.
    """
    if num_trajectories < 1:
        raise ValueError("num_trajectories must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(policies) != len(seeds) or len(seeds) == 0:
        raise ValueError("need one seed per policy, and at least one of each")
    for policy in policies:
        check_policy(mdp, policy)
    s_count, a_count = mdp.num_states, mdp.num_actions
    pair_count = s_count * a_count
    members, n = len(seeds), num_trajectories
    # the bit fields of the keys; a step count up to the horizon, shifted
    # past the other two fields, must also fit an int64
    step_bits = (horizon - 1).bit_length()
    pair_bits = (pair_count - 1).bit_length()
    trajectory_bits = (members * n - 1).bit_length()
    if step_bits + pair_bits + trajectory_bits > 62:
        raise ValueError("too many trajectories, pairs and steps for int64 sort keys")
    rngs = [stream(seed, 0) for seed in seeds]
    # the operator row s * A + pi(s) of member m at state s, at m * S + s
    row_of = np.concatenate([_chosen(mdp, policy) for policy in policies])
    # the next state is the row's entry at the count of its CDF values below
    # the uniform, capped at the last entry; counting over the first d - 1
    # columns gives the cap, as cumulative sums of nonnegative floats never
    # decrease. Entry k of row r sits at k * S*A + r of the stored columns
    next_cdf = np.cumsum(mdp.next_probs.T[:-1], axis=0)
    next_state = mdp.next_states.T.ravel()
    terminal = np.zeros(s_count, dtype=bool)
    terminal[sorted(mdp.terminal_states)] = True
    terminal = np.repeat(terminal, a_count)  # by row

    # live holds the ids member * n + trajectory of the live trajectories,
    # ascending; dropping absorbed ones keeps the order, so each step's rows
    # line up with the previous step's, and only a row that differs from its
    # trajectory's previous one can be a first visit
    live = np.arange(members * n)
    offset = np.repeat(np.arange(members) * s_count, n)  # its member's policy block
    rows = np.concatenate([rng.integers(0, pair_count, size=n) for rng in rngs])
    recorded = live.astype(np.int32)  # the live ids as each step records them
    lives, history = [recorded], [rows.astype(np.int32)]
    keys = [(live << pair_bits | rows) << step_bits]
    member_starts = np.arange(members + 1) * n
    moving = list(range(members))  # members with live trajectories
    uniforms = np.empty((members, n))
    drawn = uniforms.reshape(-1)
    for t in range(1, horizon):
        absorbed = terminal.take(rows)
        if np.count_nonzero(absorbed):
            kept = ~absorbed
            live, rows, offset = live[kept], rows[kept], offset[kept]
            recorded = live.astype(np.int32)
            edges = live.searchsorted(member_starts).tolist()
            moving = [m for m in moving if edges[m] < edges[m + 1]]
            if not moving:
                break
        for m in moving:
            uniforms[m] = rngs[m].random(n)
        u = drawn.take(live)
        entry = (next_cdf.take(rows, axis=1) < u).sum(axis=0)
        moved = row_of.take(offset + next_state.take(entry * pair_count + rows))
        changed = moved != rows
        keys.append(((live << pair_bits | moved) << step_bits | t)[changed])
        lives.append(recorded)
        history.append(moved.astype(np.int32))
        rows = moved

    # Sorted, each (trajectory, pair) run of keys opens with its first visit.
    # Turned to (step, trajectory, pair) and sorted again, first visits run
    # time-major, trajectory-ascending. Steps in place keep the peak low
    keys = np.concatenate(keys)
    keys.sort()
    first = np.ones(len(keys), dtype=bool)  # keys of one run differ only in step bits
    np.greater_equal(keys[1:] ^ keys[:-1], 1 << step_bits, out=first[1:])
    keys = keys[first]
    step = keys & (1 << step_bits) - 1
    keys >>= step_bits
    step <<= trajectory_bits + pair_bits
    keys |= step
    del step
    keys.sort()
    bounds = keys.searchsorted(np.arange(len(history) + 1) << trajectory_bits + pair_bits).tolist()
    trajectory_mask = (1 << trajectory_bits) - 1

    # discounted returns, backward over each step's live trajectories, kept
    # at first visits; a trajectory absorbed after step t, or live at the
    # last, adds gamma * 0 there, as its return from t + 1 on is 0
    returns = np.empty(len(keys))
    following = np.zeros(members * n)  # each trajectory's return from t + 1
    rewards = mdp.rewards.ravel()
    for t in range(len(history) - 1, -1, -1):
        live = lives.pop().astype(np.intp)
        following[live] = rewards.take(history.pop()) + mdp.gamma * following.take(live)
        start, end = bounds[t], bounds[t + 1]
        returns[start:end] = following.take(keys[start:end] >> pair_bits & trajectory_mask)
    # member m's returns add, in the order above, into bin m * S*A + pair
    bins = (keys >> pair_bits & trajectory_mask) // n * pair_count
    keys &= (1 << pair_bits) - 1
    bins += keys
    del keys
    sums = np.bincount(bins, weights=returns, minlength=members * pair_count)
    counts = np.bincount(bins, minlength=members * pair_count)
    estimates = np.divide(sums, counts, out=sums, where=counts > 0)  # 0 where unvisited
    return estimates.reshape(members, s_count, a_count)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def mdp_to_dict(mdp: TabularMDP) -> dict:
    """JSON-ready document; float round trips are bit-exact. Each row lists
    the operator's positive entries in column order."""
    keep = mdp.next_probs > 0
    pairs = list(map(list, zip(mdp.next_states[keep].tolist(), mdp.next_probs[keep].tolist())))
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    rows = [pairs[start:end] for start, end in zip([0] + ends[:-1], ends)]
    return {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "gamma": mdp.gamma,
        "start": mdp.start_state,
        "terminals": sorted(mdp.terminal_states),
        "rewards": mdp.rewards.tolist(),
        "transitions": [{"s": s, "a": a, "rows": rows[s * mdp.num_actions + a]}
                        for s in range(mdp.num_states) for a in range(mdp.num_actions)],
    }


def _json_checked(field: str, value, kinds: tuple, what: str, depth: int = 0):
    """value, once it is lists nested depth deep whose leaves have types
    among kinds, checked level by level; else a ValueError naming field and
    the first value of another type. A bool is not an int here: the float
    conversions behind from_rows would read "1" or true as 1."""
    items = [value]
    for level in range(depth, -1, -1):
        allowed = kinds if level == 0 else (list,)
        if not set(map(type, items)) <= set(allowed):
            bad = next(v for v in items if type(v) not in allowed)
            raise ValueError(f"{field} must be {what}, got {bad!r}")
        if level:
            items = list(chain.from_iterable(items))
    return value


def mdp_from_dict(doc: dict) -> TabularMDP:
    num_states = _json_checked("num_states", doc["num_states"], (int,), "an integer")
    num_actions = _json_checked("num_actions", doc["num_actions"], (int,), "an integer")
    rows = [[[] for _ in range(num_actions)] for _ in range(num_states)]
    placed = set()
    for i, entry in enumerate(doc["transitions"]):
        s, a = entry["s"], entry["a"]
        if not (type(s) is int and 0 <= s < num_states
                and type(a) is int and 0 <= a < num_actions):
            raise ValueError(f"transitions entry {i}: (s, a) = ({s!r}, {a!r}) is not a pair "
                             f"of integers in [0, {num_states}) x [0, {num_actions})")
        if (s, a) in placed:
            raise ValueError(f"transitions entry {i}: a second row for (s, a) = ({s}, {a})")
        placed.add((s, a))
        rows[s][a] = entry["rows"]
    if len(placed) != num_states * num_actions:
        s, a = next((s, a) for s in range(num_states) for a in range(num_actions)
                    if (s, a) not in placed)
        raise ValueError(f"transitions has no entry for (s, a) = ({s}, {a})")
    start = _json_checked("start", doc["start"], (int,), "an integer")
    number = (int, float)  # whether a number is an index, the constructor checks
    gamma = _json_checked("gamma", doc["gamma"], number, "a number")
    rewards = _json_checked("rewards", doc["rewards"], number, "a list of lists of numbers", 2)
    terminals = _json_checked("terminals", doc["terminals"], number, "a list of numbers", 1)
    _json_checked("transitions rows", rows, number,
                  "lists of [next state, probability] number pairs", 4)
    return TabularMDP.from_rows(num_states, num_actions, rows, rewards, float(gamma),
                                terminal_states=frozenset(terminals), start_state=start)


def load_mdp(path: str | os.PathLike) -> TabularMDP:
    with open(path, "r", encoding="utf-8") as fh:
        return mdp_from_dict(json.load(fh))

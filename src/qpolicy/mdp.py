"""Finite tabular MDPs with sparse transition rows, plus exact solvers.

States and actions are integer indexed. Transition rows are stored sparsely
as (next_state, probability) lists and rewards are expected immediate
rewards r(s, a). The backup, the solvers and the Monte Carlo sampler read
the rows through one padded operator built at construction, (S*A, d) arrays
of next states and probabilities with d the widest row, so memory and time
per backup grow with S*A*d rather than with the S*A*S of a dense tensor.
Terminal states self-loop with zero reward so value recursions need no
special casing. Everything here is deterministic given its inputs; the only
stochastic operation, Monte Carlo evaluation, takes an explicit seed.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .rng import stream

PROB_TOL = 1e-9

# Grid actions, shared by both environment builders.
UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
GRID_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))
_PERPENDICULAR = {UP: (LEFT, RIGHT), DOWN: (LEFT, RIGHT), LEFT: (UP, DOWN), RIGHT: (UP, DOWN)}

QTable = np.ndarray  # dense (num_states, num_actions) float array


@dataclass
class TabularMDP:
    """Finite MDP (S, A, P, r, gamma) with sparse per-(s, a) transition rows.

    Row s * A + a of the read-only operator (next_states, next_probs) holds
    the row of (s, a) sorted by next state, with repeated next states merged
    and the tail padded with probability 0 on the row's last next state.
    """

    num_states: int
    num_actions: int
    transitions: list  # [s][a] -> list of (next_state, probability)
    rewards: np.ndarray  # (S, A) expected immediate reward
    gamma: float
    terminal_states: frozenset = frozenset()
    start_state: int = 0
    sparsity_d: int = field(init=False)
    next_states: np.ndarray = field(init=False, repr=False, compare=False)  # (S*A, d) intp
    next_probs: np.ndarray = field(init=False, repr=False, compare=False)  # (S*A, d) float

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 1:
            raise ValueError("num_states and num_actions must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.rewards.shape != (self.num_states, self.num_actions):
            raise ValueError("rewards shape does not match (num_states, num_actions)")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")
        self.terminal_states = frozenset(int(t) for t in self.terminal_states)
        if len(self.transitions) != self.num_states:
            raise ValueError("transitions must have one row list per state")
        rows = []
        for s in range(self.num_states):
            if len(self.transitions[s]) != self.num_actions:
                raise ValueError(f"state {s} must have one transition row per action")
            for a in range(self.num_actions):
                row = self.transitions[s][a]
                if not row:
                    raise ValueError(f"empty transition row for ({s}, {a})")
                total = 0.0
                for s_next, p in row:
                    if not 0 <= s_next < self.num_states:
                        raise ValueError(f"next state {s_next} out of range in row ({s}, {a})")
                    if p < 0:
                        raise ValueError(f"negative probability in row ({s}, {a})")
                    total += p
                if abs(total - 1.0) > PROB_TOL:
                    raise ValueError(f"row ({s}, {a}) sums to {total}, not 1")
                if s in self.terminal_states:
                    if row != [(s, 1.0)] or self.rewards[s, a] != 0.0:
                        raise ValueError(f"terminal state {s} must self-loop with reward 0")
                rows.append(row)
        if not 0 <= self.start_state < self.num_states:
            raise ValueError("start_state out of range")
        self.rewards.flags.writeable = False
        self.next_states, self.next_probs = _padded_operator(rows)
        # distinct next states of positive probability in the widest row
        self.sparsity_d = int(np.count_nonzero(self.next_probs > 0, axis=1).max())

    def expect(self, v: np.ndarray) -> np.ndarray:
        """(S, A) table of E[v(s') | s, a] = sum_s' P(s' | s, a) v(s')."""
        # padding reads the row's own last next state, so an infinite value
        # elsewhere in v cannot turn a row into 0 * inf; a diverging caller
        # reports the overflow itself, so numpy stays quiet about it
        with np.errstate(over="ignore", invalid="ignore"):
            rows = (self.next_probs * v[self.next_states]).sum(axis=1)
        return rows.reshape(self.num_states, self.num_actions)

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
        """Copy of this MDP with a different discount factor."""
        if gamma == self.gamma:
            return self
        return replace(self, gamma=float(gamma))

    def is_terminal(self, s: int) -> bool:
        return s in self.terminal_states


def _padded_operator(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (len(rows), d) next-state and probability arrays.

    Each row is sorted by next state, repeated next states are summed in
    row order, and the tail is padded with probability 0 on the row's last
    next state; d is the widest merged row.
    """
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    entries = [entry for row in rows for entry in row]
    states = np.array([s_next for s_next, _ in entries], dtype=np.intp)
    probs = np.array([p for _, p in entries], dtype=float)
    row_of = np.repeat(np.arange(len(rows)), lengths)
    order = np.lexsort((states, row_of))  # stable, so duplicates keep row order
    row_of, states, probs = row_of[order], states[order], probs[order]
    first = np.ones(len(states), dtype=bool)
    first[1:] = (row_of[1:] != row_of[:-1]) | (states[1:] != states[:-1])
    starts = np.flatnonzero(first)
    probs = np.add.reduceat(probs, starts)
    states, row_of = states[starts], row_of[starts]
    widths = np.bincount(row_of, minlength=len(rows))
    row_start = np.cumsum(widths) - widths
    column = np.arange(len(states)) - row_start[row_of]
    next_states = np.repeat(states[row_start + widths - 1][:, None], widths.max(), axis=1)
    next_states[row_of, column] = states
    next_probs = np.zeros(next_states.shape)
    next_probs[row_of, column] = probs
    next_states.flags.writeable = False
    next_probs.flags.writeable = False
    return next_states, next_probs


@dataclass
class Policy:
    """Deterministic or stochastic policy over a tabular MDP."""

    kind: str  # "deterministic" | "stochastic"
    actions: np.ndarray | None = None  # (S,) ints, deterministic only
    probs: np.ndarray | None = None    # (S, A), stochastic only

    def __post_init__(self):
        if self.kind == "deterministic":
            if self.actions is None:
                raise ValueError("deterministic policy needs an actions array")
            self.actions = np.asarray(self.actions, dtype=int)
        elif self.kind == "stochastic":
            if self.probs is None:
                raise ValueError("stochastic policy needs a probs matrix")
            self.probs = np.asarray(self.probs, dtype=float)
            if np.any(self.probs < 0):
                raise ValueError("policy probabilities must be nonnegative")
            if np.max(np.abs(self.probs.sum(axis=1) - 1.0)) > PROB_TOL:
                raise ValueError("policy rows must sum to 1")
        else:
            raise ValueError(f"unknown policy kind {self.kind!r}")

    @classmethod
    def deterministic(cls, actions) -> "Policy":
        return cls(kind="deterministic", actions=np.asarray(actions, dtype=int))

    @classmethod
    def stochastic(cls, probs) -> "Policy":
        return cls(kind="stochastic", probs=np.asarray(probs, dtype=float))

    @classmethod
    def uniform(cls, num_states: int, num_actions: int) -> "Policy":
        return cls.stochastic(np.full((num_states, num_actions), 1.0 / num_actions))

    def matrix(self, num_actions: int) -> np.ndarray:
        """Policy as a dense (S, A) probability matrix."""
        if self.kind == "stochastic":
            return self.probs
        out = np.zeros((len(self.actions), num_actions))
        out[np.arange(len(self.actions)), self.actions] = 1.0
        return out

    def action_of(self, s: int) -> int:
        if self.kind != "deterministic":
            raise ValueError("action_of is defined for deterministic policies only")
        return int(self.actions[s])


def greedy_actions(q: QTable, tol: float = 1e-9) -> np.ndarray:
    """Row-wise argmax with ties (within tol) broken by lowest action index.

    The tolerance makes tie-breaking stable across independently computed
    tables whose tied entries differ only by float rounding.
    """
    q = np.asarray(q, dtype=float)
    near_max = q >= q.max(axis=1, keepdims=True) - tol
    return near_max.argmax(axis=1)


def policy_values(mdp: TabularMDP, policy: Policy, q: QTable) -> np.ndarray:
    """V(s) = sum_a pi(a|s) Q(s, a)."""
    return (policy.matrix(mdp.num_actions) * q).sum(axis=1)


# ---------------------------------------------------------------------------
# Environment builders
# ---------------------------------------------------------------------------

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
    gr, gc = int(goal[0]), int(goal[1])
    if not (0 <= gr < height and 0 <= gc < width):
        raise ValueError(f"goal {goal} outside the {height}x{width} grid")

    def cell_index(r, c):
        return r * width + c

    num_states = width * height
    goal_state = cell_index(gr, gc)
    transitions = []
    rewards = np.zeros((num_states, 4))
    for s in range(num_states):
        r, c = divmod(s, width)
        rows = []
        for a in range(4):
            if s == goal_state:
                rows.append([(s, 1.0)])
                continue
            outcome = {}
            for move in range(4):
                p = slip_prob / 4.0 + (1.0 - slip_prob) * (move == a)
                if p == 0.0:
                    continue
                nr, nc = r + GRID_MOVES[move][0], c + GRID_MOVES[move][1]
                if not (0 <= nr < height and 0 <= nc < width):
                    nr, nc = r, c  # blocked moves stay put
                outcome[cell_index(nr, nc)] = outcome.get(cell_index(nr, nc), 0.0) + p
            rows.append(sorted(outcome.items()))
            rewards[s, a] = outcome.get(goal_state, 0.0)  # +1 paid on entering the goal
        transitions.append(rows)
    return TabularMDP(num_states, 4, transitions, rewards, gamma,
                      terminal_states=frozenset({goal_state}), start_state=0)


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
    grid = FROZENLAKE_MAPS[size]
    num_states = size * size
    goal_state = None
    start_state = 0
    terminals = set()
    for r in range(size):
        for c in range(size):
            ch = grid[r][c]
            s = r * size + c
            if ch == "S":
                start_state = s
            elif ch == "H":
                terminals.add(s)
            elif ch == "G":
                goal_state = s
                terminals.add(s)
    transitions = []
    rewards = np.zeros((num_states, 4))
    for s in range(num_states):
        r, c = divmod(s, size)
        rows = []
        for a in range(4):
            if s in terminals:
                rows.append([(s, 1.0)])
                continue
            moves = [(a, 1.0)] if not slippery else [
                (a, 1.0 / 3.0),
                (_PERPENDICULAR[a][0], 1.0 / 3.0),
                (_PERPENDICULAR[a][1], 1.0 / 3.0),
            ]
            outcome = {}
            for move, p in moves:
                nr, nc = r + GRID_MOVES[move][0], c + GRID_MOVES[move][1]
                if not (0 <= nr < size and 0 <= nc < size):
                    nr, nc = r, c
                s_next = nr * size + nc
                outcome[s_next] = outcome.get(s_next, 0.0) + p
            rows.append(sorted(outcome.items()))
            rewards[s, a] = outcome.get(goal_state, 0.0)
        transitions.append(rows)
    return TabularMDP(num_states, 4, transitions, rewards, gamma,
                      terminal_states=frozenset(terminals), start_state=start_state)


# ---------------------------------------------------------------------------
# Exact solvers and the Bellman operator
# ---------------------------------------------------------------------------

_MAX_SWEEPS = 10_000_000


def bellman_backup(mdp: TabularMDP, q: QTable, policy: Policy) -> QTable:
    """One synchronous backup (T_pi q)(s,a) = r + gamma * P @ V_pi(q)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(f"q table shape {q.shape} does not match the MDP")
    v = (policy.matrix(mdp.num_actions) * q).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # see TabularMDP.expect
        return mdp.rewards + mdp.gamma * mdp.expect(v)


def exact_policy_evaluation(mdp: TabularMDP, policy: Policy, tol: float = 1e-8) -> QTable:
    """Fixed point of T_pi to within tol in the infinity norm.

    Iterates synchronous backups until successive tables differ by less
    than tol * (1 - gamma) / gamma, which bounds the remaining distance to
    the fixed point by tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    threshold = math.inf if mdp.gamma == 0 else tol * (1.0 - mdp.gamma) / mdp.gamma
    q = np.zeros((mdp.num_states, mdp.num_actions))
    for _ in range(_MAX_SWEEPS):
        q_next = bellman_backup(mdp, q, policy)
        delta = np.max(np.abs(q_next - q))
        q = q_next
        if delta < threshold:
            return q
    raise RuntimeError("policy evaluation failed to converge")


def value_iteration(mdp: TabularMDP, tol: float = 1e-8) -> tuple[QTable, Policy]:
    """Optimal Q within tol plus the greedy policy (ties to lowest index)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    threshold = math.inf if mdp.gamma == 0 else tol * (1.0 - mdp.gamma) / mdp.gamma
    q = np.zeros((mdp.num_states, mdp.num_actions))
    for _ in range(_MAX_SWEEPS):
        q_next = mdp.rewards + mdp.gamma * mdp.expect(q.max(axis=1))
        delta = np.max(np.abs(q_next - q))
        q = q_next
        if delta < threshold:
            return q, Policy.deterministic(greedy_actions(q))
    raise RuntimeError("value iteration failed to converge")


def mc_policy_evaluation(mdp: TabularMDP, policy: Policy, num_trajectories: int,
                         horizon: int = 100, seed: int = 0) -> tuple[QTable, int]:
    """First-visit Monte Carlo estimate of Q_pi with exploring starts.

    Each trajectory starts at a uniformly random (s, a) pair, then follows
    the policy for `horizon` steps. Discounted returns from the first visit
    of each pair are averaged; pairs never visited estimate 0. The query
    count is one per trajectory (a rollout is one environment query).

    A trajectory that reaches a terminal state is absorbed: from there on it
    earns 0 and visits only terminal pairs, whose estimate is 0 however
    often they are visited, so it leaves the live set, and the loop ends
    once no trajectory is live. The estimates are those of stepping every
    trajectory to the horizon, bit for bit. Each step still draws its
    uniforms for every trajectory, live or not, so the random stream does
    not depend on when trajectories are absorbed. First visits are found by
    sorting (trajectory, pair, step) keys and summed in time-major,
    trajectory-ascending order, so memory is O(n * horizon) with no S*A
    term.
    """
    if num_trajectories < 1:
        raise ValueError("num_trajectories must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s_count, a_count = mdp.num_states, mdp.num_actions
    pair_count = s_count * a_count
    rng = stream(seed, 0)
    # per-row CDFs over the padded operator; a draw above a row's rounded
    # total lands on the row's last support state
    cum_p = np.cumsum(mdp.next_probs, axis=1)
    last = cum_p.shape[1] - 1
    cum_pi = np.cumsum(policy.matrix(a_count), axis=1)
    deterministic = policy.kind == "deterministic"
    terminal = np.zeros(s_count, dtype=bool)
    terminal[sorted(mdp.terminal_states)] = True

    n = num_trajectories
    # visited pairs, time-major, -1 once a trajectory is absorbed; the extra
    # zero row of rewards seeds the return recursion
    pairs = np.full((horizon, n), -1, dtype=np.intp)
    returns = np.zeros((horizon + 1, n))
    start = rng.integers(0, pair_count, size=n)
    live = np.arange(n)
    states = start // a_count
    actions = start % a_count
    steps = horizon
    for t in range(horizon):
        rows = states * a_count + actions
        pairs[t, live] = rows
        returns[t, live] = mdp.rewards[states, actions]
        absorbed = terminal[states]
        if absorbed.any():
            kept = ~absorbed
            live, states, rows = live[kept], states[kept], rows[kept]
            if live.size == 0:
                steps = t + 1
                break
        u = rng.random(n)[live]
        column = np.minimum((cum_p[rows] < u[:, None]).sum(axis=1), last)
        states = mdp.next_states[rows, column]
        if deterministic:
            actions = policy.actions[states]
        else:
            u2 = rng.random(n)[live]
            actions = np.minimum((cum_pi[states] < u2[:, None]).sum(axis=1), a_count - 1)

    returns = returns[:steps + 1]
    for t in range(steps - 1, -1, -1):
        returns[t] += mdp.gamma * returns[t + 1]

    # an entry equal to its trajectory's previous pair is never a first visit
    pairs = pairs[:steps]
    candidate = pairs >= 0
    candidate[1:] &= pairs[1:] != pairs[:-1]
    pairs = pairs.ravel()
    position = np.flatnonzero(candidate)  # time-major positions t * n + trajectory
    # sorted (trajectory, pair, t) keys: each (trajectory, pair) run opens
    # with its first visit
    key = ((position % n) * pair_count + pairs[position]) * steps + position // n
    key.sort()
    visit = key // steps
    first = np.ones(len(key), dtype=bool)
    first[1:] = visit[1:] != visit[:-1]
    key, visit = key[first], visit[first]
    position = np.sort(key % steps * n + visit // pair_count)  # time-major again
    pair = pairs[position]
    sums = np.bincount(pair, weights=returns.ravel()[position], minlength=pair_count)
    counts = np.bincount(pair, minlength=pair_count)

    estimate = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return estimate.reshape(s_count, a_count), num_trajectories


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def mdp_to_dict(mdp: TabularMDP) -> dict:
    """JSON-ready document; float round trips are bit-exact."""
    return {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "gamma": mdp.gamma,
        "start": mdp.start_state,
        "terminals": sorted(mdp.terminal_states),
        "rewards": [[float(x) for x in row] for row in mdp.rewards],
        "transitions": [
            {"s": s, "a": a, "rows": [[int(sn), float(p)] for sn, p in mdp.transitions[s][a]]}
            for s in range(mdp.num_states)
            for a in range(mdp.num_actions)
        ],
    }


def mdp_from_dict(doc: dict) -> TabularMDP:
    num_states = int(doc["num_states"])
    num_actions = int(doc["num_actions"])
    transitions = [[None] * num_actions for _ in range(num_states)]
    for entry in doc["transitions"]:
        transitions[int(entry["s"])][int(entry["a"])] = [
            (int(sn), float(p)) for sn, p in entry["rows"]
        ]
    return TabularMDP(
        num_states=num_states,
        num_actions=num_actions,
        transitions=transitions,
        rewards=np.asarray(doc["rewards"], dtype=float),
        gamma=float(doc["gamma"]),
        terminal_states=frozenset(int(t) for t in doc["terminals"]),
        start_state=int(doc["start"]),
    )


def save_mdp(mdp: TabularMDP, path: str | os.PathLike) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(mdp_to_dict(mdp), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_mdp(path: str | os.PathLike) -> TabularMDP:
    with open(path, "r", encoding="utf-8") as fh:
        return mdp_from_dict(json.load(fh))

import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpolicy import mdp as mdp_module
from qpolicy.cli import _write_json
from qpolicy.emulator import SHOT_SAMPLING, EstimatorConfig
from qpolicy.engine import QPolicyConfig, run_qpolicy
from qpolicy.mdp import (
    Policy,
    TabularMDP,
    action_max,
    bellman_backup,
    build_frozenlake,
    build_gridworld,
    exact_policy_evaluation,
    greedy,
    load_mdp,
    mc_policy_evaluation,
    mc_policy_evaluation_lockstep,
    mdp_from_dict,
    mdp_to_dict,
    policy_values,
    value_iteration,
)

from oracles import (
    TWO_STATE_TWO_ACTION_ROWS,
    absorbing_single,
    dense_cdf_mc_policy_evaluation,
    dense_transitions,
    enumerate_optimal_values,
    grid_row_oracle,
    grid_rows,
    lake_row_oracle,
    lake_rows,
    linear_solve_q,
    policy_iteration_q,
    random_mdp,
    random_rows,
    two_state_chain,
    two_state_two_action,
)


def operator_row(mdp: TabularMDP, s: int, a: int) -> dict:
    """Row (s, a) of the operator as {next_state: probability}, padding dropped."""
    r = s * mdp.num_actions + a
    return {int(sn): float(p) for sn, p in zip(mdp.next_states[r], mdp.next_probs[r]) if p > 0}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

class TestGridworld:
    def test_shape_and_goal(self, grid4):
        assert grid4.num_states == 16
        assert grid4.num_actions == 4
        assert grid4.terminal_states == {15}
        # entering the goal pays +1, so r(s, a) equals the mass landing on it
        for s in range(16):
            for a in range(4):
                into_goal = operator_row(grid4, s, a).get(15, 0.0)
                expected = 0.0 if s == 15 else into_goal
                assert grid4.rewards[s, a] == pytest.approx(expected, abs=0)

    def test_deterministic_limit(self):
        m = build_gridworld(4, 4, 0.0, (3, 3), 0.95)
        assert m.sparsity_d == 1
        assert np.all(m.next_probs == 1.0)

    def test_rows_match_slip_enumeration(self, grid4):
        # independent enumeration of the four slip outcomes against the walls
        for s in range(16):
            if s == 15:
                continue
            r, c = divmod(s, 4)
            for a in range(4):
                expected = grid_row_oracle(4, 4, 0.2, (r, c), a)
                got = operator_row(grid4, s, a)
                assert set(got) == set(expected)
                for key, p in expected.items():
                    assert got[key] == pytest.approx(p, abs=1e-15)

    def test_blocked_move_probabilities(self, grid4):
        # top edge, non-corner, action up: intended blocked plus slip-up blocked
        edge = grid_row_oracle(4, 4, 0.2, (0, 1), action=0)
        assert edge[1] == pytest.approx(0.85)
        assert operator_row(grid4, 1, 0)[1] == pytest.approx(0.85)
        # the actual corner blocks two slip outcomes, not one
        corner = grid_row_oracle(4, 4, 0.2, (0, 0), action=0)
        assert corner[0] == pytest.approx(0.90)
        assert operator_row(grid4, 0, 0)[0] == pytest.approx(0.90)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_gridworld(0, 4, 0.2, (0, 0), 0.95)
        with pytest.raises(ValueError):
            build_gridworld(1, 1, 0.2, (0, 0), 0.95)
        with pytest.raises(ValueError):
            build_gridworld(4, 4, 0.2, (4, 0), 0.95)
        with pytest.raises(ValueError, match=r"goal must be \(row, col\)"):
            build_gridworld(4, 4, 0.2, (3, 3, 7), 0.95)


class TestFrozenlake:
    def test_sizes(self):
        assert build_frozenlake(4, True, 0.95).num_states == 16
        assert build_frozenlake(8, True, 0.95).num_states == 64
        assert build_frozenlake(10, True, 0.95).num_states == 100

    def test_shape(self, frozen8):
        assert frozen8.num_actions == 4
        assert frozen8.start_state == 0
        assert 63 in frozen8.terminal_states  # goal bottom-right

    def test_deterministic_limit(self):
        m = build_frozenlake(8, False, 0.95)
        assert m.sparsity_d == 1
        assert np.all(m.next_probs == 1.0)

    def test_sparsity_at_most_three(self, frozen8):
        # row-support enumeration over the built model
        for s in range(frozen8.num_states):
            for a in range(4):
                support = len(operator_row(frozen8, s, a))
                assert support <= 3
        assert frozen8.sparsity_d <= 3

    def test_corner_blocks_two_of_three_moves(self, frozen8):
        # at the top-left corner, up and its perpendicular left both stay put
        corner = lake_row_oracle(8, True, (0, 0), action=0)
        assert corner == {0: 2.0 / 3.0, 1: 1.0 / 3.0}
        assert operator_row(frozen8, 0, 0) == corner
        assert lake_row_oracle(8, False, (0, 0), action=0) == {0: 1.0}

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            build_frozenlake(6, True, 0.95)


# name -> (builder call, the oracle's raw rows, goal state)
BUILT_ENVS = {
    "grid4_slip0": (lambda: build_gridworld(4, 4, 0.0, (3, 3)),
                    lambda: grid_rows(4, 4, 0.0, (3, 3)), 15),
    "grid4_slip0.2": (lambda: build_gridworld(4, 4, 0.2, (3, 3)),
                      lambda: grid_rows(4, 4, 0.2, (3, 3)), 15),
    "grid4_slip1": (lambda: build_gridworld(4, 4, 1.0, (3, 3)),
                    lambda: grid_rows(4, 4, 1.0, (3, 3)), 15),
    "grid5x3_slip0.35": (lambda: build_gridworld(5, 3, 0.35, (2, 4)),
                         lambda: grid_rows(5, 3, 0.35, (2, 4)), 14),
    "grid3x3_interior_goal": (lambda: build_gridworld(3, 3, 0.3, (1, 1)),
                              lambda: grid_rows(3, 3, 0.3, (1, 1)), 4),
    "grid1x4": (lambda: build_gridworld(1, 4, 0.35, (3, 0)),
                lambda: grid_rows(1, 4, 0.35, (3, 0)), 3),
    **{f"lake{size}_{'slippery' if slippery else 'still'}": (
        lambda size=size, slippery=slippery: build_frozenlake(size, slippery),
        lambda size=size, slippery=slippery: lake_rows(size, slippery),
        size * size - 1)
       for size in (4, 8, 10) for slippery in (True, False)},
}


@pytest.mark.parametrize("name", sorted(BUILT_ENVS))
def test_built_rows_match_oracle(name):
    # every row sorted by next state, merged, zero entries dropped, padded
    # on its last next state, and equal bit for bit to the enumerated row
    build, oracle_rows, goal = BUILT_ENVS[name]
    mdp, rows = build(), oracle_rows()
    width = mdp.sparsity_d
    for s in range(mdp.num_states):
        for a in range(mdp.num_actions):
            expected = {s_next: p for s_next, p in rows[s][a] if p > 0}
            support = sorted(expected)
            pad = width - len(support)
            r = s * mdp.num_actions + a
            assert mdp.next_states[r].tolist() == support + support[-1:] * pad
            assert mdp.next_probs[r].tolist() == [expected[k] for k in support] + [0.0] * pad
            into_goal = 0.0 if s in mdp.terminal_states else expected.get(goal, 0.0)
            assert mdp.rewards[s, a] == into_goal
    # the oracle writes a self-loop row for every action of a terminal cell
    self_loops = {s for s in range(mdp.num_states) if all(row == [(s, 1.0)] for row in rows[s])}
    assert goal in self_loops and mdp.terminal_states == self_loops


@pytest.mark.parametrize("mdp_factory", [
    lambda: build_gridworld(4, 4, 0.2, (3, 3), 0.95),
    lambda: build_gridworld(5, 3, 0.35, (2, 4), 0.9),
    lambda: build_frozenlake(4, True, 0.95),
    lambda: build_frozenlake(8, True, 0.95),
    lambda: build_frozenlake(10, True, 0.95),
])
def test_rows_sum_to_one(mdp_factory):
    mdp = mdp_factory()
    for s in range(mdp.num_states):
        for a in range(mdp.num_actions):
            total = sum(operator_row(mdp, s, a).values())
            assert abs(total - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Type invariants
# ---------------------------------------------------------------------------

def test_invalid_mdp_rejected():
    with pytest.raises(ValueError):  # row does not sum to 1
        TabularMDP.from_rows(1, 1, [[[(0, 0.5)]]], np.zeros((1, 1)), 0.9)
    with pytest.raises(ValueError):  # gamma not < 1
        TabularMDP.from_rows(1, 1, [[[(0, 1.0)]]], np.zeros((1, 1)), 1.0)
    with pytest.raises(ValueError):  # terminal must have zero reward
        TabularMDP.from_rows(1, 1, [[[(0, 1.0)]]], np.ones((1, 1)), 0.9,
                             terminal_states=frozenset({0}))
    with pytest.raises(ValueError):  # terminal must self-loop
        TabularMDP.from_rows(2, 1, [[[(1, 1.0)]], [[(0, 1.0)]]], np.zeros((2, 1)), 0.9,
                             terminal_states=frozenset({0}))
    with pytest.raises(ValueError):  # empty row
        TabularMDP.from_rows(1, 1, [[[]]], np.zeros((1, 1)), 0.9)
    with pytest.raises(ValueError):  # an entry that is not a pair
        TabularMDP.from_rows(1, 1, [[[(0, 1.0, 0.0)]]], np.zeros((1, 1)), 0.9)
    with pytest.raises(ValueError):  # a state without a row per action
        TabularMDP.from_rows(2, 1, [[[(0, 1.0)]], []], np.zeros((2, 1)), 0.9)
    with pytest.raises(ValueError):  # operator arrays of different shapes
        TabularMDP(1, 1, np.zeros((1, 2)), np.ones((1, 1)), np.zeros((1, 1)), 0.9)


def grid4_doc(**changes) -> dict:
    doc = mdp_to_dict(build_gridworld(4, 4, 0.2, (3, 3), 0.95))
    doc.update(changes)
    return doc


def grid4_rewards(first) -> list:
    """The grid's rewards with entry (0, 0) replaced by first."""
    rewards = grid4_doc()["rewards"]
    rewards[0][0] = first
    return rewards


@pytest.mark.parametrize("doc, message", [
    (grid4_doc(transitions=[{"s": 0, "a": 0, "rows": [[1, float("nan")]]}]
               + grid4_doc()["transitions"][1:]),
     "row (0, 0): probabilities must be finite and nonnegative"),
    (grid4_doc(terminals=[15, 40]), "terminal states must be integers in [0, 16)"),
    (grid4_doc(transitions=[{"s": 0, "a": 0, "rows": [[1.7, 1.0]]}]
               + grid4_doc()["transitions"][1:]),
     "row (0, 0): next states must be integers in [0, 16)"),
    (grid4_doc(transitions=[dict(grid4_doc()["transitions"][0], s=16)]
               + grid4_doc()["transitions"][1:]),
     "transitions entry 0: (s, a) = (16, 0) is not a pair of integers in [0, 16) x [0, 4)"),
    (grid4_doc(transitions=[dict(grid4_doc()["transitions"][0], s=-1)]
               + grid4_doc()["transitions"][1:]),
     "transitions entry 0: (s, a) = (-1, 0) is not a pair of integers in [0, 16) x [0, 4)"),
    (grid4_doc(transitions=[dict(grid4_doc()["transitions"][0], a=1.5)]
               + grid4_doc()["transitions"][1:]),
     "transitions entry 0: (s, a) = (0, 1.5) is not a pair of integers in [0, 16) x [0, 4)"),
    (grid4_doc(transitions=grid4_doc()["transitions"]
               + [{"s": 0, "a": 0, "rows": [[1, 1.0]]}]),
     "transitions entry 64: a second row for (s, a) = (0, 0)"),
    (grid4_doc(transitions=grid4_doc()["transitions"][:5] + grid4_doc()["transitions"][6:]),
     "transitions has no entry for (s, a) = (1, 1)"),
    (grid4_doc(num_states=16.9), "num_states must be an integer, got 16.9"),
    (grid4_doc(num_actions=4.5), "num_actions must be an integer, got 4.5"),
    (grid4_doc(start=1.5), "start must be an integer, got 1.5"),
    (grid4_doc(start=True), "start must be an integer, got True"),
    (grid4_doc(gamma="0.5"), "gamma must be a number, got '0.5'"),
    (grid4_doc(gamma=True), "gamma must be a number, got True"),
    # JSON leaves are typed before any float conversion could read them as 1
    (grid4_doc(rewards=grid4_rewards("1")), "rewards must be a list of lists of numbers, got '1'"),
    (grid4_doc(rewards=grid4_rewards(True)), "rewards must be a list of lists of numbers, got True"),
    (grid4_doc(transitions=[{"s": 0, "a": 0, "rows": [[1, True]]}]
               + grid4_doc()["transitions"][1:]),
     "transitions rows must be lists of [next state, probability] number pairs, got True"),
    (grid4_doc(transitions=[{"s": 0, "a": 0, "rows": [["0", 1.0]]}]
               + grid4_doc()["transitions"][1:]),
     "transitions rows must be lists of [next state, probability] number pairs, got '0'"),
    (grid4_doc(terminals="15"), "terminals must be a list of numbers, got '15'"),
], ids=["nan_probability", "terminal_out_of_range", "fractional_next_state", "state_past_end",
        "negative_state", "fractional_action", "repeated_pair", "missing_pair",
        "fractional_num_states", "fractional_num_actions", "fractional_start", "bool_start",
        "string_gamma", "bool_gamma", "string_reward", "bool_reward", "bool_probability",
        "string_next_state", "string_terminals"])
def test_bad_environment_document_rejected(doc, message):
    with pytest.raises(ValueError) as exc:
        mdp_from_dict(doc)
    assert str(exc.value) == message


def test_policy_validation():
    whole = Policy([1.0, 0.0]).actions
    assert whole.dtype == np.intp and whole.tolist() == [1, 0]
    # kept as given for check_policy to reject, not truncated to 1
    assert Policy([1.7, 0.0]).actions.tolist() == [1.7, 0.0]


def test_policies_equal_exactly_when_their_actions_are():
    assert Policy([0, 1]) == Policy([0, 1])
    assert Policy([0, 1]) == Policy(np.array([0.0, 1.0]))
    assert Policy([0, 1]) != Policy([1, 0])
    assert Policy([0, 1]) != Policy([0, 1, 0])
    assert Policy([0, 1]) != [0, 1]
    assert Policy([0, 1]) != np.array([0, 1])


POLICY_READERS = {
    "policy_values": lambda mdp, pi: policy_values(mdp, pi, np.zeros((16, 4))),
    "bellman_backup": lambda mdp, pi: bellman_backup(mdp, np.zeros((16, 4)), pi),
    "exact_policy_evaluation": exact_policy_evaluation,
    "mc_policy_evaluation": lambda mdp, pi: mc_policy_evaluation(mdp, pi, 10, 5, seed=0),
    "mc_policy_evaluation_lockstep":
        lambda mdp, pi: mc_policy_evaluation_lockstep(mdp, [pi], 10, 5, [0]),
}


@pytest.mark.parametrize("reader", sorted(POLICY_READERS))
@pytest.mark.parametrize("policy", [
    Policy(np.full(16, -1)),  # would wrap round to RIGHT everywhere
    Policy(np.full(16, 4)),
    Policy(np.full(16, 1.7)),  # would be truncated to DOWN
    Policy(np.zeros(15, dtype=int)),
    Policy(np.full((16, 5), 0.2)),  # (S, A + 1) action probabilities
], ids=["minus_one", "A", "fractional", "one_state_short", "probs_one_action_wide"])
def test_policy_checked_against_the_mdp(grid4, reader, policy):
    with pytest.raises(ValueError, match="policy needs"):
        POLICY_READERS[reader](grid4, policy)


def test_unchosen_entries_are_not_read(grid4):
    # only q[s, pi(s)] is read, so an inf at an action no state takes stays out
    q = np.zeros((16, 4))
    q[0, 1] = np.inf
    policy = Policy(np.zeros(16, dtype=int))
    assert np.array_equal(policy_values(grid4, policy, q), np.zeros(16))
    assert np.array_equal(bellman_backup(grid4, q, policy), grid4.rewards)


def test_sparsity_d_bounded(grid4, frozen8):
    for mdp in (grid4, frozen8):
        assert 1 <= mdp.sparsity_d <= mdp.num_states


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------

class TestExactEvaluation:
    def test_absorbing_geometric(self):
        mdp = absorbing_single(reward=1.0, gamma=0.5)
        q = exact_policy_evaluation(mdp, Policy([0]), 1e-10)
        assert q[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_gamma_zero_is_reward(self, grid4):
        mdp = grid4.with_gamma(0.0)
        policy = Policy(np.random.default_rng(0).integers(0, 4, 16))
        q = exact_policy_evaluation(mdp, policy, 1e-8)
        assert np.array_equal(q, mdp.rewards)

    def test_matches_linear_solve_on_grid(self, grid4, grid4_rows):
        _, greedy = value_iteration(grid4, 1e-10)
        q_iter = exact_policy_evaluation(grid4, greedy, 1e-8)
        q_solve = linear_solve_q(grid4, greedy, grid4_rows)
        assert np.abs(q_iter - q_solve).max() < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_solve_agreement_invariant(self, seed):
        rows, rewards = random_rows(num_states=30, num_actions=3, seed=seed)
        mdp = TabularMDP.from_rows(30, 3, rows, rewards, 0.9)
        policy = Policy((np.arange(30) + seed) % 3)
        tol = 1e-8
        q_iter = exact_policy_evaluation(mdp, policy, tol)
        q_solve = linear_solve_q(mdp, policy, rows)
        assert np.abs(q_iter - q_solve).max() < 10 * tol

    def test_linear_solve_agreement_on_lake(self, frozen8, frozen8_rows):
        tol = 1e-8
        policy = Policy(np.arange(64) % 4)
        q_iter = exact_policy_evaluation(frozen8, policy, tol)
        assert np.abs(q_iter - linear_solve_q(frozen8, policy, frozen8_rows)).max() < 10 * tol

    def test_rejects_bad_tol(self, grid4):
        # a NaN tol fails every stop test, so it would sweep _MAX_SWEEPS times
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                exact_policy_evaluation(grid4, Policy(np.zeros(16, dtype=int)), tol)

    @pytest.mark.parametrize("name", ["grid4", "frozen8"])
    def test_checks_once_and_equals_the_backup_sweep(self, name, request, monkeypatch):
        mdp = request.getfixturevalue(name)
        policy = Policy(np.random.default_rng(4).integers(0, 4, mdp.num_states))
        chosen = np.arange(mdp.num_states) * 4 + policy.actions
        want = value_sweep(mdp, 1e-10, lambda q: q.ravel()[chosen])
        original, checks = mdp_module.check_policy, []
        monkeypatch.setattr(mdp_module, "check_policy",
                            lambda *args: checks.append(args) or original(*args))
        got = exact_policy_evaluation(mdp, policy, 1e-10)
        assert len(checks) == 1
        assert got.tobytes() == want.tobytes()


class TestValueIteration:
    def test_absorbing(self):
        q, _ = value_iteration(absorbing_single(1.0, 0.5), 1e-10)
        assert q.max() == pytest.approx(2.0, abs=1e-9)

    def test_two_state_chain(self):
        q, _ = value_iteration(two_state_chain(0.9), 1e-10)
        assert q[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_exhaustive_enumeration_2x2(self):
        for mdp, rows in [
            (build_gridworld(2, 2, 0.2, (1, 1), 0.9), grid_rows(2, 2, 0.2, (1, 1))),
            (two_state_two_action(0.5), TWO_STATE_TWO_ACTION_ROWS),
        ]:
            best = enumerate_optimal_values(mdp, rows)
            q, policy = value_iteration(mdp, 1e-10)
            assert np.abs(q.max(axis=1) - best).max() < 1e-8
            # the greedy policy attains the enumerated optimum
            v_pi = policy_values(mdp, policy, linear_solve_q(mdp, policy, rows))
            assert np.abs(v_pi - best).max() < 1e-8

    def test_rejects_bad_tol(self, grid4):
        for tol in (0.0, -1e-8, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                value_iteration(grid4, tol)

    def test_tie_break_lowest_index(self):
        assert greedy(np.array([[2.0, 2.0, 0.0, 2.0]]))[1][0] == 0
        assert greedy(np.array([[0.0, 5.0, 3.0, 1.0]]))[1][0] == 1


# each solver at its default tol or a given one, with policy 0 to evaluate
SOLVERS = {
    "exact_policy_evaluation": lambda mdp, *tol: exact_policy_evaluation(
        mdp, Policy(np.zeros(mdp.num_states, dtype=int)), *tol),
    "value_iteration": value_iteration,
}


def value_sweep(mdp: TabularMDP, tol: float, values) -> np.ndarray:
    """The solvers' procedure in plain numpy: v <- values(r + gamma * E[v])
    from v = 0 until v changes by less than tol * (1 - gamma) / gamma, then
    the table r + gamma * E[v]. E[v] sums each operator row left to right,
    as numpy sums a row of up to 7 entries."""
    threshold = math.inf if mdp.gamma == 0 else tol * (1.0 - mdp.gamma) / mdp.gamma

    def table(v):
        expected = (mdp.next_probs * v[mdp.next_states]).sum(axis=1)
        return mdp.rewards + mdp.gamma * expected.reshape(mdp.num_states, mdp.num_actions)
    v = np.zeros(mdp.num_states)
    while True:
        v_next = values(table(v))
        delta, v = np.max(np.abs(v_next - v)), v_next
        if delta < threshold:
            return table(v)


# name -> a built MDP, or a random one with rewards of both signs
TABLE_SWEEP_MDPS = {
    "grid4": lambda: build_gridworld(4, 4, 0.2, (3, 3), 0.95),
    "frozen8": lambda: build_frozenlake(8, True, 0.95),
    "random9": lambda: random_mdp(9, 3, 0.9, 5),
    "random20_wide": lambda: random_mdp(20, 4, 0.9, 6, branching=7),
}
# name -> the raw rows of that model, from the oracles
TABLE_SWEEP_ROWS = {
    "grid4": lambda: grid_rows(4, 4, 0.2, (3, 3)),
    "frozen8": lambda: lake_rows(8, True),
    "random9": lambda: random_rows(9, 3, 5)[0],
    "random20_wide": lambda: random_rows(20, 4, 6, branching=7)[0],
}


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("gamma", [None, 0.0, 0.99])
@pytest.mark.parametrize("name", TABLE_SWEEP_MDPS)
def test_solvers_equal_the_table_sweep(name, gamma, tol):
    # both sweep the value vector and build the table once, at the stop;
    # a stop one sweep early or late changes the bytes
    mdp = TABLE_SWEEP_MDPS[name]()
    mdp = mdp if gamma is None else mdp.with_gamma(gamma)
    q_star, policy = value_iteration(mdp, tol)
    want = value_sweep(mdp, tol, lambda q: q.max(axis=1))
    assert q_star.tobytes() == want.tobytes()
    assert policy == Policy(greedy(want)[1])
    for pi in (policy, Policy(np.arange(mdp.num_states) % mdp.num_actions)):
        got = exact_policy_evaluation(mdp, pi, tol)
        chosen = np.arange(mdp.num_states) * mdp.num_actions + pi.actions
        assert got.tobytes() == value_sweep(mdp, tol, lambda q: q.ravel()[chosen]).tobytes()


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("gamma", [None, 0.99])
@pytest.mark.parametrize("name", TABLE_SWEEP_MDPS)
def test_solvers_are_within_gamma_tol_of_the_linear_solve(name, gamma, tol):
    # the stop on the values bounds each table's distance to its fixed
    # point by gamma * tol; 1e-12 covers the linear solve's own rounding
    mdp, rows = TABLE_SWEEP_MDPS[name](), TABLE_SWEEP_ROWS[name]()
    mdp = mdp if gamma is None else mdp.with_gamma(gamma)
    bound = mdp.gamma * tol + 1e-12
    q_star, policy = value_iteration(mdp, tol)
    assert np.abs(q_star - policy_iteration_q(mdp, rows)).max() <= bound
    for pi in (policy, Policy(np.arange(mdp.num_states) % mdp.num_actions)):
        got = exact_policy_evaluation(mdp, pi, tol)
        assert np.abs(got - linear_solve_q(mdp, pi, rows)).max() <= bound


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver, rewards", [
    ("exact_policy_evaluation", [1e307, 1.7e308]),  # pi = [0]: action 1 is never read
    ("value_iteration", [-1e307, -1.7e308]),  # action 1 is never the max
])
def test_solver_raises_when_an_unread_entry_overflows(solver, rewards):
    # one state, two self-loop actions. The value settles at 2e307 (-2e307),
    # finite, by sweep 52, but action 1's entry r + 0.5 * v in the table
    # built from it leaves the float range, which the values do not show
    mdp = TabularMDP(1, 2, [[0], [0]], [[1.0], [1.0]], [rewards], 0.5)
    message = "policy evaluation" if solver == "exact_policy_evaluation" else "value iteration"
    with pytest.raises(RuntimeError, match=f"^{message} diverged: the table after sweep 52 "
                                           "left the float range$"):
        SOLVERS[solver](mdp, 1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver", SOLVERS)
def test_solver_raises_once_the_values_overflow(solver):
    # 1e308 + 0.99 * 1e308 is inf, so the second sweep's change is not
    # finite, and no later sweep can converge: from there on it is nan
    start = time.perf_counter()
    message = "policy evaluation" if solver == "exact_policy_evaluation" else "value iteration"
    with pytest.raises(RuntimeError,
                       match=f"^{message} diverged: sweep 1 changed the values by inf$"):
        SOLVERS[solver](absorbing_single(reward=1e308, gamma=0.99))
    assert time.perf_counter() - start < 1.0


class TestBellmanBackup:
    def test_fixed_point(self, grid4, grid4_rows):
        _, greedy = value_iteration(grid4, 1e-10)
        q = linear_solve_q(grid4, greedy, grid4_rows)
        assert np.abs(bellman_backup(grid4, q, greedy) - q).max() <= 1e-12

    def test_fixed_point_exact_chain(self):
        mdp = two_state_chain(0.9)
        pi = Policy([0, 0])
        q = np.array([[1.0], [0.0]])
        assert np.array_equal(bellman_backup(mdp, q, pi), q)

    def test_contraction_on_random_pairs(self, grid4):
        rng = np.random.default_rng(7)
        pi = Policy(rng.integers(0, 4, 16))
        for _ in range(100):
            q1 = rng.normal(size=(16, 4))
            q2 = rng.normal(size=(16, 4))
            lhs = np.abs(bellman_backup(grid4, q1, pi) - bellman_backup(grid4, q2, pi)).max()
            rhs = grid4.gamma * np.abs(q1 - q2).max()
            assert lhs <= rhs + 1e-12

    def test_zero_table_gives_rewards(self):
        mdp = absorbing_single(0.7, 0.3)
        out = bellman_backup(mdp, np.zeros((1, 1)), Policy([0]))
        assert np.array_equal(out, mdp.rewards)

    def test_shape_mismatch(self, grid4):
        with pytest.raises(ValueError):
            bellman_backup(grid4, np.zeros((3, 4)), Policy(np.zeros(16, dtype=int)))


def reference_greedy(q: np.ndarray) -> np.ndarray:
    """The first action within 1e-9 of numpy's row max, by argmax over the mask."""
    return (q >= q.max(axis=-1, keepdims=True) - 1e-9).argmax(axis=-1)


@pytest.mark.parametrize("num_actions", range(1, 7))
def test_max_over_actions_matches_numpy_bit_for_bit(num_actions):
    # exact ties, ties within 1e-9 and both signed zeros in every position
    rng = np.random.default_rng(num_actions)
    exact = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(2, 3, 200, num_actions))
    near = exact + rng.choice([0.0, 0.0, 4e-10, -4e-10, 3e-9], size=exact.shape)
    zeros = np.where(rng.random(exact.shape) < 0.7, 0.0 * exact, exact)
    for q in (exact, near, zeros):
        best = q.max(axis=-1)
        assert action_max(q).tobytes() == best.tobytes()
        assert action_max(q[0, 0]).tobytes() == best[0, 0].tobytes()
        values, actions = greedy(q)
        assert values.tobytes() == best.tobytes()
        assert actions.dtype == np.intp and np.array_equal(actions, reference_greedy(q))
        assert np.array_equal(greedy(q[1, 2])[1], reference_greedy(q[1, 2]))
    if num_actions > 1:
        # the rows that tell the rules apart occur: a max of each sign taken
        # between tied zeros, and a lowest near action that is not the argmax
        best = zeros.max(axis=-1)
        tied = (zeros == 0).sum(axis=-1) > 1
        assert np.any(tied & (best == 0) & np.signbit(best))
        assert np.any(tied & (best == 0) & ~np.signbit(best))
        assert np.any(reference_greedy(near) != near.argmax(axis=-1))


def test_greedy_improvement_monotone(grid4):
    rng = np.random.default_rng(3)
    for _ in range(5):
        policy = Policy(rng.integers(0, 4, size=16))
        q = exact_policy_evaluation(grid4, policy, 1e-9)
        improved = Policy(greedy(q)[1])
        v_old = policy_values(grid4, policy, q)
        v_new = policy_values(grid4, improved, exact_policy_evaluation(grid4, improved, 1e-9))
        assert np.all(v_new >= v_old - 1e-9)


# ---------------------------------------------------------------------------
# The sparse operator against the dense oracle
# ---------------------------------------------------------------------------

def scrambled_random_rows(num_states, num_actions, seed, branching, dup_row):
    """random_rows with every row reversed, so unsorted, in row dup_row the
    first entry split in two parts with the second moved to the end, and a
    zero-probability entry appended to the row after it."""
    base, rewards = random_rows(num_states, num_actions, seed, branching)
    rows = [[list(reversed(row)) for row in state_rows] for state_rows in base]
    s, a = divmod(dup_row % (num_states * num_actions), num_actions)
    row = rows[s][a]
    s_next, p = row[0]
    row[0] = (s_next, 0.3 * p)
    row.append((s_next, p - 0.3 * p))
    s, a = divmod((dup_row + 1) % (num_states * num_actions), num_actions)
    rows[s][a].append((num_states - 1 - s, 0.0))
    return rows, rewards


def check_against_dense(mdp, rows, seed):
    """expect, the backup and both solvers against the dense oracle built
    from the raw rows."""
    dense = dense_transitions(rows)
    assert np.array_equal(mdp.transition_matrix(), dense)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, size=mdp.num_states)
    assert np.abs(mdp.expect(v) - dense.dot(v)).max() <= 1e-12
    policy = Policy(rng.integers(0, mdp.num_actions, mdp.num_states))
    q = rng.uniform(-1, 1, size=(mdp.num_states, mdp.num_actions))
    expected = mdp.rewards + mdp.gamma * dense.dot(policy_values(mdp, policy, q))
    assert np.abs(bellman_backup(mdp, q, policy) - expected).max() <= 1e-12
    q_pi = exact_policy_evaluation(mdp, policy, 1e-13)
    assert np.abs(q_pi - linear_solve_q(mdp, policy, rows)).max() <= 1e-12
    q_star, _ = value_iteration(mdp, 1e-13)
    residual = mdp.rewards + mdp.gamma * dense.dot(q_star.max(axis=1)) - q_star
    assert np.abs(residual).max() <= 1e-12


class TestOperator:
    def test_rows_sorted_merged_and_padded(self):
        mdp = TabularMDP.from_rows(2, 2, [[[(1, 0.5), (0, 0.25), (1, 0.25)], [(0, 1.0)]],
                                          [[(1, 1.0)], [(1, 0.5), (0, 0.5)]]],
                                   np.zeros((2, 2)), 0.9)
        assert mdp.next_states.tolist() == [[0, 1], [0, 0], [1, 1], [0, 1]]
        assert mdp.next_probs.tolist() == [[0.25, 0.75], [1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]
        assert mdp.sparsity_d == 2  # the repeated next state counts once
        assert not mdp.next_states.flags.writeable
        assert not mdp.next_probs.flags.writeable

    def test_arrays_of_any_width_are_normalised(self):
        # unsorted rows with a repeat, zero entries and float next states
        next_states = np.array([[2.0, 0.0, 2.0, 1.0], [1.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
        next_probs = np.array([[0.25, 0.0, 0.5, 0.25], [0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        mdp = TabularMDP(3, 1, next_states, next_probs, np.zeros((3, 1)), 0.9,
                         terminal_states=frozenset({2}))
        assert mdp.next_states.dtype == np.intp
        assert mdp.next_states.tolist() == [[1, 2], [1, 1], [2, 2]]
        assert mdp.next_probs.tolist() == [[0.25, 0.75], [1.0, 0.0], [1.0, 0.0]]
        assert mdp.sparsity_d == 2
        rows = [entry["rows"] for entry in mdp_to_dict(mdp)["transitions"]]
        assert rows == [[[1, 0.25], [2, 0.75]], [[1, 1.0]], [[2, 1.0]]]

    def test_padding_reads_only_the_row_support(self):
        # an infinite value outside a row's support must not reach it as 0 * inf
        mdp = TabularMDP.from_rows(3, 1, [[[(1, 1.0)]], [[(2, 0.5), (1, 0.5)]], [[(2, 1.0)]]],
                                   np.zeros((3, 1)), 0.9)
        with np.errstate(all="raise"):
            out = mdp.expect(np.array([np.inf, 1.0, 2.0]))
        assert out[:, 0].tolist() == [1.0, 1.5, 2.0]

    def test_stored_by_column(self, grid4):
        # the (S*A, d) arrays are transposed views of contiguous columns
        for rows in (grid4.next_states, grid4.next_probs):
            assert rows.shape == (64, 4)
            assert rows.T.flags.c_contiguous and not rows.flags.c_contiguous
            assert not rows.flags.writeable and not rows.T.flags.writeable
        assert grid4.next_states.dtype == np.intp
        assert grid4.next_probs.dtype == np.float64

    @pytest.mark.parametrize("width", range(1, 10))
    def test_expect_is_the_row_sum_bit_for_bit(self, width):
        # every row of `width` distinct next states but one narrower, padded
        # row; values over six decades, so a different order of the sum
        # changes last bits. From 8 entries numpy sums a row in 8 lanes, so
        # there only the rounding bound of a sum of 9 terms holds
        num_states, num_actions = 40, 3
        rng = np.random.default_rng(width)
        next_states = np.array([np.sort(rng.choice(num_states - 1, size=width, replace=False))
                                for _ in range(num_states * num_actions)])
        next_probs = rng.dirichlet(np.ones(width), size=len(next_states))
        next_states[1], next_probs[1] = 1, np.eye(width)[0]
        mdp = TabularMDP(num_states, num_actions, next_states, next_probs,
                         np.zeros((num_states, num_actions)), 0.9)
        assert mdp.sparsity_d == width
        v = rng.normal(size=num_states) * 10.0 ** rng.uniform(-3, 3, size=num_states)
        v[mdp.next_states[0]] = -0.0  # row 0 adds only -0.0 products
        v[num_states - 1] = np.inf  # in no row, so no padding may read it as 0 * inf
        stack = np.stack([v, -v, 2.0 * v])
        # numpy's sum over each contiguous row of C-ordered (S*A, d) arrays
        states, probs = np.ascontiguousarray(mdp.next_states), np.ascontiguousarray(mdp.next_probs)
        for values in (v, stack):
            terms = probs * values[..., states]
            rows = terms.sum(axis=-1)
            out = mdp.expect(values)
            assert out.shape == values.shape[:-1] + (num_states, num_actions)
            if width <= 7:
                assert out.tobytes() == rows.tobytes()
            else:
                bound = 9 * np.finfo(float).eps * np.abs(terms).sum(axis=-1)
                assert np.all(np.abs(out.reshape(rows.shape) - rows) <= bound)
        assert mdp.expect(v)[0, 0] == 0.0 and not np.signbit(mdp.expect(v)[0, 0])

    @pytest.mark.parametrize("name", ["grid4", "frozen8"])
    def test_matches_dense_oracle(self, name, request):
        check_against_dense(request.getfixturevalue(name),
                            request.getfixturevalue(f"{name}_rows"), seed=0)

    @settings(max_examples=40, deadline=None)
    @given(num_states=st.integers(1, 12), num_actions=st.integers(1, 4),
           gamma=st.floats(0.0, 0.8), seed=st.integers(0, 2**32 - 1),
           branching=st.integers(1, 4), dup_row=st.integers(0, 47))
    def test_matches_dense_oracle_on_scrambled_rows(self, num_states, num_actions, gamma,
                                                    seed, branching, dup_row):
        rows, rewards = scrambled_random_rows(num_states, num_actions, seed, branching, dup_row)
        mdp = TabularMDP.from_rows(num_states, num_actions, rows, rewards, gamma)
        check_against_dense(mdp, rows, seed)


@pytest.fixture(scope="module")
def grid100():
    return build_gridworld(100, 100, 0.2, (99, 99), 0.95)


def test_100x100_grid_needs_no_dense_tensor(grid100, monkeypatch):
    # the dense (S, A, S) tensor of this grid would take 3.2 GB
    def refuse(self):
        raise AssertionError("transition_matrix() called")
    monkeypatch.setattr(TabularMDP, "transition_matrix", refuse)
    mdp = grid100
    q_star, greedy = value_iteration(mdp, 1e-6)
    q_pi = exact_policy_evaluation(mdp, greedy, 1e-6)
    assert np.abs(q_pi - q_star).max() < 1e-5
    q_mc, queries = mc_policy_evaluation(mdp, greedy, 200, horizon=20, seed=0)
    assert queries == 200 and np.all(np.isfinite(q_mc))
    config = QPolicyConfig(estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=256),
                           max_iterations=3, seed=0)
    records, _ = run_qpolicy(mdp, config)
    assert len(records) == 3


# ---------------------------------------------------------------------------
# Monte Carlo evaluation
# ---------------------------------------------------------------------------

# name -> (the MDP, the oracle's raw rows of it)
SAMPLER_ENVS = {
    "grid4": lambda: (build_gridworld(4, 4, 0.2, (3, 3), 0.95), grid_rows(4, 4, 0.2, (3, 3))),
    "grid4_deterministic": lambda: (build_gridworld(4, 4, 0.0, (3, 3), 0.95),
                                    grid_rows(4, 4, 0.0, (3, 3))),
    "frozen8": lambda: (build_frozenlake(8, True, 0.95), lake_rows(8, True)),
    "lake4_deterministic": lambda: (build_frozenlake(4, False, 0.95), lake_rows(4, False)),
    "random6_no_terminal": lambda: (random_mdp(6, 3, 0.9, 4), random_rows(6, 3, 4)[0]),
    # rows of 9 entries, so each step compares against a CDF of 8 columns
    "random12_wide": lambda: (random_mdp(12, 3, 0.9, 7, branching=9),
                              random_rows(12, 3, 7, branching=9)[0]),
}


def sampler_policies(mdp: TabularMDP) -> dict:
    """Greedy; random, seeded actions, which on a deterministic lake may
    cycle for ever; toward_terminal, seeded actions that each step, by the
    first entry of their row, closer to a terminal where one can, so that
    on a deterministic MDP every trajectory is absorbed within S steps; and
    all-UP (action 0), which on the slippery grid rarely and on the
    deterministic one never reaches the goal."""
    s_count, a_count = mdp.num_states, mdp.num_actions
    _, greedy = value_iteration(mdp, 1e-8)
    rng = np.random.default_rng(s_count)
    first = mdp.next_states[:, 0].reshape(s_count, a_count)
    # moves to a terminal, by breadth-first relaxation
    distance = np.full(s_count, s_count)
    distance[sorted(mdp.terminal_states)] = 0
    for _ in range(s_count):
        distance = np.minimum(distance, distance[first].min(axis=1) + 1)
    closer = distance[first] < distance[:, None]
    return {
        "greedy": greedy,
        "random": Policy(rng.integers(0, a_count, s_count)),
        "toward_terminal": Policy((rng.random((s_count, a_count))
                                                 + closer).argmax(axis=1)),
        "all_up": Policy(np.zeros(s_count, dtype=int)),
    }


def count_uniform_draws(monkeypatch) -> dict:
    """Sizes of the sampler's rng.random calls by stream seed, recorded from
    now on."""
    sizes = defaultdict(list)
    real_stream = mdp_module.stream

    class Counting:
        def __init__(self, seed, *key):
            self.rng, self.sizes = real_stream(seed, *key), sizes[seed]

        def integers(self, *args, **kwargs):
            return self.rng.integers(*args, **kwargs)

        def random(self, size):
            self.sizes.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(mdp_module, "stream", Counting)
    return sizes


class TestMonteCarlo:
    def test_query_count_is_trajectories(self, grid4):
        _, queries = mc_policy_evaluation(grid4, sampler_policies(grid4)["random"], 1000,
                                          horizon=10, seed=0)
        assert queries == 1000

    def test_deterministic_env_matches_exact(self):
        mdp = build_gridworld(2, 2, 0.0, (1, 1), 0.9)
        _, policy = value_iteration(mdp, 1e-10)
        horizon = 40
        q_mc, _ = mc_policy_evaluation(mdp, policy, 1500, horizon=horizon, seed=5)
        q_exact = linear_solve_q(mdp, policy, grid_rows(2, 2, 0.0, (1, 1)))
        bound = mdp.gamma ** horizon / (1 - mdp.gamma)
        assert np.abs(q_mc - q_exact).max() <= bound + 1e-12

    def test_std_scales_inverse_sqrt(self, grid4):
        _, policy = value_iteration(grid4, 1e-8)
        budgets = [250, 1000, 4000, 16000]
        seeds = range(10)
        spreads = []
        for budget in budgets:
            tables = [mc_policy_evaluation(grid4, policy, budget, horizon=60,
                                           seed=s)[0] for s in seeds]
            stack = np.stack(tables)
            spreads.append(stack.std(axis=0, ddof=1).mean())
        slope = np.polyfit(np.log(budgets), np.log(spreads), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_unbiased_up_to_truncation(self):
        mdp = build_gridworld(2, 2, 0.2, (1, 1), 0.9)
        _, policy = value_iteration(mdp, 1e-10)
        horizon = 80
        tables = np.stack([
            mc_policy_evaluation(mdp, policy, 400, horizon=horizon, seed=s)[0]
            for s in range(50)
        ])
        q_exact = linear_solve_q(mdp, policy, grid_rows(2, 2, 0.2, (1, 1)))
        mean = tables.mean(axis=0)
        se = tables.std(axis=0, ddof=1) / np.sqrt(50)
        truncation = mdp.gamma ** horizon / (1 - mdp.gamma)
        assert np.all(np.abs(mean - q_exact) <= 3 * se + truncation + 1e-12)

    @pytest.mark.parametrize("name", ["grid4", "frozen8"])
    def test_bitwise_equal_to_dense_cdf_sampler(self, name, request):
        mdp, rows = request.getfixturevalue(name), request.getfixturevalue(f"{name}_rows")
        _, greedy = value_iteration(mdp, 1e-8)
        for seed, policy in enumerate([greedy, sampler_policies(mdp)["random"]]):
            q_mc, _ = mc_policy_evaluation(mdp, policy, 300, horizon=40, seed=seed)
            q_ref = dense_cdf_mc_policy_evaluation(mdp, rows, policy, 300, 40, seed)
            assert q_mc.tobytes() == q_ref.tobytes()

    @pytest.mark.parametrize("name", sorted(SAMPLER_ENVS))
    def test_bitwise_equal_across_policies_and_sizes(self, name):
        # lake4 has 5 terminals of 16 states, so among 300 exploring starts
        # some open at a terminal with an action that is not the policy's
        mdp, rows = SAMPLER_ENVS[name]()
        cases = [(300, 40), (1, 1), (1, 60), (17, 3), (1000, 100)]
        for seed, (policy, (n, horizon)) in enumerate(
                (p, c) for p in sampler_policies(mdp).values() for c in cases):
            q_mc, _ = mc_policy_evaluation(mdp, policy, n, horizon=horizon, seed=seed)
            q_ref = dense_cdf_mc_policy_evaluation(mdp, rows, policy, n, horizon, seed)
            assert q_mc.tobytes() == q_ref.tobytes()

    @pytest.mark.parametrize("name, policy", [
        ("grid4", "greedy"), ("lake4_deterministic", "greedy"),
        ("lake4_deterministic", "toward_terminal"), ("grid4_deterministic", "toward_terminal"),
    ])
    def test_rollout_ends_once_every_trajectory_is_absorbed(self, name, policy,
                                                            monkeypatch):
        mdp, rows = SAMPLER_ENVS[name]()
        chosen = sampler_policies(mdp)[policy]
        draws = count_uniform_draws(monkeypatch)
        q_mc, _ = mc_policy_evaluation(mdp, chosen, 500, horizon=400, seed=3)
        # one next-state draw per step for all 500 trajectories
        (sizes,) = draws.values()
        assert 0 < len(sizes) < 100 and set(sizes) == {500}
        monkeypatch.undo()
        # the horizon past the last absorption changes nothing
        assert q_mc.tobytes() == mc_policy_evaluation(mdp, chosen, 500, horizon=100,
                                                      seed=3)[0].tobytes()
        assert q_mc.tobytes() == dense_cdf_mc_policy_evaluation(mdp, rows, chosen, 500, 100,
                                                                3).tobytes()

    def test_memory_has_no_state_action_term(self, grid100):
        # all-UP rarely reaches the goal, so almost every trajectory stays live;
        # a (trajectories x S*A) table alone would take 153 MiB here
        policy = Policy(np.zeros(grid100.num_states, dtype=int))
        tracemalloc.start()
        try:
            mc_policy_evaluation(grid100, policy, 4000, horizon=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_lockstep_memory_is_the_pair_history(self, grid100):
        # 8 all-UP members of 1000 trajectories that almost all stay live for
        # 100 steps: their int32 rows take 3.1 MiB, and the int64 keys of the
        # 547 000 rows whose pair changed 4.2 MiB, twice that while they are
        # joined for the sort; the peak is about 15 MiB
        policy = Policy(np.zeros(grid100.num_states, dtype=int))
        tracemalloc.start()
        try:
            mc_policy_evaluation_lockstep(grid100, [policy] * 8, 1000, 100, list(range(8)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_rejects_bad_budget(self, grid4):
        with pytest.raises(ValueError):
            mc_policy_evaluation(grid4, Policy(np.zeros(16, dtype=int)), 0, seed=0)

    def test_rejects_keys_wider_than_int64(self, grid4):
        # 62 step bits and 6 pair bits: refused before anything is drawn
        with pytest.raises(ValueError, match="int64 sort keys"):
            mc_policy_evaluation(grid4, Policy(np.zeros(16, dtype=int)), 10,
                                 horizon=2 ** 62, seed=0)


class TestLockstep:
    """mc_policy_evaluation_lockstep: one pass over several (policy, seed)
    members, each as its own mc_policy_evaluation call."""

    @pytest.mark.parametrize("name", sorted(SAMPLER_ENVS))
    def test_each_member_equals_its_own_call(self, name):
        mdp, _ = SAMPLER_ENVS[name]()
        policies = sampler_policies(mdp)
        # greedy and all-UP members end at different steps on the grids and lakes
        batches = [[policies["greedy"], policies["all_up"], policies["greedy"]],
                   [policies["random"], policies["toward_terminal"]], [policies["all_up"]]]
        cases = [(300, 40), (1, 1), (1, 60), (17, 3), (200, 1)]
        for first_seed, (batch, (n, horizon)) in enumerate(
                (b, c) for b in batches for c in cases):
            seeds = [first_seed + 100 * i for i in range(len(batch))]
            tables = mc_policy_evaluation_lockstep(mdp, batch, n, horizon, seeds)
            assert tables.shape == (len(batch), mdp.num_states, mdp.num_actions)
            for table, policy, seed in zip(tables, batch, seeds):
                q_mc, queries = mc_policy_evaluation(mdp, policy, n, horizon=horizon, seed=seed)
                assert table.tobytes() == q_mc.tobytes()
                assert queries == n

    @pytest.mark.parametrize("name, kinds", [
        ("grid4_deterministic", ("greedy", "all_up")),
        ("lake4_deterministic", ("random", "toward_terminal", "random")),
    ])
    def test_member_draws_only_while_it_has_live_trajectories(self, name, kinds,
                                                              monkeypatch):
        mdp, _ = SAMPLER_ENVS[name]()
        batch = [sampler_policies(mdp)[kind] for kind in kinds]
        seeds = list(range(11, 11 + len(batch)))
        draws = count_uniform_draws(monkeypatch)
        mc_policy_evaluation_lockstep(mdp, batch, 200, 50, seeds)
        lockstep = dict(draws)
        draws.clear()
        for policy, seed in zip(batch, seeds):
            mc_policy_evaluation(mdp, policy, 200, horizon=50, seed=seed)
        assert lockstep == dict(draws)
        # n uniforms a step; the step at the horizon moves no trajectory and
        # draws nothing
        for sizes in lockstep.values():
            assert set(sizes) == {200} and 0 < len(sizes) <= 49
        if kinds[1] == "all_up":
            # greedy reaches the goal from every start within 8 moves; all-UP
            # leaves most starts short of it, so that member moves at every step
            assert len(lockstep[11]) <= 8 and lockstep[12] == [200] * 49
        draws.clear()
        mc_policy_evaluation_lockstep(mdp, batch, 1, 1, seeds)
        assert sorted(draws) == seeds and not any(draws.values())

    @pytest.mark.parametrize("actions", [np.full(16, 4), np.full(16, -1), np.zeros(15)])
    def test_rejects_actions_outside_the_mdp(self, grid4, actions):
        # action 4 of state s would read row (s + 1, 0), and -1 row (s - 1, 3)
        with pytest.raises(ValueError, match="one action in"):
            mc_policy_evaluation(grid4, Policy(actions), 10, seed=0)

    @pytest.mark.parametrize("bad_at", [0, 2])
    def test_checks_every_member(self, grid4, bad_at):
        batch = [sampler_policies(grid4)["greedy"]] * 3
        batch[bad_at] = Policy(np.full(16, 4))
        with pytest.raises(ValueError, match="policy needs"):
            mc_policy_evaluation_lockstep(grid4, batch, 10, 5, [0, 1, 2])

    def test_rejects_members_without_a_seed_each(self, grid4):
        greedy = sampler_policies(grid4)["greedy"]
        with pytest.raises(ValueError):
            mc_policy_evaluation_lockstep(grid4, [greedy, greedy], 10, 5, [0])
        with pytest.raises(ValueError):
            mc_policy_evaluation_lockstep(grid4, [], 10, 5, [])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_roundtrip_bit_exact(self, grid4, frozen8, tmp_path):
        for name, mdp in (("grid", grid4), ("lake", frozen8)):
            path = tmp_path / f"{name}.json"
            _write_json(str(path), mdp_to_dict(mdp))
            loaded = load_mdp(path)
            assert loaded.num_states == mdp.num_states
            assert loaded.num_actions == mdp.num_actions
            assert loaded.gamma == mdp.gamma
            assert loaded.start_state == mdp.start_state
            assert loaded.terminal_states == mdp.terminal_states
            assert np.array_equal(loaded.rewards, mdp.rewards)
            assert loaded.next_states.tobytes() == mdp.next_states.tobytes()
            assert loaded.next_probs.tobytes() == mdp.next_probs.tobytes()

    @pytest.mark.parametrize("start", [0.5, 1.0, True, -1, 2])
    def test_rejects_a_start_state_that_is_not_an_index(self, start):
        with pytest.raises(ValueError, match=r"start_state must be an integer in \[0, 2\), "
                                             f"got {start!r}$"):
            TabularMDP(2, 1, [[1], [1]], [[1.0], [1.0]], [[0.5], [0.0]], 0.9,
                       terminal_states=frozenset({1}), start_state=start)

    def test_start_state_round_trips(self):
        # a numpy integer is kept as an int, so the written document loads
        mdp = TabularMDP(2, 1, [[1], [1]], [[1.0], [1.0]], [[0.5], [0.0]], 0.9,
                         terminal_states=frozenset({1}), start_state=np.int64(1))
        doc = mdp_to_dict(mdp)
        assert type(doc["start"]) is int
        assert mdp_from_dict(doc).start_state == 1

    def test_roundtrip_irrational_probs(self, tmp_path):
        rows, rewards = random_rows(12, 3, seed=11)
        mdp = TabularMDP.from_rows(12, 3, rows, rewards, 0.85)
        path = tmp_path / "random.json"
        _write_json(str(path), mdp_to_dict(mdp))
        loaded = load_mdp(path)
        assert loaded.next_states.tobytes() == mdp.next_states.tobytes()
        assert loaded.next_probs.tobytes() == mdp.next_probs.tobytes()
        # random rows are sorted and distinct, so the file holds them as written
        written = [[[s_next, p] for s_next, p in row] for state_rows in rows for row in state_rows]
        assert [entry["rows"] for entry in mdp_to_dict(loaded)["transitions"]] == written

    def test_loaded_rows_are_written_back_merged(self):
        doc = mdp_to_dict(absorbing_single())
        doc["num_states"], doc["rewards"], doc["terminals"] = 2, [[0.5], [0.0]], [1]
        doc["transitions"] = [{"s": 0, "a": 0, "rows": [[1, 0.25], [0, 0.0], [1, 0.5], [0, 0.25]]},
                              {"s": 1, "a": 0, "rows": [[1, 1.0]]}]
        again = mdp_to_dict(mdp_from_dict(doc))
        assert again["transitions"][0]["rows"] == [[0, 0.25], [1, 0.75]]
        assert again["transitions"][1]["rows"] == [[1, 1.0]]

    def test_dict_schema(self, grid4):
        doc = mdp_to_dict(grid4)
        assert set(doc) == {"num_states", "num_actions", "gamma", "start",
                            "terminals", "rewards", "transitions"}
        entry = doc["transitions"][0]
        assert set(entry) == {"s", "a", "rows"}
        again = mdp_from_dict(doc)
        assert again.sparsity_d == grid4.sparsity_d


def test_with_gamma_shares_the_validated_arrays(grid4):
    twin = grid4.with_gamma(0.5)
    assert twin.gamma == 0.5 and grid4.gamma == 0.95
    assert twin.next_states is grid4.next_states
    assert twin.next_probs is grid4.next_probs
    assert twin.rewards is grid4.rewards
    assert twin.terminal_states is grid4.terminal_states
    assert grid4.with_gamma(0.95) is grid4
    with pytest.raises(ValueError):
        grid4.with_gamma(1.0)

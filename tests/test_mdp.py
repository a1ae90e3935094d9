import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpolicy import mdp as mdp_module
from qpolicy.emulator import SHOT_SAMPLING, EstimatorConfig
from qpolicy.engine import QPolicyConfig, run_qpolicy
from qpolicy.mdp import (
    Policy,
    TabularMDP,
    bellman_backup,
    build_frozenlake,
    build_gridworld,
    exact_policy_evaluation,
    greedy_actions,
    load_mdp,
    mc_policy_evaluation,
    mdp_from_dict,
    mdp_to_dict,
    policy_values,
    save_mdp,
    value_iteration,
)

from oracles import (
    absorbing_single,
    dense_cdf_mc_policy_evaluation,
    dense_transitions,
    enumerate_optimal_values,
    grid_row_oracle,
    linear_solve_q,
    random_mdp,
    two_state_chain,
    two_state_two_action,
)


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
                into_goal = dict(grid4.transitions[s][a]).get(15, 0.0)
                expected = 0.0 if s == 15 else into_goal
                assert grid4.rewards[s, a] == pytest.approx(expected, abs=0)

    def test_deterministic_limit(self):
        m = build_gridworld(4, 4, 0.0, (3, 3), 0.95)
        for s in range(m.num_states):
            for a in range(4):
                assert m.transitions[s][a] == [(m.transitions[s][a][0][0], 1.0)]

    def test_rows_match_slip_enumeration(self, grid4):
        # independent enumeration of the four slip outcomes against the walls
        for s in range(16):
            if s == 15:
                continue
            r, c = divmod(s, 4)
            for a in range(4):
                expected = grid_row_oracle(4, 4, 0.2, (r, c), a)
                got = dict(grid4.transitions[s][a])
                assert set(got) == set(expected)
                for key, p in expected.items():
                    assert got[key] == pytest.approx(p, abs=1e-15)

    def test_blocked_move_probabilities(self, grid4):
        # top edge, non-corner, action up: intended blocked plus slip-up blocked
        edge = grid_row_oracle(4, 4, 0.2, (0, 1), action=0)
        assert edge[1] == pytest.approx(0.85)
        assert dict(grid4.transitions[1][0])[1] == pytest.approx(0.85)
        # the actual corner blocks two slip outcomes, not one
        corner = grid_row_oracle(4, 4, 0.2, (0, 0), action=0)
        assert corner[0] == pytest.approx(0.90)
        assert dict(grid4.transitions[0][0])[0] == pytest.approx(0.90)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_gridworld(0, 4, 0.2, (0, 0), 0.95)
        with pytest.raises(ValueError):
            build_gridworld(1, 1, 0.2, (0, 0), 0.95)
        with pytest.raises(ValueError):
            build_gridworld(4, 4, 0.2, (4, 0), 0.95)


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
        for s in range(m.num_states):
            for a in range(4):
                assert len(m.transitions[s][a]) == 1

    def test_sparsity_at_most_three(self, frozen8):
        # row-support enumeration over the built model
        for s in range(frozen8.num_states):
            for a in range(4):
                support = sum(1 for _, p in frozen8.transitions[s][a] if p > 0)
                assert support <= 3
        assert frozen8.sparsity_d <= 3

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            build_frozenlake(6, True, 0.95)


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
            total = sum(p for _, p in mdp.transitions[s][a])
            assert abs(total - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Type invariants
# ---------------------------------------------------------------------------

def test_invalid_mdp_rejected():
    with pytest.raises(ValueError):  # row does not sum to 1
        TabularMDP(1, 1, [[[(0, 0.5)]]], np.zeros((1, 1)), 0.9)
    with pytest.raises(ValueError):  # gamma not < 1
        TabularMDP(1, 1, [[[(0, 1.0)]]], np.zeros((1, 1)), 1.0)
    with pytest.raises(ValueError):  # terminal must have zero reward
        TabularMDP(1, 1, [[[(0, 1.0)]]], np.ones((1, 1)), 0.9,
                   terminal_states=frozenset({0}))


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy.stochastic([[0.5, 0.4]])
    with pytest.raises(ValueError):
        Policy.stochastic([[1.5, -0.5]])
    det = Policy.deterministic([1, 0])
    mat = det.matrix(2)
    assert np.array_equal(mat, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(mat.sum(axis=1), 1.0)


def test_sparsity_d_bounded(grid4, frozen8):
    for mdp in (grid4, frozen8):
        assert 1 <= mdp.sparsity_d <= mdp.num_states


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------

class TestExactEvaluation:
    def test_absorbing_geometric(self):
        mdp = absorbing_single(reward=1.0, gamma=0.5)
        q = exact_policy_evaluation(mdp, Policy.deterministic([0]), 1e-10)
        assert q[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_gamma_zero_is_reward(self, grid4):
        mdp = grid4.with_gamma(0.0)
        q = exact_policy_evaluation(mdp, Policy.uniform(16, 4), 1e-8)
        assert np.array_equal(q, mdp.rewards)

    def test_matches_linear_solve_on_grid(self, grid4):
        _, greedy = value_iteration(grid4, 1e-10)
        q_iter = exact_policy_evaluation(grid4, greedy, 1e-8)
        q_solve = linear_solve_q(grid4, greedy)
        assert np.abs(q_iter - q_solve).max() < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linear_solve_agreement_invariant(self, seed):
        mdp = random_mdp(num_states=30, num_actions=3, gamma=0.9, seed=seed)
        policy = Policy.deterministic((np.arange(30) + seed) % 3)
        tol = 1e-8
        q_iter = exact_policy_evaluation(mdp, policy, tol)
        q_solve = linear_solve_q(mdp, policy)
        assert np.abs(q_iter - q_solve).max() < 10 * tol

    def test_linear_solve_agreement_on_lake(self, frozen8):
        tol = 1e-8
        policy = Policy.deterministic(np.arange(64) % 4)
        q_iter = exact_policy_evaluation(frozen8, policy, tol)
        assert np.abs(q_iter - linear_solve_q(frozen8, policy)).max() < 10 * tol

    def test_rejects_bad_tol(self, grid4):
        with pytest.raises(ValueError):
            exact_policy_evaluation(grid4, Policy.uniform(16, 4), 0.0)


class TestValueIteration:
    def test_absorbing(self):
        q, _ = value_iteration(absorbing_single(1.0, 0.5), 1e-10)
        assert q.max() == pytest.approx(2.0, abs=1e-9)

    def test_two_state_chain(self):
        q, _ = value_iteration(two_state_chain(0.9), 1e-10)
        assert q[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_exhaustive_enumeration_2x2(self):
        mdp = build_gridworld(2, 2, 0.2, (1, 1), 0.9)
        best = enumerate_optimal_values(mdp)
        q, policy = value_iteration(mdp, 1e-10)
        assert np.abs(q.max(axis=1) - best).max() < 1e-8
        # the greedy policy attains the enumerated optimum
        v_pi = policy_values(mdp, policy, linear_solve_q(mdp, policy))
        assert np.abs(v_pi - best).max() < 1e-8

    def test_tie_break_lowest_index(self):
        assert greedy_actions(np.array([[2.0, 2.0, 0.0, 2.0]]))[0] == 0
        assert greedy_actions(np.array([[0.0, 5.0, 3.0, 1.0]]))[0] == 1


class TestBellmanBackup:
    def test_fixed_point(self, grid4):
        _, greedy = value_iteration(grid4, 1e-10)
        q = linear_solve_q(grid4, greedy)
        assert np.abs(bellman_backup(grid4, q, greedy) - q).max() <= 1e-12

    def test_fixed_point_exact_chain(self):
        mdp = two_state_chain(0.9)
        pi = Policy.deterministic([0, 0])
        q = np.array([[1.0], [0.0]])
        assert np.array_equal(bellman_backup(mdp, q, pi), q)

    def test_contraction_on_random_pairs(self, grid4):
        rng = np.random.default_rng(7)
        pi = Policy.uniform(16, 4)
        for _ in range(100):
            q1 = rng.normal(size=(16, 4))
            q2 = rng.normal(size=(16, 4))
            lhs = np.abs(bellman_backup(grid4, q1, pi) - bellman_backup(grid4, q2, pi)).max()
            rhs = grid4.gamma * np.abs(q1 - q2).max()
            assert lhs <= rhs + 1e-12

    def test_zero_table_gives_rewards(self):
        mdp = absorbing_single(0.7, 0.3)
        out = bellman_backup(mdp, np.zeros((1, 1)), Policy.deterministic([0]))
        assert np.array_equal(out, mdp.rewards)

    def test_shape_mismatch(self, grid4):
        with pytest.raises(ValueError):
            bellman_backup(grid4, np.zeros((3, 4)), Policy.uniform(16, 4))


def test_greedy_improvement_monotone(grid4):
    rng = np.random.default_rng(3)
    for _ in range(5):
        policy = Policy.deterministic(rng.integers(0, 4, size=16))
        q = exact_policy_evaluation(grid4, policy, 1e-9)
        improved = Policy.deterministic(greedy_actions(q))
        v_old = policy_values(grid4, policy, q)
        v_new = policy_values(grid4, improved, exact_policy_evaluation(grid4, improved, 1e-9))
        assert np.all(v_new >= v_old - 1e-9)


# ---------------------------------------------------------------------------
# The sparse operator against the dense oracle
# ---------------------------------------------------------------------------

def scrambled_random_mdp(num_states, num_actions, gamma, seed, branching, dup_row):
    """random_mdp with every row reversed, so unsorted, and in row dup_row
    the first entry split in two parts with the second moved to the end."""
    base = random_mdp(num_states, num_actions, gamma, seed, branching)
    transitions = [[list(reversed(row)) for row in rows] for rows in base.transitions]
    s, a = divmod(dup_row % (num_states * num_actions), num_actions)
    row = transitions[s][a]
    s_next, p = row[0]
    row[0] = (s_next, 0.3 * p)
    row.append((s_next, p - 0.3 * p))
    return TabularMDP(num_states, num_actions, transitions, base.rewards, gamma)


def check_against_dense(mdp, seed):
    """expect, the backup and both solvers against the dense oracle."""
    dense = dense_transitions(mdp)
    assert np.array_equal(mdp.transition_matrix(), dense)
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, size=mdp.num_states)
    assert np.abs(mdp.expect(v) - dense.dot(v)).max() <= 1e-12
    policy = Policy.stochastic(rng.dirichlet(np.ones(mdp.num_actions), size=mdp.num_states))
    q = rng.uniform(-1, 1, size=(mdp.num_states, mdp.num_actions))
    expected = mdp.rewards + mdp.gamma * dense.dot(policy_values(mdp, policy, q))
    assert np.abs(bellman_backup(mdp, q, policy) - expected).max() <= 1e-12
    q_pi = exact_policy_evaluation(mdp, policy, 1e-13)
    assert np.abs(q_pi - linear_solve_q(mdp, policy)).max() <= 1e-12
    q_star, _ = value_iteration(mdp, 1e-13)
    residual = mdp.rewards + mdp.gamma * dense.dot(q_star.max(axis=1)) - q_star
    assert np.abs(residual).max() <= 1e-12


class TestOperator:
    def test_rows_sorted_merged_and_padded(self):
        mdp = TabularMDP(2, 2, [[[(1, 0.5), (0, 0.25), (1, 0.25)], [(0, 1.0)]],
                                [[(1, 1.0)], [(1, 0.5), (0, 0.5)]]],
                         np.zeros((2, 2)), 0.9)
        assert mdp.next_states.tolist() == [[0, 1], [0, 0], [1, 1], [0, 1]]
        assert mdp.next_probs.tolist() == [[0.25, 0.75], [1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]
        assert mdp.sparsity_d == 2  # the repeated next state counts once
        assert not mdp.next_states.flags.writeable
        assert not mdp.next_probs.flags.writeable

    def test_padding_reads_only_the_row_support(self):
        # an infinite value outside a row's support must not reach it as 0 * inf
        mdp = TabularMDP(3, 1, [[[(1, 1.0)]], [[(2, 0.5), (1, 0.5)]], [[(2, 1.0)]]],
                         np.zeros((3, 1)), 0.9)
        with np.errstate(all="raise"):
            out = mdp.expect(np.array([np.inf, 1.0, 2.0]))
        assert out[:, 0].tolist() == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("name", ["grid4", "frozen8"])
    def test_matches_dense_oracle(self, name, request):
        check_against_dense(request.getfixturevalue(name), seed=0)

    @settings(max_examples=40, deadline=None)
    @given(num_states=st.integers(1, 12), num_actions=st.integers(1, 4),
           gamma=st.floats(0.0, 0.8), seed=st.integers(0, 2**32 - 1),
           branching=st.integers(1, 4), dup_row=st.integers(0, 47))
    def test_matches_dense_oracle_on_scrambled_rows(self, num_states, num_actions, gamma,
                                                    seed, branching, dup_row):
        mdp = scrambled_random_mdp(num_states, num_actions, gamma, seed, branching, dup_row)
        check_against_dense(mdp, seed)


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
    config = QPolicyConfig(estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=256, seed=0),
                           max_iterations=3, seed=0)
    records, _ = run_qpolicy(mdp, config)
    assert len(records) == 3


# ---------------------------------------------------------------------------
# Monte Carlo evaluation
# ---------------------------------------------------------------------------

SAMPLER_ENVS = {
    "grid4": lambda: build_gridworld(4, 4, 0.2, (3, 3), 0.95),
    "grid4_deterministic": lambda: build_gridworld(4, 4, 0.0, (3, 3), 0.95),
    "frozen8": lambda: build_frozenlake(8, True, 0.95),
    "lake4_deterministic": lambda: build_frozenlake(4, False, 0.95),
    "random6_no_terminal": lambda: random_mdp(6, 3, 0.9, 4),
}


def sampler_policies(mdp: TabularMDP) -> dict:
    """Greedy, uniform, a skewed stochastic policy, and all-UP (action 0),
    which on the slippery grid rarely and on the deterministic one never
    reaches the goal."""
    s_count, a_count = mdp.num_states, mdp.num_actions
    _, greedy = value_iteration(mdp, 1e-8)
    skewed = np.random.default_rng(s_count).dirichlet(np.ones(a_count), size=s_count)
    return {
        "greedy": greedy,
        "uniform": Policy.uniform(s_count, a_count),
        "skewed": Policy.stochastic(skewed),
        "all_up": Policy.deterministic(np.zeros(s_count, dtype=int)),
    }


def count_uniform_draws(monkeypatch) -> list:
    """Sizes of the sampler's rng.random calls, recorded from now on."""
    sizes = []
    real_stream = mdp_module.stream

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def integers(self, *args, **kwargs):
            return self.rng.integers(*args, **kwargs)

        def random(self, size):
            sizes.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(mdp_module, "stream", lambda *key: Counting(real_stream(*key)))
    return sizes


class TestMonteCarlo:
    def test_query_count_is_trajectories(self, grid4):
        _, queries = mc_policy_evaluation(grid4, Policy.uniform(16, 4), 1000,
                                          horizon=10, seed=0)
        assert queries == 1000

    def test_deterministic_env_matches_exact(self):
        mdp = build_gridworld(2, 2, 0.0, (1, 1), 0.9)
        _, policy = value_iteration(mdp, 1e-10)
        horizon = 40
        q_mc, _ = mc_policy_evaluation(mdp, policy, 1500, horizon=horizon, seed=5)
        q_exact = linear_solve_q(mdp, policy)
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
        q_exact = linear_solve_q(mdp, policy)
        mean = tables.mean(axis=0)
        se = tables.std(axis=0, ddof=1) / np.sqrt(50)
        truncation = mdp.gamma ** horizon / (1 - mdp.gamma)
        assert np.all(np.abs(mean - q_exact) <= 3 * se + truncation + 1e-12)

    @pytest.mark.parametrize("name", ["grid4", "frozen8"])
    def test_bitwise_equal_to_dense_cdf_sampler(self, name, request):
        mdp = request.getfixturevalue(name)
        _, greedy = value_iteration(mdp, 1e-8)
        for seed, policy in enumerate([greedy, Policy.uniform(mdp.num_states, 4)]):
            q_mc, _ = mc_policy_evaluation(mdp, policy, 300, horizon=40, seed=seed)
            q_ref = dense_cdf_mc_policy_evaluation(mdp, policy, 300, 40, seed)
            assert q_mc.tobytes() == q_ref.tobytes()

    @pytest.mark.parametrize("name", sorted(SAMPLER_ENVS))
    def test_bitwise_equal_across_policies_and_sizes(self, name):
        # lake4 has 5 terminals of 16 states, so among 300 exploring starts
        # some open at a terminal with an action that is not the policy's
        mdp = SAMPLER_ENVS[name]()
        cases = [(300, 40), (1, 1), (1, 60), (17, 3), (1000, 100)]
        for seed, (policy, (n, horizon)) in enumerate(
                (p, c) for p in sampler_policies(mdp).values() for c in cases):
            q_mc, _ = mc_policy_evaluation(mdp, policy, n, horizon=horizon, seed=seed)
            q_ref = dense_cdf_mc_policy_evaluation(mdp, policy, n, horizon, seed)
            assert q_mc.tobytes() == q_ref.tobytes()

    @pytest.mark.parametrize("name, policy", [
        ("grid4", "greedy"), ("lake4_deterministic", "greedy"),
        ("lake4_deterministic", "uniform"), ("lake4_deterministic", "skewed"),
    ])
    def test_rollout_ends_once_every_trajectory_is_absorbed(self, name, policy,
                                                            monkeypatch):
        mdp = SAMPLER_ENVS[name]()
        chosen = sampler_policies(mdp)[policy]
        draws = count_uniform_draws(monkeypatch)
        q_mc, _ = mc_policy_evaluation(mdp, chosen, 500, horizon=400, seed=3)
        # one next-state draw per step, and one action draw under a
        # stochastic policy, each for all 500 trajectories
        assert 0 < len(draws) < 100 and set(draws) == {500}
        monkeypatch.undo()
        # the horizon past the last absorption changes nothing
        assert q_mc.tobytes() == mc_policy_evaluation(mdp, chosen, 500, horizon=100,
                                                      seed=3)[0].tobytes()
        assert q_mc.tobytes() == dense_cdf_mc_policy_evaluation(mdp, chosen, 500, 100,
                                                                3).tobytes()

    def test_memory_has_no_state_action_term(self, grid100):
        # all-UP rarely reaches the goal, so almost every trajectory stays live;
        # a (trajectories x S*A) table alone would take 153 MiB here
        policy = Policy.deterministic(np.zeros(grid100.num_states, dtype=int))
        tracemalloc.start()
        try:
            mc_policy_evaluation(grid100, policy, 4000, horizon=100, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_rejects_bad_budget(self, grid4):
        with pytest.raises(ValueError):
            mc_policy_evaluation(grid4, Policy.uniform(16, 4), 0, seed=0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_roundtrip_bit_exact(self, grid4, frozen8, tmp_path):
        for name, mdp in (("grid", grid4), ("lake", frozen8)):
            path = tmp_path / f"{name}.json"
            save_mdp(mdp, path)
            loaded = load_mdp(path)
            assert loaded.num_states == mdp.num_states
            assert loaded.num_actions == mdp.num_actions
            assert loaded.gamma == mdp.gamma
            assert loaded.start_state == mdp.start_state
            assert loaded.terminal_states == mdp.terminal_states
            assert np.array_equal(loaded.rewards, mdp.rewards)
            for s in range(mdp.num_states):
                for a in range(mdp.num_actions):
                    assert loaded.transitions[s][a] == mdp.transitions[s][a]

    def test_roundtrip_irrational_probs(self, tmp_path):
        mdp = random_mdp(12, 3, 0.85, seed=11)
        path = tmp_path / "random.json"
        save_mdp(mdp, path)
        loaded = load_mdp(path)
        for s in range(12):
            for a in range(3):
                assert loaded.transitions[s][a] == mdp.transitions[s][a]

    def test_dict_schema(self, grid4):
        doc = mdp_to_dict(grid4)
        assert set(doc) == {"num_states", "num_actions", "gamma", "start",
                            "terminals", "rewards", "transitions"}
        entry = doc["transitions"][0]
        assert set(entry) == {"s", "a", "rows"}
        again = mdp_from_dict(doc)
        assert again.sparsity_d == grid4.sparsity_d

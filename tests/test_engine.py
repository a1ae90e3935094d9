import math
import pickle
import re
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpolicy import engine
from qpolicy.emulator import (
    AE_ORACLE,
    SHOT_SAMPLING,
    EstimatorConfig,
    query_cost,
    readout_batch,
    readout_variance,
)
from qpolicy.engine import (
    _READOUT,
    DivergenceError,
    QPolicyConfig,
    _readout_mask,
    encode_qtable,
    policy_improve,
    run_qpolicy,
    run_qpolicy_lockstep,
)
from qpolicy.mdp import (
    Policy,
    bellman_backup,
    exact_policy_evaluation,
    policy_values,
    value_iteration,
)
from qpolicy.rng import stream

from oracles import absorbing_single, random_mdp


def exact_cfg(**kw):
    """The noise-free limit: additive-oracle readout at epsilon = 1e-12."""
    return QPolicyConfig(epsilon=1e-12, **kw)


def _read_out(targets, mask, estimator, rng):
    """engine._read_out for one (S, A) target table."""
    q_tilde, queries, q_variance = engine._read_out(targets[None], mask, [estimator], [rng],
                                                    0, [0])
    return q_tilde[0], queries[0], q_variance[0]


def _decode(state, scale, offset, shape):
    return (np.real(state.amplitudes[:math.prod(shape)]) * scale + offset).reshape(shape)


class TestEncodeQTable:
    def test_grid_table_needs_six_qubits(self, grid4):
        state, scale, offset = encode_qtable(np.arange(64.0).reshape(16, 4))
        assert state.num_qubits == 6

    def test_min_entry_shifts_to_zero(self):
        state, scale, offset = encode_qtable(np.array([[-1.0, 0.0], [3.0, -1.0]]))
        assert offset == -1.0
        # the shifted table [0, 1, 4, 0], normalised: both minima encode to 0 exactly
        assert np.array_equal(np.real(state.amplitudes) == 0.0, [True, False, False, True])
        assert scale == pytest.approx(math.sqrt(17.0), rel=1e-15)
        assert np.abs(np.real(state.amplitudes) * scale - [0.0, 1.0, 4.0, 0.0]).max() <= 1e-12

    def test_constant_table_is_degenerate(self):
        state, scale, offset = encode_qtable(np.full((2, 2), 3.5))
        assert state is None
        assert scale == 0.0
        assert offset == 3.5

    def test_roundtrip_random_table(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(5, 3))  # 15 entries padded to 16
        back = _decode(*encode_qtable(q), q.shape)
        assert np.abs(back - q).max() <= 1e-10

    def test_grid_q_star_roundtrip(self, grid4):
        q, _ = value_iteration(grid4, 1e-10)
        state, scale, offset = encode_qtable(q)
        assert offset == q.min() and state.amplitudes[q.argmin()] == 0.0
        assert np.abs(_decode(state, scale, offset, q.shape) - q).max() <= 1e-12

    def test_rejects_nonfinite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="q table must be finite"):
                encode_qtable(np.array([[bad, 0.0], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40))
@example([0.0, 5.35e-176])
@example([0.0, 5e-324])
@example([1e200, 2e200])
def test_encode_decode_roundtrip(values):
    q = np.asarray(values)[None]  # one state, len(values) actions
    state, scale, offset = encode_qtable(q)
    if state is None:  # constant tables have no normalized encoding
        assert scale == 0.0 and np.all(q == offset)
        return
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9
    scale_ref = max(1.0, np.abs(q).max())
    assert np.abs(_decode(state, scale, offset, q.shape) - q).max() <= 1e-12 * scale_ref


class TestQuantumBellmanUpdate:
    """One read-out backup as the loop makes it: bellman_backup targets read
    out through engine._read_out from the stream(seed, _READOUT, k) draws."""

    def test_hard_bound_in_ae_mode(self, grid4):
        rng = np.random.default_rng(0)
        policy = Policy(np.random.default_rng(1).integers(0, 4, 16))
        for trial in range(20):
            q = rng.normal(size=(16, 4))
            eps = float(rng.choice([0.3, 0.1, 0.02]))
            targets = bellman_backup(grid4, q, policy)
            q_tilde, _, _ = _read_out(targets, _readout_mask(grid4),
                                      EstimatorConfig(mode=AE_ORACLE, epsilon=eps),
                                      stream(trial, _READOUT, 0))
            span = targets.max() - targets.min()
            assert np.abs(q_tilde - targets).max() <= eps * span + 1e-12

    def test_exact_mode_matches_backup(self, grid4):
        policy = Policy(np.random.default_rng(1).integers(0, 4, 16))
        q = np.linspace(0, 1, 64).reshape(16, 4)
        targets = bellman_backup(grid4, q, policy)
        q_tilde, _, _ = _read_out(targets, _readout_mask(grid4), exact_cfg(seed=3).estimator,
                                  stream(3, _READOUT, 0))
        assert np.abs(q_tilde - targets).max() <= 1e-9

    def test_query_accounting(self, grid4):
        targets = bellman_backup(grid4, np.zeros((16, 4)), Policy(np.zeros(16, dtype=int)))
        _, queries, _ = _read_out(targets, _readout_mask(grid4),
                                  EstimatorConfig(mode=AE_ORACLE, epsilon=0.01, c_ae=1.0),
                                  stream(0, _READOUT, 0))
        assert queries == 60 * 100  # 4 goal-state pairs are pinned at zero

    def test_constant_targets_cost_nothing(self):
        mdp = absorbing_single(reward=0.0, gamma=0.5)
        targets = bellman_backup(mdp, np.zeros((1, 1)), Policy([0]))
        q_tilde, queries, _ = _read_out(targets, _readout_mask(mdp), exact_cfg().estimator,
                                        stream(0, _READOUT, 0))
        assert queries == 0
        assert np.array_equal(q_tilde, np.zeros((1, 1)))

    def test_shot_readout_stays_within_reward_bound(self, grid4):
        # a shot readout lands inside the span of its targets, so iterating
        # the update keeps every table within the reward bound over 1 - gamma
        estimator = EstimatorConfig(mode=SHOT_SAMPLING, shots=512)
        mask = _readout_mask(grid4)
        lo = min(0.0, grid4.rewards.min()) / (1.0 - grid4.gamma)
        hi = max(0.0, grid4.rewards.max()) / (1.0 - grid4.gamma)
        q = np.zeros((16, 4))
        for k in range(3000):
            q, _, _ = _read_out(bellman_backup(grid4, q, policy_improve(q)), mask, estimator,
                                stream(0, _READOUT, k))
            assert lo - 1e-9 <= q.min() and q.max() <= hi + 1e-9, k


class TestReadoutVariance:
    """The closed-form q_variance against the sample variance of repeated
    readouts of fixed targets.

    With 2000 draws one entry's sample variance has a relative standard
    error of about sqrt(2 / 2000) = 3.2% (a 256-shot binomial mean is close
    to Gaussian, and a uniform error has lighter tails); averaged over 64
    independent entries that drops to about 0.5%, so rtol = 0.03 is about
    six standard errors.
    """

    DRAWS = 2000

    @staticmethod
    def _targets():
        return np.random.default_rng(3).uniform(-1.0, 2.0, size=(16, 4))

    def _sampled(self, targets, mask, estimator):
        rng = np.random.default_rng(0)
        draws = [_read_out(targets, mask, estimator, rng)[0] for _ in range(self.DRAWS)]
        return np.stack(draws).var(axis=0, ddof=1).sum() / targets.size, draws

    @pytest.mark.parametrize("estimator", [
        EstimatorConfig(mode=SHOT_SAMPLING, shots=256),
        EstimatorConfig(mode=SHOT_SAMPLING, shots=256, noise_p=0.05),
        EstimatorConfig(mode=AE_ORACLE, epsilon=0.05),
        EstimatorConfig(mode=AE_ORACLE, epsilon=0.5, noise_p=0.05),
    ], ids=["shots", "shots_p0.05", "ae_oracle", "ae_oracle_clipped"])
    def test_matches_sampled_variance(self, estimator):
        targets = self._targets()
        mask = np.ones(targets.size, dtype=bool)
        _, _, closed = _read_out(targets, mask, estimator, np.random.default_rng(1))
        sampled, _ = self._sampled(targets, mask, estimator)
        assert closed == pytest.approx(sampled, rel=0.03)

    def test_terminal_rows_count_zero(self, grid4):
        policy = Policy(np.random.default_rng(1).integers(0, 4, 16))
        targets = bellman_backup(grid4, self._targets(), policy)
        mask = _readout_mask(grid4)
        assert mask.sum() == 60
        est = EstimatorConfig(mode=SHOT_SAMPLING, shots=256)
        _, _, closed = _read_out(targets, mask, est, np.random.default_rng(1))
        sampled, draws = self._sampled(targets, mask, est)
        assert closed == pytest.approx(sampled, rel=0.03)
        goal = sorted(grid4.terminal_states)[0]
        for q_tilde in draws:
            assert np.array_equal(q_tilde[goal], targets[goal])
        full = np.ones(64, dtype=bool)
        _, _, closed_full = _read_out(targets, full, est, np.random.default_rng(1))
        assert closed < closed_full

    @pytest.mark.filterwarnings("error")
    def test_exact_reads_give_zero_at_huge_span(self):
        # values 0 and 1 read out exactly under shots, whatever span * span is
        targets = np.array([[0.0, 1e300], [1e300, 0.0]])
        est = EstimatorConfig(mode=SHOT_SAMPLING, shots=64)
        q_tilde, _, closed = _read_out(targets, np.ones(4, dtype=bool), est,
                                       np.random.default_rng(1))
        assert closed == 0.0
        assert np.array_equal(q_tilde, targets)

    def test_constant_targets_give_zero(self):
        targets = np.full((4, 2), 1.5)
        for est in (EstimatorConfig(mode=SHOT_SAMPLING, shots=64),
                    EstimatorConfig(mode=AE_ORACLE, epsilon=0.1)):
            q_tilde, queries, closed = _read_out(
                targets, np.ones(8, dtype=bool), est, np.random.default_rng(1))
            assert (queries, closed) == (0, 0.0)
            assert np.array_equal(q_tilde, targets)


class TestReadOutBatch:
    """engine._read_out on one (members, S, A) batch: every member's table,
    queries and q_variance are bit for bit those of the per-member formula,
    readout_batch on the member's row from its own stream, then
    span * (span * readout_variance(row).sum() / size)."""

    SEEDS = (11, 12, 13, 14, 15)

    @staticmethod
    def _estimators():
        return [
            EstimatorConfig(mode=SHOT_SAMPLING, shots=256),
            EstimatorConfig(mode=AE_ORACLE, epsilon=0.4),  # the clip acts
            EstimatorConfig(mode=SHOT_SAMPLING, shots=64),  # constant targets
            EstimatorConfig(mode=SHOT_SAMPLING, shots=256, noise_p=0.1),
            EstimatorConfig(mode=SHOT_SAMPLING, shots=256),  # equal to the first
        ]

    @staticmethod
    def _member(flat, mask, estimator, seed):
        """The per-member formula: (table, queries, q_variance)."""
        lo = flat.min()
        span = flat.max() - lo
        table = flat.copy()
        if span == 0.0:
            return table, 0, 0.0
        row = (flat[mask] - lo) / span
        table[mask] = lo + span * readout_batch(row, estimator, stream(seed, _READOUT, 0))
        variance = span * (span * readout_variance(row, estimator).sum() / mask.size)
        return table, row.size * query_cost(estimator), float(variance)

    def test_each_member_is_its_own_formula(self, grid4):
        estimators = self._estimators()
        assert estimators[0] == estimators[4] and estimators[0] is not estimators[4]
        targets = np.random.default_rng(7).uniform(-1.0, 2.0, size=(5, 16, 4))
        targets[2] = 0.75
        mask = _readout_mask(grid4)
        q_tilde, queries, q_variance = engine._read_out(
            targets, mask, estimators, [stream(s, _READOUT, 0) for s in self.SEEDS], 0,
            list(self.SEEDS))
        for i, (estimator, seed) in enumerate(zip(estimators, self.SEEDS)):
            table, cost, variance = self._member(targets[i].reshape(-1), mask, estimator, seed)
            assert q_tilde[i].tobytes() == table.tobytes(), i
            assert (queries[i], q_variance[i].hex()) == (cost, variance.hex()), i
        assert queries[2] == 0 and q_variance[2] == 0.0
        # the clip acts: some entry of the oracle member reads with less
        # variance than an unclipped uniform error's epsilon^2 / 3
        flat = targets[1].reshape(-1)
        row = (flat[mask] - flat.min()) / (flat.max() - flat.min())
        assert readout_variance(row, estimators[1]).min() < 0.4 ** 2 / 3


class TestPolicyImprove:
    def test_unique_argmax(self):
        assert policy_improve(np.array([[0.0, 5.0, 3.0, 1.0]])).actions[0] == 1

    def test_tie_break(self):
        assert policy_improve(np.array([[2.0, 2.0, 0.0, 2.0]])).actions[0] == 0

    def test_improvement_theorem(self, grid4):
        policy = Policy(np.zeros(16, dtype=int))
        q = exact_policy_evaluation(grid4, policy, 1e-9)
        improved = policy_improve(q)
        v_old = policy_values(grid4, policy, q)
        v_new = policy_values(grid4, improved,
                              exact_policy_evaluation(grid4, improved, 1e-9))
        assert np.all(v_new >= v_old - 1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            policy_improve(np.array([[np.nan, 1.0]]))


class TestRunQPolicy:
    def test_exact_mode_matches_value_iteration(self, grid4):
        _, vi_policy = value_iteration(grid4, 1e-10)
        cfg = exact_cfg(seed=0, max_iterations=200, convergence_tol=1e-10)
        _, policy = run_qpolicy(grid4, cfg)
        non_terminal = [s for s in range(16) if s not in grid4.terminal_states]
        assert np.array_equal(policy.actions[non_terminal],
                              vi_policy.actions[non_terminal])

    def test_exact_mode_matches_value_iteration_on_lake(self, frozen8):
        # argmax equivalence on a 64-state environment
        _, vi_policy = value_iteration(frozen8, 1e-10)
        cfg = exact_cfg(seed=5, max_iterations=400, convergence_tol=1e-10)
        _, policy = run_qpolicy(frozen8, cfg)
        live = [s for s in range(64) if s not in frozen8.terminal_states]
        assert np.array_equal(policy.actions[live], vi_policy.actions[live])

    def test_exact_mode_matches_value_iteration_at_100_states(self):
        from qpolicy.mdp import build_gridworld
        big = build_gridworld(10, 10, 0.2, (9, 9), 0.95)
        _, vi_policy = value_iteration(big, 1e-10)
        cfg = exact_cfg(seed=2, max_iterations=600, convergence_tol=1e-10)
        _, policy = run_qpolicy(big, cfg)
        live = [s for s in range(100) if s not in big.terminal_states]
        assert np.array_equal(policy.actions[live], vi_policy.actions[live])

    def test_noisy_mode_error_trend(self, grid4):
        # per-step monotonicity does not hold under stochastic readout; the
        # late-run mean must still sit below the early-run mean
        cfg = QPolicyConfig(
            epsilon=0.05,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=512),
            seed=6, max_iterations=40, convergence_tol=1e-12,
        )
        records, _ = run_qpolicy(grid4, cfg)
        deltas = [r.bellman_error_max for r in records]
        assert np.mean(deltas[-10:]) < np.mean(deltas[:10])

    def test_exact_mode_bellman_error_monotone(self, grid4):
        # the convergence check halts the run before readout noise (at the
        # 1e-12 oracle precision) can dominate the shrinking signal
        cfg = exact_cfg(seed=1, max_iterations=60, convergence_tol=1e-8)
        records, _ = run_qpolicy(grid4, cfg)
        deltas = [r.bellman_error_max for r in records]
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-12
        for t, d in enumerate(deltas):
            assert d <= grid4.gamma ** t * deltas[0] * 1.01

    def test_single_iteration_boundary(self, grid4):
        cfg = exact_cfg(seed=0, max_iterations=1)
        records, _ = run_qpolicy(grid4, cfg)
        assert len(records) == 1
        assert records[0].queries_cumulative == records[0].queries_iteration
        with pytest.raises(ValueError):
            QPolicyConfig(max_iterations=0)

    def test_query_accounting_additive(self, grid4):
        cfg = QPolicyConfig(
            epsilon=0.1,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=128),
            seed=4, max_iterations=12, convergence_tol=1e-12,
        )
        records, _ = run_qpolicy(grid4, cfg)
        total = 0
        for rec in records:
            total += rec.queries_iteration
            assert rec.queries_cumulative == total

    def test_deterministic_given_seed(self, grid4):
        cfg = QPolicyConfig(
            epsilon=0.05,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=256),
            seed=7, max_iterations=10, convergence_tol=1e-12,
        )
        rec_a, pol_a = run_qpolicy(grid4, cfg)
        rec_b, pol_b = run_qpolicy(grid4, cfg)
        assert np.array_equal(pol_a.actions, pol_b.actions)
        for a, b in zip(rec_a, rec_b):
            assert a.bellman_error_max == b.bellman_error_max
            assert a.q_variance == b.q_variance

    def test_zero_noise_identical_to_noiseless(self, grid4):
        base = QPolicyConfig(
            epsilon=0.05,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=128),
            seed=2, max_iterations=8, convergence_tol=1e-12,
        )
        noisy = QPolicyConfig(
            epsilon=0.05,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=128,
                                      noise_p=0.0),
            seed=2, max_iterations=8, convergence_tol=1e-12,
        )
        rec_a, _ = run_qpolicy(grid4, base)
        rec_b, _ = run_qpolicy(grid4, noisy)
        for a, b in zip(rec_a, rec_b):
            assert a.bellman_error_max == b.bellman_error_max
            assert a.bellman_error_mean == b.bellman_error_mean

    def test_convergence_stop(self, grid4):
        cfg = exact_cfg(seed=0, max_iterations=500, convergence_tol=1e-6)
        records, _ = run_qpolicy(grid4, cfg)
        assert len(records) < 500

    def test_first_iteration_matches_standalone_update(self, grid4):
        seed = 13
        cfg = QPolicyConfig(
            epsilon=0.05,
            estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=512),
            seed=seed, max_iterations=1,
        )
        records, _ = run_qpolicy(grid4, cfg)
        q0 = np.zeros((16, 4))
        q_tilde, _, _ = _read_out(bellman_backup(grid4, q0, policy_improve(q0)),
                                  _readout_mask(grid4), cfg.estimator, stream(seed, _READOUT, 0))
        assert records[0].bellman_error_max == pytest.approx(
            np.abs(q_tilde.max(axis=1)).max(), abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("estimator", [
        EstimatorConfig(mode=SHOT_SAMPLING, shots=512),
        EstimatorConfig(mode=AE_ORACLE, epsilon=0.01),
    ], ids=["shots", "ae_oracle"])
    def test_overflowing_backup_raises_divergence(self, grid4, estimator):
        # rewards near the float maximum overflow the second backup, quietly
        huge = replace(grid4, rewards=np.where(grid4.rewards > 0, 1.7e308, 0.0))
        with pytest.raises(DivergenceError, match="iteration 1:") as info:
            run_qpolicy(huge, QPolicyConfig(estimator=estimator, max_iterations=5))
        assert info.value.at == (1, 0)  # the targets check of _read_out

    def test_table_leaving_the_reward_bound_raises_divergence(self, grid4, monkeypatch):
        # clipped reads cannot leave the bound, so a readout that doubles its
        # input stands in for an oracle whose reads leave [0, 1]
        monkeypatch.setattr(engine, "readout_batch", lambda values, config, rng: 2.0 * values)
        cfg = QPolicyConfig(estimator=EstimatorConfig(mode=AE_ORACLE, epsilon=0.1),
                            max_iterations=100)
        with pytest.raises(DivergenceError, match="outside the reward bound") as info:
            run_qpolicy(grid4, cfg)
        k = int(re.match(r"iteration (\d+):", str(info.value)).group(1))
        assert k >= 1 and info.value.at == (k, 1)  # the check after _read_out
        # the iterations before the named one stay within [0, 20]
        records, _ = run_qpolicy(grid4, replace(cfg, max_iterations=k))
        assert len(records) == k
        assert max(r.bellman_error_max for r in records) <= 20.0

    def test_large_epsilon_oracle_stays_within_the_reward_bound(self, grid4):
        # unclipped, these reads grew the table by up to gamma (1 + 2 epsilon)
        # per iteration
        cfg = QPolicyConfig(estimator=EstimatorConfig(mode=AE_ORACLE, epsilon=0.5),
                            max_iterations=300)
        records, _ = run_qpolicy(grid4, cfg)
        assert len(records) == 300
        assert max(r.bellman_error_max for r in records) <= 20.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QPolicyConfig(convergence_tol=0.0)
        with pytest.raises(ValueError):
            QPolicyConfig(epsilon=-1.0)
        # NaN passes a check written as `x <= 0`; with a NaN tol no run would stop early
        with pytest.raises(ValueError, match="convergence_tol must be positive"):
            QPolicyConfig(convergence_tol=math.nan)
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            QPolicyConfig(max_iterations=math.nan)

    @pytest.mark.parametrize("iterations", [2.5, True, np.True_, 3.0, 0])
    def test_rejects_max_iterations_that_are_not_a_whole_number(self, iterations):
        # a run would fail inside range() on 2.5, and a bool is not a count
        with pytest.raises(ValueError, match=f"^max_iterations must be >= 1, a whole number, "
                                             f"got {iterations!r}$"):
            QPolicyConfig(max_iterations=iterations)
        assert QPolicyConfig(max_iterations=np.int64(3)).max_iterations == 3


def test_each_setting_has_one_field():
    # the estimator holds every readout setting, the run config the rest
    assert sorted(asdict(QPolicyConfig())) == [
        "convergence_tol", "estimator", "max_iterations", "seed"]
    assert sorted(asdict(EstimatorConfig())) == ["c_ae", "epsilon", "mode", "noise_p", "shots"]


def test_epsilon_shorthand_builds_the_default_estimator():
    assert QPolicyConfig(epsilon=0.2).estimator == EstimatorConfig(mode=AE_ORACLE, epsilon=0.2)
    assert QPolicyConfig().estimator == EstimatorConfig(mode=AE_ORACLE, epsilon=0.01)
    given = EstimatorConfig(mode=SHOT_SAMPLING, shots=64)
    assert QPolicyConfig(epsilon=0.2, estimator=given).estimator == given
    # not a field: replace() and with_settings keep the estimator as it is
    cfg = QPolicyConfig(epsilon=0.2)
    assert replace(cfg, seed=4).estimator.epsilon == 0.2
    assert cfg.with_settings(4).estimator.epsilon == 0.2


def test_benchmark_worker_call_still_builds_its_config():
    # the call in perfbench/worker.py: the estimator's seed is accepted and
    # dropped, the readout streams come from the run config's seed
    config = QPolicyConfig(epsilon=0.01,
                           estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=512, seed=7),
                           max_iterations=50, convergence_tol=1e-12, seed=7)
    assert config == QPolicyConfig(estimator=EstimatorConfig(mode=SHOT_SAMPLING, shots=512),
                                   max_iterations=50, convergence_tol=1e-12, seed=7)


# each with_settings setting: a value, and the estimator and config fields it sets
WITH_SETTINGS = {
    "mode": (AE_ORACLE, {"mode": AE_ORACLE}, {}),
    "shots": (7, {"shots": 7}, {}),
    "epsilon": (0.2, {"epsilon": 0.2}, {}),
    "c_ae": (3.0, {"c_ae": 3.0}, {}),
    "noise_p": (0.1, {"noise_p": 0.1}, {}),
    "iters": (7, {}, {"max_iterations": 7}),
    "tol": (1e-3, {}, {"convergence_tol": 1e-3}),
}


class TestWithSettings:
    base = QPolicyConfig(estimator=EstimatorConfig(mode=SHOT_SAMPLING), seed=3)

    def at_seed(self, seed, estimator, config):
        return replace(self.base, seed=seed, **config,
                       estimator=replace(self.base.estimator, **estimator))

    @pytest.mark.parametrize("setting", list(WITH_SETTINGS))
    def test_sets_exactly_the_named_fields(self, setting):
        value, estimator, config = WITH_SETTINGS[setting]
        want = self.at_seed(5, estimator, config)
        assert want != self.at_seed(5, {}, {})  # the value is not the base's
        assert self.base.with_settings(5, **{setting: value}) == want

    def test_no_setting_moves_only_the_seed(self):
        assert self.base.with_settings(5) == self.at_seed(5, {}, {})
        assert self.base.with_settings(3) == self.base

    # NaN too: the base reads out in shot mode, which reads neither epsilon nor c_ae
    @pytest.mark.parametrize("setting, value", [
        ("mode", "exact"), ("shots", 0), ("epsilon", -0.1), ("c_ae", 0.0), ("noise_p", 1.5),
        ("iters", 0), ("tol", 0.0), ("shots", math.nan), ("epsilon", math.nan),
        ("c_ae", math.nan), ("noise_p", math.nan), ("iters", math.nan), ("tol", math.nan),
    ])
    def test_rejected_value_raises(self, setting, value):
        with pytest.raises(ValueError):
            self.base.with_settings(0, **{setting: value})


def _config(mode, seed, iterations, tol=1e-12, **estimator):
    return QPolicyConfig(estimator=EstimatorConfig(mode=mode, **estimator),
                         seed=seed, max_iterations=iterations, convergence_tol=tol)


# mixed modes, noise, iteration budgets and tolerances; the exact members stop
# at iterations 16 and 27 of 300, and the last member repeats the first
LOCKSTEP_MEMBERS = [
    _config(SHOT_SAMPLING, 3, 30, shots=512),
    _config(AE_ORACLE, 3, 25, epsilon=0.05, noise_p=0.02),
    _config(AE_ORACLE, 0, 300, 1e-3, epsilon=1e-12),
    _config(AE_ORACLE, 0, 300, 1e-6, epsilon=1e-12),
    _config(SHOT_SAMPLING, 8, 1, shots=64, noise_p=0.1),
    _config(AE_ORACLE, 11, 60, 0.05, epsilon=0.001, c_ae=0.04),
    _config(SHOT_SAMPLING, 3, 30, shots=512),
]


def _serial_run(mdp, config):
    """The engine loop for one config, one (S, A) table at a time: a full
    bellman_backup under the greedy Policy, one readout of the normalised
    masked targets, the bound check and policy_improve. run_qpolicy and
    every lockstep member must give its records and policy bit for bit."""
    est = config.estimator
    mask = _readout_mask(mdp)
    bound = np.array([min(mdp.rewards.min(), 0.0),
                      max(mdp.rewards.max(), 0.0)]) / (1.0 - mdp.gamma)
    slack = 1e-9 * max(-bound[0], bound[1])
    q = np.zeros((mdp.num_states, mdp.num_actions))
    policy, records, cumulative = policy_improve(q), [], 0
    for k in range(config.max_iterations):
        targets = bellman_backup(mdp, q, policy)
        lo, span = targets.min(), targets.max() - targets.min()
        q_tilde, queries, q_var = targets.copy(), 0, 0.0
        if span > 0:
            values = ((targets.reshape(-1) - lo) / span)[mask]
            rng = engine.stream(config.seed, engine._READOUT, k)
            reads = engine.readout_batch(values, est, rng)
            q_tilde.reshape(-1)[mask] = lo + span * reads
            queries = int(mask.sum()) * engine.query_cost(est)
            q_var = float(span * (span * float(engine.readout_variance(values, est).sum())
                                  / mask.size))
        v_next = q_tilde.max(axis=1)
        if q_tilde.min() < bound[0] - slack or v_next.max() > bound[1] + slack:
            raise DivergenceError(f"iteration {k}: outside the reward bound")
        policy = policy_improve(q_tilde)
        diff = np.abs(v_next - q.max(axis=1))
        cumulative += queries
        records.append(engine.IterationRecord(
            k, float(diff.max()), float(diff.mean()), q_var, queries, cumulative))
        shift, q = np.max(np.abs(q_tilde - q)), q_tilde
        if shift < config.convergence_tol:
            break
    return records, policy


def _same_run(got, want):
    (records, policy), (want_records, want_policy) = got, want
    assert policy == want_policy
    assert len(records) == len(want_records)
    for a, b in zip(records, want_records):
        assert (a.iteration, a.bellman_error_max, a.bellman_error_mean, a.q_variance,
                a.queries_iteration, a.queries_cumulative) == \
            (b.iteration, b.bellman_error_max, b.bellman_error_mean, b.q_variance,
             b.queries_iteration, b.queries_cumulative)


def test_records_and_errors_pickle_as_they_are(grid4):
    # a chunk of sweep runs in another process sends both through a pipe
    records, _ = run_qpolicy(grid4, QPolicyConfig(max_iterations=3))
    assert pickle.loads(pickle.dumps(records)) == records
    assert records[1].__reduce__() == (engine.IterationRecord, astuple(records[1]))
    error = pickle.loads(pickle.dumps(DivergenceError("iteration 2: out", (2, 1))))
    assert (type(error), str(error), error.at) == (DivergenceError, "iteration 2: out", (2, 1))
    assert DivergenceError("no iteration").at == (-1, 0)


class TestRunQPolicyLockstep:
    @pytest.mark.parametrize("name", ["grid4", "frozen8"])
    def test_each_member_equals_its_own_run_in_either_order(self, name, request):
        mdp = request.getfixturevalue(name)
        solo = [run_qpolicy(mdp, c) for c in LOCKSTEP_MEMBERS]
        if name == "grid4":
            assert [len(r) for r, _ in solo] == [30, 25, 16, 27, 1, 10, 30]
        for got, c in zip(solo, LOCKSTEP_MEMBERS):
            _same_run(got, _serial_run(mdp, c))
        for got, want in zip(run_qpolicy_lockstep(mdp, LOCKSTEP_MEMBERS), solo):
            _same_run(got, want)
        backwards = run_qpolicy_lockstep(mdp, LOCKSTEP_MEMBERS[::-1])
        for got, want in zip(backwards, solo[::-1]):
            _same_run(got, want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_members_without_terminal_skip_or_with_gamma(self, seed):
        # no terminal rows to skip, at a discount the model was given afterwards
        mdp = random_mdp(12, 3, 0.9, seed).with_gamma(0.8)
        members = LOCKSTEP_MEMBERS[:4]
        for got, c in zip(run_qpolicy_lockstep(mdp, members), members):
            _same_run(got, _serial_run(mdp, c))

    def test_no_members_no_runs(self, grid4):
        assert run_qpolicy_lockstep(grid4, []) == []

    def test_divergence_names_the_members_seed(self, grid4, monkeypatch):
        # only the 7-shot member's readout doubles its input, so only it
        # leaves the reward bound, at the iteration its own run does
        read = engine.readout_batch
        monkeypatch.setattr(engine, "readout_batch", lambda values, config, rng: (
            2.0 * values if config.shots == 7 else read(values, config, rng)))
        bad = _config(SHOT_SAMPLING, 42, 100, shots=7)
        with pytest.raises(DivergenceError) as solo:
            run_qpolicy(grid4, bad)
        assert "of seed 42 spans" in str(solo.value)
        with pytest.raises(DivergenceError) as lockstep:
            run_qpolicy_lockstep(grid4, LOCKSTEP_MEMBERS[:2] + [bad])
        assert str(lockstep.value) == str(solo.value)


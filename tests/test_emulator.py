import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpolicy.emulator import (
    AE_ORACLE,
    SHOT_SAMPLING,
    EstimatorConfig,
    MeasurementHistogram,
    NoiseModel,
    StateVector,
    ae_query_cost,
    amplitude_encode,
    amplitude_estimate,
    apply_depolarizing,
    decode_amplitudes,
    expected_index,
    measure,
    readout_batch,
    shift_for_encoding,
)
from qpolicy.mdp import build_gridworld, value_iteration

from oracles import depolarize_density, measurement_probs


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

class TestAmplitudeEncode:
    def test_uniform_four(self):
        state, scale, pad = amplitude_encode([0.5, 0.5, 0.5, 0.5])
        assert state.num_qubits == 2
        assert pad == 0
        assert scale == pytest.approx(1.0)
        assert np.allclose(state.amplitudes, 0.5, atol=1e-12)

    def test_basis_state(self):
        state, scale, pad = amplitude_encode([1, 0, 0, 0])
        assert state.amplitudes[0] == pytest.approx(1.0)
        assert np.abs(state.amplitudes[1:]).max() == 0.0

    def test_three_four_five(self):
        state, scale, pad = amplitude_encode([3, 0, 4])
        assert pad == 1
        assert scale == pytest.approx(5.0)
        assert np.allclose(state.amplitudes, [0.6, 0.0, 0.8, 0.0], atol=1e-12)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            amplitude_encode([0.0, 0.0])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            amplitude_encode([1.0, -0.1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [[0.0, 5.35e-176], [5e-324], [1e200, 2e200]])
    def test_extreme_magnitudes(self, values):
        state, scale, pad = amplitude_encode(values)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
        assert np.isfinite(scale) and scale > 0.0
        assert np.abs(decode_amplitudes(state, scale, 0.0, len(values))
                      - values).max() <= 1e-12 * max(values)

    def test_single_entry_is_zero_qubits(self):
        state, scale, pad = amplitude_encode([2.5])
        assert state.num_qubits == 0
        assert pad == 0
        assert scale == pytest.approx(2.5)


class TestShift:
    def test_basic(self):
        shifted, offset = shift_for_encoding([-1.0, 0.0, 3.0])
        assert offset == -1.0
        assert np.array_equal(shifted, [0.0, 1.0, 4.0])

    def test_constant_vector(self):
        shifted, offset = shift_for_encoding([2.0, 2.0])
        assert offset == 2.0
        assert np.array_equal(shifted, [0.0, 0.0])

    def test_grid_q_row_roundtrip(self):
        mdp = build_gridworld(4, 4, 0.2, (3, 3), 0.95)
        q, _ = value_iteration(mdp, 1e-10)
        row = q[14]  # neighbor of the goal
        shifted, offset = shift_for_encoding(row)
        assert shifted[np.argmin(row)] == 0.0
        assert np.abs((shifted + offset) - row).max() <= 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            shift_for_encoding([np.nan, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40))
@example([0.0, 5.35e-176])
@example([0.0, 5e-324])
@example([1e200, 2e200])
def test_shift_encode_decode_roundtrip(values):
    values = np.asarray(values)
    shifted, offset = shift_for_encoding(values)
    if not shifted.any():  # constant vectors have no normalized encoding
        return
    state, scale, pad = amplitude_encode(shifted)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-9
    decoded = decode_amplitudes(state, scale, offset, len(values))
    scale_ref = max(1.0, np.abs(values).max())
    assert np.abs(decoded - values).max() <= 1e-12 * scale_ref


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]), 2)  # wrong length
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), 1)  # not unit norm


# ---------------------------------------------------------------------------
# Depolarizing trajectories
# ---------------------------------------------------------------------------

def _basis(n_qubits: int, index: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, n_qubits)


class TestDepolarizing:
    def test_p_zero_identity(self):
        state = _basis(1, 0)
        assert apply_depolarizing(state, 0.0, 0, seed=1) is state

    def test_rejects_bad_qubit(self):
        with pytest.raises(ValueError):
            apply_depolarizing(_basis(1, 0), 0.5, 1, seed=0)

    def test_output_stays_normalized(self):
        state = StateVector(np.array([0.6, 0.8j]), 1)
        for seed in range(50):
            out = apply_depolarizing(state, 0.9, 0, seed=seed)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-9

    @pytest.mark.parametrize("index", [0, 1])
    def test_trajectory_ensemble_matches_channel(self, index):
        # ensemble over Pauli draws vs the density-matrix channel, TV <= 0.01
        p = 0.35
        state = _basis(1, index)
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        expected = measurement_probs(depolarize_density(rho, p))
        n = 100_000
        accum = np.zeros(2)
        for seed in range(n):
            out = apply_depolarizing(state, p, 0, seed=seed)
            accum += np.abs(out.amplitudes) ** 2
        tv = 0.5 * np.abs(accum / n - expected).sum()
        assert tv <= 0.01

    def test_plus_state_measurement_uniform(self):
        plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), 1)
        rho = np.outer(plus.amplitudes, plus.amplitudes.conj())
        expected = measurement_probs(depolarize_density(rho, 0.5))
        accum = np.zeros(2)
        n = 20_000
        for seed in range(n):
            out = apply_depolarizing(plus, 0.5, 0, seed=seed)
            accum += np.abs(out.amplitudes) ** 2
        assert 0.5 * np.abs(accum / n - expected).sum() <= 0.01

    def test_two_qubit_target(self):
        # X or Y on qubit 1 of |00> must move mass to index 2
        state = _basis(2, 0)
        seen = set()
        for seed in range(200):
            out = apply_depolarizing(state, 1.0, 1, seed=seed)
            seen.add(int(np.argmax(np.abs(out.amplitudes))))
        assert seen <= {0, 2}
        assert 2 in seen


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class TestMeasure:
    def test_basis_state_is_deterministic(self):
        hist = measure(_basis(2, 3), shots=100, seed=0)
        assert hist.counts == {3: 100}
        assert hist.shots == 100

    def test_uniform_chi_square(self):
        from scipy import stats
        state, _, _ = amplitude_encode([0.5, 0.5, 0.5, 0.5])
        passed = 0
        for seed in range(10):
            hist = measure(state, shots=512, seed=seed)
            observed = [hist.counts.get(i, 0) for i in range(4)]
            if stats.chisquare(observed).pvalue > 0.001:
                passed += 1
        assert passed >= 9

    def test_many_shots_concentrate(self):
        state, _, _ = amplitude_encode([0.5, 0.5, 0.5, 0.5])
        hist = measure(state, shots=1_000_000, seed=3)
        for i in range(4):
            assert hist.counts[i] / 1e6 == pytest.approx(0.25, abs=0.002)

    def test_deterministic_given_seed(self):
        state, _, _ = amplitude_encode([1.0, 2.0, 3.0])
        a = measure(state, 1000, seed=42)
        b = measure(state, 1000, seed=42)
        assert a.counts == b.counts

    def test_noisy_bitflip_statistics(self):
        # per-qubit flip probability 2p/3, independently per bit
        p = 0.3
        hist = measure(_basis(2, 0), shots=100_000, noise=NoiseModel(p), seed=9)
        flip = 2 * p / 3
        expected = {
            0: (1 - flip) ** 2, 1: flip * (1 - flip),
            2: (1 - flip) * flip, 3: flip ** 2,
        }
        for idx, prob in expected.items():
            assert hist.counts.get(idx, 0) / 1e5 == pytest.approx(prob, abs=0.01)
        assert sum(hist.counts.values()) == hist.shots

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            measure(_basis(1, 0), shots=0, seed=0)


class TestExpectedIndex:
    def test_point_mass(self):
        assert expected_index(MeasurementHistogram({3: 100}, 100, 2)) == 3.0

    def test_exact_uniform_is_exact(self):
        hist = MeasurementHistogram({0: 128, 1: 128, 2: 128, 3: 128}, 512, 2)
        assert expected_index(hist) == 1.5

    def test_sampled_mean_near_uniform_value(self):
        state, _, _ = amplitude_encode([0.5, 0.5, 0.5, 0.5])
        values = [expected_index(measure(state, 512, seed=s)) for s in range(100)]
        assert np.mean(values) == pytest.approx(1.5, abs=0.15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            expected_index(MeasurementHistogram({}, 0, 1))

    def test_json_roundtrip(self):
        import json
        hist = MeasurementHistogram({3: 5, 0: 2, 1: 1}, shots=8, num_qubits=2)
        text = json.dumps(hist.to_json_dict())
        assert text == '{"0": 2, "1": 1, "3": 5}'  # string keys in index order
        assert {int(i): c for i, c in json.loads(text).items()} == hist.counts


# ---------------------------------------------------------------------------
# Scalar readout
# ---------------------------------------------------------------------------

class TestAmplitudeEstimate:
    def test_hard_bound_always_holds(self):
        rng = np.random.default_rng(0)
        for trial in range(2000):
            value = float(rng.random())
            cfg = EstimatorConfig(mode=AE_ORACLE, epsilon=0.05, seed=trial)
            est, _ = amplitude_estimate(value, cfg)
            assert abs(est - value) <= 0.05

    def test_oracle_reads_are_clipped_to_the_unit_interval(self):
        values = np.repeat([0.0, 1.0, 0.02, 0.5], 500)
        cfg = EstimatorConfig(mode=AE_ORACLE, epsilon=0.3)
        reads = readout_batch(values, cfg, np.random.default_rng(4))
        assert reads.min() == 0.0 and reads.max() == 1.0
        assert np.abs(reads - values).max() <= 0.3
        # about half the reads of 0 and of 1 land on the bound itself
        assert 0.4 < np.mean(reads[:500] == 0.0) < 0.6
        assert 0.4 < np.mean(reads[500:1000] == 1.0) < 0.6
        assert np.all((reads[1500:] > 0.0) & (reads[1500:] < 1.0))

    def test_query_cost_formula(self):
        assert ae_query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=0.01)) == 100
        assert ae_query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=0.1)) == 10
        assert ae_query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=0.03)) == 34
        assert ae_query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=0.01, c_ae=0.04)) == 4
        assert ae_query_cost(EstimatorConfig(mode=SHOT_SAMPLING, shots=512)) == 512

    def test_doubling_precision_doubles_queries(self):
        for eps in (0.2, 0.1, 0.05, 0.025):
            q1 = ae_query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=eps))
            q2 = ae_query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=eps / 2))
            assert q2 == 2 * q1

    def test_shot_mode_rmse_slope(self):
        shot_counts = [128, 512, 2048, 8192]
        rmses = []
        for shots in shot_counts:
            errs = []
            for seed in range(1000):
                cfg = EstimatorConfig(mode=SHOT_SAMPLING, shots=shots, seed=seed)
                est, queries = amplitude_estimate(0.5, cfg)
                assert queries == shots
                errs.append(est - 0.5)
            rmses.append(np.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log(shot_counts), np.log(rmses), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_deterministic_given_seed(self):
        cfg = EstimatorConfig(mode=SHOT_SAMPLING, shots=256, seed=11)
        assert amplitude_estimate(0.3, cfg) == amplitude_estimate(0.3, cfg)

    def test_noise_shifts_target(self):
        # at p = 1 every readout targets the fully depolarized value
        cfg = EstimatorConfig(mode=AE_ORACLE, epsilon=0.01,
                              noise=NoiseModel(1.0), seed=0)
        est, _ = amplitude_estimate(0.0, cfg)
        assert est == pytest.approx(2.0 / 3.0, abs=0.011)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            amplitude_estimate(1.5, EstimatorConfig(mode=AE_ORACLE, epsilon=0.1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(mode=AE_ORACLE, epsilon=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(mode=AE_ORACLE, epsilon=1.5)
        with pytest.raises(ValueError):
            EstimatorConfig(mode=SHOT_SAMPLING, shots=0)
        with pytest.raises(ValueError):
            EstimatorConfig(mode="other")
        with pytest.raises(ValueError):
            NoiseModel(-0.1)
        # a query cost ceil(c_ae / epsilon) past the float range cannot be charged
        with pytest.raises(ValueError, match="finite readout cost"):
            EstimatorConfig(mode=AE_ORACLE, epsilon=1e-320)
        with pytest.raises(ValueError, match="finite readout cost"):
            EstimatorConfig(mode=AE_ORACLE, epsilon=1e-10, c_ae=1e308)
        EstimatorConfig(mode=SHOT_SAMPLING, epsilon=1e-320)  # shot mode never reads it

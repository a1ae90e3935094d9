import math

import numpy as np
import pytest

from qpolicy.emulator import (
    AE_ORACLE,
    SHOT_SAMPLING,
    EstimatorConfig,
    StateVector,
    query_cost,
    amplitude_encode,
    readout_batch,
)
from qpolicy.engine import encode_qtable
from qpolicy.rng import stream


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
        decoded = np.real(state.amplitudes[:len(values)]) * scale
        assert np.abs(decoded - values).max() <= 1e-12 * max(values)

    def test_single_entry_is_zero_qubits(self):
        state, scale, pad = amplitude_encode([2.5])
        assert state.num_qubits == 0
        assert pad == 0
        assert scale == pytest.approx(2.5)


class TestShift:
    """The min shift that precedes amplitude encoding, which
    engine.encode_qtable makes on the flattened table."""

    def test_constant_vector(self):
        state, scale, offset = encode_qtable(np.array([[2.0, 2.0]]))
        assert offset == 2.0
        assert state is None and scale == 0.0  # the shifted row is all zeros

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            encode_qtable(np.array([[np.nan, 1.0]]))


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]), 2)  # wrong length
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), 1)  # not unit norm


# ---------------------------------------------------------------------------
# Scalar readout
# ---------------------------------------------------------------------------

class TestAmplitudeEstimate:
    def test_hard_bound_always_holds(self):
        values = np.random.default_rng(0).random(2000)
        cfg = EstimatorConfig(mode=AE_ORACLE, epsilon=0.05)
        reads = readout_batch(values, cfg, np.random.default_rng(1))
        assert np.abs(reads - values).max() <= 0.05

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
        assert query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=0.01)) == 100
        assert query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=0.1)) == 10
        assert query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=0.03)) == 34
        assert query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=0.01, c_ae=0.04)) == 4
        assert query_cost(EstimatorConfig(mode=SHOT_SAMPLING, shots=512)) == 512

    def test_doubling_precision_doubles_queries(self):
        for eps in (0.2, 0.1, 0.05, 0.025):
            q1 = query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=eps))
            q2 = query_cost(EstimatorConfig(mode=AE_ORACLE, epsilon=eps / 2))
            assert q2 == 2 * q1

    def test_shot_mode_rmse_slope(self):
        shot_counts = [128, 512, 2048, 8192]
        rmses = []
        for shots in shot_counts:
            cfg = EstimatorConfig(mode=SHOT_SAMPLING, shots=shots)
            assert query_cost(cfg) == shots
            errs = readout_batch(np.full(1000, 0.5), cfg, np.random.default_rng(shots)) - 0.5
            rmses.append(np.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log(shot_counts), np.log(rmses), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_deterministic_given_seed(self):
        # the engine draws each readout from a stream keyed by its seed
        values = np.linspace(0.0, 1.0, 50)
        for mode in (AE_ORACLE, SHOT_SAMPLING):
            cfg = EstimatorConfig(mode=mode, shots=256, epsilon=0.1)
            first = readout_batch(values, cfg, stream(11, 0))
            assert np.array_equal(first, readout_batch(values, cfg, stream(11, 0)))
            assert not np.array_equal(first, readout_batch(values, cfg, stream(12, 0)))

    def test_noise_shifts_target(self):
        # at p = 1 every readout targets the fully depolarized value
        cfg = EstimatorConfig(mode=AE_ORACLE, epsilon=0.01, noise_p=1.0)
        reads = readout_batch(np.zeros(1000), cfg, np.random.default_rng(0))
        assert np.abs(reads - 2.0 / 3.0).max() <= 0.01 + 1e-15

    def test_rejects_out_of_range_value(self):
        # every comparison with NaN is False, so only a guard that asks for
        # the values to lie inside [0, 1] catches it
        for mode in (AE_ORACLE, SHOT_SAMPLING):
            for bad in (1.5, -0.1, np.nan):
                with pytest.raises(ValueError, match=r"readout values must lie in \[0, 1\]"):
                    readout_batch(np.array([0.5, bad]), EstimatorConfig(mode=mode, epsilon=0.1),
                                  np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(mode=AE_ORACLE, epsilon=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(mode=AE_ORACLE, epsilon=1.5)
        with pytest.raises(ValueError):
            EstimatorConfig(mode=SHOT_SAMPLING, shots=0)
        with pytest.raises(ValueError):
            EstimatorConfig(mode="other")
        with pytest.raises(ValueError, match=r"noise_p must lie in \[0, 1\]"):
            EstimatorConfig(noise_p=-0.1)
        # a query cost ceil(c_ae / epsilon) past the float range cannot be charged
        with pytest.raises(ValueError, match="finite readout cost"):
            EstimatorConfig(mode=AE_ORACLE, epsilon=1e-320)
        with pytest.raises(ValueError, match="finite readout cost"):
            EstimatorConfig(mode=AE_ORACLE, epsilon=1e-10, c_ae=1e308)
        EstimatorConfig(mode=SHOT_SAMPLING, epsilon=1e-320)  # shot mode never reads it
        # yet it refuses NaN settings, which pass a check written as `x <= 0`
        for setting, message in [("epsilon", "epsilon must be positive"),
                                 ("c_ae", "c_ae must be positive"),
                                 ("shots", "shots >= 1"), ("noise_p", "noise_p")]:
            with pytest.raises(ValueError, match=message):
                EstimatorConfig(mode=SHOT_SAMPLING, **{setting: math.nan})

    @pytest.mark.parametrize("shots", [2.5, 4.0, True])
    def test_rejects_shots_that_are_not_a_whole_number(self, shots):
        # the binomial draw would truncate 2.5 to 2 shots while the mean
        # divides by 2.5, and a bool is not a count
        with pytest.raises(ValueError, match=f"shots >= 1, a whole number, got {shots!r}$"):
            EstimatorConfig(mode=SHOT_SAMPLING, shots=shots)
        assert EstimatorConfig(mode=SHOT_SAMPLING, shots=np.int64(4)).shots == 4

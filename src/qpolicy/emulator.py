"""State-vector emulation of the quantum primitives behind the policy engine.

Preparation is exact: amplitudes are written directly, reproducing what an
exact state-preparation circuit would output, so gate counts live only in
the resource estimator. Noise is realized by quantum trajectories, sampling
one Pauli error per qubit per prepare-and-measure cycle; the ensemble over
seeds reproduces the depolarizing channel
    E(rho) = (1 - p) rho + (p/3) (X rho X + Y rho Y + Z rho Z).

For computational-basis measurement a sampled Pauli pattern acts as an index
bit flip: X and Y flip the measured bit, Z and the identity leave it alone.
The noisy sampler below uses that equivalence (flip each index bit with
probability 2p/3) instead of materializing one perturbed state per shot;
the outcome distribution is identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .rng import stream

NORM_TOL = 1e-9

AE_ORACLE = "ae_oracle"
SHOT_SAMPLING = "shot_sampling"


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector of power-of-two length."""

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != 1 << self.num_qubits:
            raise ValueError(f"amplitude vector must have length 2^{self.num_qubits}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        probs = np.abs(self.amplitudes) ** 2
        return probs / probs.sum()  # squash norm drift below NORM_TOL


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strength applied per qubit per prepare-measure cycle."""

    depolarizing_p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.depolarizing_p <= 1.0:
            raise ValueError("depolarizing probability must lie in [0, 1]")


@dataclass
class MeasurementHistogram:
    """Counts of computational-basis outcomes from shot sampling."""

    counts: dict
    shots: int
    num_qubits: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts must sum to shots")
        dim = 1 << self.num_qubits
        if any(not 0 <= i < dim for i in self.counts):
            raise ValueError("histogram contains an out-of-range index")

    def to_json_dict(self) -> dict:
        """{index: count} map with string keys, ready for json.dump."""
        return {str(i): int(c) for i, c in sorted(self.counts.items())}

    @classmethod
    def from_json_dict(cls, doc: dict, num_qubits: int) -> "MeasurementHistogram":
        counts = {int(i): int(c) for i, c in doc.items()}
        return cls(counts=counts, shots=sum(counts.values()), num_qubits=num_qubits)


@dataclass
class EstimatorConfig:
    """How scalar values in [0, 1] are read out, and what each readout costs.

    shot_sampling draws `shots` one-shot measurements (cost = shots);
    ae_oracle returns the value to additive precision epsilon at cost
    ceil(c_ae / epsilon).
    """

    mode: str = SHOT_SAMPLING
    shots: int = 512
    epsilon: float = 0.01
    c_ae: float = 1.0
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (AE_ORACLE, SHOT_SAMPLING):
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if self.mode == SHOT_SAMPLING and self.shots < 1:
            raise ValueError("shot_sampling requires shots >= 1")
        if self.mode == AE_ORACLE and not 0.0 < self.epsilon < 1.0:
            raise ValueError("ae_oracle requires 0 < epsilon < 1")
        if self.c_ae <= 0:
            raise ValueError("c_ae must be positive")
        if self.mode == AE_ORACLE and not math.isfinite(self.c_ae / self.epsilon):
            raise ValueError("ae_oracle requires a finite readout cost c_ae / epsilon")

    def effective(self) -> "EstimatorConfig":
        """This config with the fields its mode never reads reset to their
        defaults: readout_batch, readout_variance and ae_query_cost read
        shots in shot_sampling mode only, epsilon and c_ae in ae_oracle only."""
        if self.mode == SHOT_SAMPLING:  # the class attributes hold the defaults
            return replace(self, epsilon=EstimatorConfig.epsilon, c_ae=EstimatorConfig.c_ae)
        return replace(self, shots=EstimatorConfig.shots)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def next_power_of_two(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def amplitude_encode(values) -> tuple[StateVector, float, int]:
    """Embed a nonnegative vector in state amplitudes.

    Pads with zeros to the next power of two and divides by the L2 norm.
    Returns (state, scale, pad_len) where scale is the norm divided out and
    pad_len the number of zeros appended, so callers can decode. The norm is
    taken of the vector divided by its largest entry, so it neither
    underflows for tiny entries nor overflows for huge ones.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    if np.any(values < 0):
        raise ValueError("negative entry: shift the vector before encoding")
    peak = float(values.max())
    if peak == 0.0:
        raise ValueError("all-zero vector has no normalized encoding")
    unit = values / peak
    norm = float(np.linalg.norm(unit))
    scale = peak * norm
    dim = next_power_of_two(values.size)
    amps = np.zeros(dim)
    amps[: values.size] = unit / norm
    n = dim.bit_length() - 1
    return StateVector(amps.astype(complex), n), scale, dim - values.size


def shift_for_encoding(q_row) -> tuple[np.ndarray, float]:
    """Subtract the minimum so the row becomes nonnegative; return the offset."""
    q_row = np.asarray(q_row, dtype=float)
    if q_row.size == 0 or not np.all(np.isfinite(q_row)):
        raise ValueError("expected a nonempty finite vector")
    offset = float(q_row.min())
    return q_row - offset, offset


def decode_amplitudes(state: StateVector, scale: float, offset: float,
                      length: int) -> np.ndarray:
    """Invert shift_for_encoding + amplitude_encode (drops the padding)."""
    return np.real(state.amplitudes[:length]) * scale + offset


# ---------------------------------------------------------------------------
# Noise and measurement
# ---------------------------------------------------------------------------

def _apply_pauli(amps: np.ndarray, which: int, qubit: int, n: int) -> np.ndarray:
    """Apply X (0), Y (1) or Z (2) on `qubit` of an n-qubit state vector."""
    out = amps.reshape((2,) * n).copy()
    axis = n - 1 - qubit  # qubit 0 is the least significant index bit
    if which == 0:  # X
        out = np.flip(out, axis=axis)
    elif which == 1:  # Y
        out = np.flip(out, axis=axis)
        lo = [slice(None)] * n
        hi = [slice(None)] * n
        lo[axis], hi[axis] = 0, 1
        out[tuple(lo)] *= -1j
        out[tuple(hi)] *= 1j
    else:  # Z
        hi = [slice(None)] * n
        hi[axis] = 1
        out[tuple(hi)] *= -1
    return out.reshape(-1)


def apply_depolarizing(state: StateVector, p: float, qubit: int, seed: int = 0) -> StateVector:
    """One stochastic trajectory of the single-qubit depolarizing channel.

    With probability 1 - p the state is returned unchanged (bit-exactly);
    otherwise X, Y or Z is applied with probability p/3 each.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0 <= qubit < max(state.num_qubits, 1):
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    if p == 0.0 or state.num_qubits == 0:
        return state
    u = stream(seed, 3).random()
    if u >= p:
        return state
    which = int(u / (p / 3.0))  # 0, 1, 2 with probability p/3 each
    amps = _apply_pauli(np.asarray(state.amplitudes), min(which, 2), qubit, state.num_qubits)
    return StateVector(amps, state.num_qubits)


def measure(state: StateVector, shots: int, noise: NoiseModel | None = None,
            seed: int = 0) -> MeasurementHistogram:
    """Sample basis indices from |amplitude|^2, shots times.

    With noise, each shot independently applies the per-qubit depolarizing
    cycle before readout, realized as index bit flips with probability 2p/3
    per qubit (exactly the X/Y share of the sampled Pauli patterns).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = stream(seed, 7)
    probs = state.probabilities()
    indices = rng.choice(probs.size, size=shots, p=probs)
    p = 0.0 if noise is None else noise.depolarizing_p
    if p > 0.0 and state.num_qubits > 0:
        flips = rng.random((shots, state.num_qubits)) < (2.0 * p / 3.0)
        masks = flips.dot(1 << np.arange(state.num_qubits))
        indices = indices ^ masks
    values, counts = np.unique(indices, return_counts=True)
    return MeasurementHistogram(
        counts={int(v): int(c) for v, c in zip(values, counts)},
        shots=shots,
        num_qubits=state.num_qubits,
    )


def expected_index(hist: MeasurementHistogram) -> float:
    """E[index] = sum_i i * counts[i] / shots, the readout value proxy."""
    if hist.shots < 1 or not hist.counts:
        raise ValueError("histogram is empty")
    return sum(i * c for i, c in hist.counts.items()) / hist.shots


# ---------------------------------------------------------------------------
# Scalar value readout
# ---------------------------------------------------------------------------

def depolarized_value(value: float | np.ndarray, p: float):
    """Bernoulli parameter after the readout qubit passes the channel.

    X and Y each flip the outcome distribution (probability p/3 each), Z
    leaves it alone, so Pr(1) becomes (1 - 2p/3) v + (2p/3)(1 - v). At
    p = 0 the input is returned bit-exactly.
    """
    if p == 0.0:
        return value
    flip = 2.0 * p / 3.0
    return (1.0 - flip) * value + flip * (1.0 - np.asarray(value))


def ae_query_cost(config: EstimatorConfig) -> int:
    """Queries consumed by one readout under the given config."""
    if config.mode == SHOT_SAMPLING:
        return config.shots
    # Guard against float quotients landing one ulp above an integer.
    return math.ceil((config.c_ae / config.epsilon) * (1.0 - 1e-12))


def readout_batch(values: np.ndarray, config: EstimatorConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Estimate a batch of values in [0, 1], one readout each.

    Elementwise independent draws in index order, so results do not depend
    on how callers partition the batch. Every estimate lies in [0, 1]: an
    ae_oracle read is clipped there, as no amplitude estimator can return a
    value outside it, and the clipped read stays within epsilon of its
    depolarized value.
    """
    values = np.asarray(values, dtype=float)
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise ValueError("readout values must lie in [0, 1]")
    noisy = depolarized_value(values, config.noise.depolarizing_p)
    if config.mode == AE_ORACLE:
        error = rng.uniform(-config.epsilon, config.epsilon, size=values.shape)
        return np.clip(noisy + error, 0.0, 1.0)
    counts = rng.binomial(config.shots, noisy)
    return counts / config.shots


def readout_variance(values: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    """Variance of readout_batch's estimate of each value, in closed form.

    ae_oracle: the depolarized value p~ plus a uniform error on
    [-epsilon, +epsilon], clipped to [0, 1]; epsilon^2 / 3 wherever the
    clip cannot act. shot_sampling: a binomial mean over `shots` draws of
    p~ has variance p~ (1 - p~) / shots.
    """
    noisy = depolarized_value(np.asarray(values, dtype=float), config.noise.depolarizing_p)
    if config.mode == AE_ORACLE:
        return _clipped_uniform_variance(noisy, config.epsilon)
    return noisy * (1.0 - noisy) / config.shots


def _clipped_uniform_variance(center: np.ndarray, epsilon: float) -> np.ndarray:
    """Variance of clip(center + U, 0, 1) for U uniform on [-epsilon, epsilon]."""
    # the clip bounds relative to center; the mass of U beyond them sits on them
    lo = -np.minimum(epsilon, center)
    hi = np.minimum(epsilon, 1.0 - center)
    width = 2.0 * epsilon
    mean = ((hi ** 2 - lo ** 2) / 2.0 + lo * (epsilon + lo) + hi * (epsilon - hi)) / width
    second = ((hi ** 3 - lo ** 3) / 3.0 + lo ** 2 * (epsilon + lo)
              + hi ** 2 * (epsilon - hi)) / width
    return second - mean ** 2


def amplitude_estimate(true_value: float, config: EstimatorConfig) -> tuple[float, int]:
    """Estimate one probability amplitude; returns (estimate, queries).

    ae_oracle: true value plus uniform error on [-epsilon, +epsilon],
    clipped to [0, 1], cost ceil(c_ae / epsilon). shot_sampling: empirical
    mean of `shots` Bernoulli draws, cost shots. Deterministic given
    config.seed. With noise, the estimate targets the depolarized value (the
    state actually measured).
    """
    if not 0.0 <= true_value <= 1.0:
        raise ValueError("true_value must lie in [0, 1]")
    rng = stream(config.seed, 11)
    est = readout_batch(np.array([true_value]), config, rng)
    return float(est[0]), ae_query_cost(config)

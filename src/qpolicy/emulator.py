"""Exact state encoding and the scalar readout laws behind the policy engine.

Encoding is exact: amplitude_encode writes the amplitudes directly, as an
exact state-preparation circuit would, so gate counts live only in the
resource estimator. The engine's encode_qtable encodes a whole table this
way, and a state's outcome law is |amplitude|^2.

Every read the engine makes goes through readout_batch, which draws each
value v in [0, 1] from one of two closed-form laws around its depolarized
value, the Pr(1) of the readout qubit after the channel
    E(rho) = (1 - p) rho + (p/3) (X rho X + Y rho Y + Z rho Z):
ae_oracle adds a uniform error on [-epsilon, +epsilon] and clips to [0, 1],
at cost ceil(c_ae / epsilon); shot_sampling takes the mean of `shots`
Bernoulli draws, at cost shots. readout_variance gives the variance of
either law in closed form.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace

import numpy as np

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


@dataclass(frozen=True)
class EstimatorConfig:
    """All readout settings: how values in [0, 1] are read out, at what cost.

    shot_sampling draws `shots` one-shot measurements (cost = shots);
    ae_oracle returns the value to additive precision epsilon at cost
    ceil(c_ae / epsilon). Either reads through the depolarizing channel of
    strength noise_p on the readout qubit. Frozen, so that equal settings
    hash alike: the engine takes one readout_variance call per distinct
    estimator.

    seed is accepted and dropped: the benchmark worker passes it, and the
    engine draws its readout streams from QPolicyConfig.seed.
    """

    mode: str = SHOT_SAMPLING
    shots: int = 512
    epsilon: float = 0.01
    c_ae: float = 1.0
    noise_p: float = 0.0
    seed: InitVar[int | None] = None

    def __post_init__(self, seed):
        if self.mode not in (AE_ORACLE, SHOT_SAMPLING):
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if not self.epsilon > 0:  # NaN fails every check written this way
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise_p must lie in [0, 1]")
        if self.mode == SHOT_SAMPLING and not self.shots >= 1:
            raise ValueError("shot_sampling requires shots >= 1")
        if self.mode == AE_ORACLE and not 0.0 < self.epsilon < 1.0:
            raise ValueError("ae_oracle requires 0 < epsilon < 1")
        if not self.c_ae > 0:
            raise ValueError("c_ae must be positive")
        if self.mode == AE_ORACLE and not math.isfinite(self.c_ae / self.epsilon):
            raise ValueError("ae_oracle requires a finite readout cost c_ae / epsilon")

    def effective(self) -> "EstimatorConfig":
        """This config with the fields its mode never reads reset to their
        defaults: readout_batch, readout_variance and query_cost read
        shots in shot_sampling mode only, epsilon and c_ae in ae_oracle only."""
        if self.mode == SHOT_SAMPLING:  # the class attributes hold the defaults
            return replace(self, epsilon=EstimatorConfig.epsilon, c_ae=EstimatorConfig.c_ae)
        return replace(self, shots=EstimatorConfig.shots)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

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
    dim = 1 << (values.size - 1).bit_length()
    amps = np.zeros(dim)
    amps[: values.size] = unit / norm
    n = dim.bit_length() - 1
    return StateVector(amps.astype(complex), n), scale, dim - values.size


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


def query_cost(config: EstimatorConfig) -> int:
    """Queries one readout costs: shots in shot_sampling, ceil(c_ae / epsilon) in ae_oracle."""
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
    # written so that a NaN, for which every comparison is False, fails it
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError("readout values must lie in [0, 1]")
    noisy = depolarized_value(values, config.noise_p)
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
    noisy = depolarized_value(np.asarray(values, dtype=float), config.noise_p)
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

"""The readout law behind every engine read, next to the state it stands for.

A vector is encoded exactly into state amplitudes, and its outcome law is
|amplitude|^2. Noise acts on the readout qubit as the depolarizing channel,
whose Pr(1) is the closed form depolarized_value. Shot-mode readout_batch
draws a binomial mean of that value, whose variance readout_variance gives.
"""
import numpy as np

from qpolicy import SHOT_SAMPLING, EstimatorConfig, NoiseModel, amplitude_encode
from qpolicy.emulator import depolarized_value, readout_batch, readout_variance
from qpolicy.rng import stream

# the canonical uniform example: all four amplitudes equal
state, scale, pad = amplitude_encode([0.5, 0.5, 0.5, 0.5])
law = np.abs(state.amplitudes) ** 2
print(f"uniform vector -> {state.num_qubits}-qubit state, outcome law {law}")
print(f"expected index from |amp|^2: {np.arange(law.size) @ law:.3f}")

# the channel on the density matrix of sqrt(1 - v)|0> + sqrt(v)|1>
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
v = 0.3
amps = np.array([np.sqrt(1 - v), np.sqrt(v)], dtype=complex)
rho = np.outer(amps, amps.conj())
print(f"\nreadout value v = {v}")
for p in (0.0, 0.05, 0.75):
    noisy = (1 - p) * rho + (p / 3) * (X @ rho @ X + Y @ rho @ Y + Z @ rho @ Z)
    print(f"p = {p:4}: channel Pr(1) = {noisy[1, 1].real:.6f}, "
          f"depolarized_value = {depolarized_value(v, p):.6f}")
print("at p = 0.75 every input becomes maximally mixed")

# shot-mode reads: a binomial mean of the depolarized value
config = EstimatorConfig(mode=SHOT_SAMPLING, shots=512, noise=NoiseModel(0.05))
reads = readout_batch(np.full(20_000, v), config, stream(0, 0))
print(f"\n20000 reads at {config.shots} shots, p = 0.05:")
print(f"mean     {reads.mean():.5f}, depolarized_value {depolarized_value(v, 0.05):.5f}")
print(f"variance {reads.var():.3e}, readout_variance  "
      f"{float(readout_variance(np.array([v]), config)[0]):.3e}")

"""Logical-qubit and gate-count estimates for running the loop on hardware.

Qubit counts follow ceil(log2(|S| * |A|)) exactly, the index register
alone. An iteration reads every non-terminal (s, a) pair once, as the
engine does; gates/read prices one read and gates/iteration all of them.
The gate constants are calibration constants of the cost model, not
derived quantities.
"""
from types import SimpleNamespace

from qpolicy import QPolicyConfig, build_frozenlake, build_gridworld, estimate_resources

cfg = QPolicyConfig(epsilon=0.01)

for name, env in [
    ("4x4 grid", build_gridworld(4, 4, 0.2, (3, 3), 0.95)),
    ("8x8 lake", build_frozenlake(8, True, 0.95)),
    ("10x10 grid", build_gridworld(10, 10, 0.2, (9, 9), 0.95)),
]:
    est = estimate_resources(env, cfg)
    print(f"{name:<11} qubits {est.qubits:>2}  gates/update {est.gates_per_bellman_update:>3}  "
          f"gates/read {est.gates_per_read:>5}  "
          f"queries/iteration {est.queries_per_iteration:>6}  "
          f"gates/iteration {est.gates_per_iteration:>8}  "
          f"seconds at 1 kHz {est.seconds_per_iteration_at_1khz:>8.2f}")

# the register formula alone, for a state space far beyond simulation reach
huge = SimpleNamespace(num_states=10 ** 6, num_actions=4, sparsity_d=4,
                       terminal_states=frozenset())
est = estimate_resources(huge, cfg)
print(f"\n|S| = 1e6, |A| = 4 -> {est.qubits} register qubits from the formula")
print("(hardware tallies that include oracle and estimation ancillas run higher)")

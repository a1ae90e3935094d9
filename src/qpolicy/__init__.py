"""Quantum-emulated policy iteration for tabular MDPs.

The package splits into five layers: `mdp` (environments and exact
classical solvers), `emulator` (state-vector primitives, measurement,
noise, scalar readout), `engine` (the iteration loop, one readout per
iteration, and query accounting), `experiments` (seeded studies and
summaries), and `cli` (the command line front end).
"""

__version__ = "0.1.0"

from .emulator import (
    AE_ORACLE,
    SHOT_SAMPLING,
    EstimatorConfig,
    MeasurementHistogram,
    NoiseModel,
    StateVector,
    amplitude_encode,
    amplitude_estimate,
    apply_depolarizing,
    expected_index,
    measure,
    shift_for_encoding,
)
from .engine import (
    DivergenceError,
    IndexMap,
    IterationRecord,
    QPolicyConfig,
    encode_qtable,
    decode_qtable,
    policy_improve,
    quantum_bellman_update,
    run_qpolicy,
    run_qpolicy_lockstep,
    verify_convergence_bound,
    verify_stability,
)
from .experiments import (
    AblationGrid,
    ResourceEstimate,
    SummaryStats,
    compute_bellman_error,
    estimate_resources,
    matched_accuracy_scaling,
    run_ablation,
    run_noise_comparison,
    run_query_complexity_study,
    summarize,
)
from .mdp import (
    Policy,
    TabularMDP,
    bellman_backup,
    build_frozenlake,
    build_gridworld,
    exact_policy_evaluation,
    greedy_actions,
    load_mdp,
    mc_policy_evaluation,
    save_mdp,
    value_iteration,
)

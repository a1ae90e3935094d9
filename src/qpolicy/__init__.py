"""Quantum-emulated policy iteration for tabular MDPs.

The package splits into five layers: `mdp` (environments and exact
classical solvers), `emulator` (exact state encoding and the scalar
readout laws under depolarizing noise), `engine` (the iteration loop, one
readout per iteration, and query accounting), `experiments` (seeded
studies and summaries), and `cli` (the command line front end).
"""

__version__ = "0.1.0"

from .emulator import (
    AE_ORACLE,
    SHOT_SAMPLING,
    EstimatorConfig,
    NoiseModel,
    StateVector,
    amplitude_encode,
    shift_for_encoding,
)
from .engine import (
    DivergenceError,
    IterationRecord,
    QPolicyConfig,
    encode_qtable,
    policy_improve,
    run_qpolicy,
    run_qpolicy_lockstep,
)
from .experiments import (
    ResourceEstimate,
    SummaryStats,
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

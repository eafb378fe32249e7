"""paqsim: photon-atom quantum memory gate and timeline simulator.

Simulates distributed quantum computing with polarization qubits and
lossy atomic-ensemble quantum memories: post-selected CP/CNOT gates
mediated by Rydberg blockade (two schemes, macroscopic matrices and an
atom-level microsim), GHZ generation at dense and transfer-matrix
level, fidelity/efficiency metrics, and a recyclable-memory timeline
computer. All gate branches are unnormalized amplitude maps; the
squared norm is the post-selection success probability.
"""

from .errors import (
    ConfigError,
    EmptyMemoryError,
    GatePlacementError,
    MemoryCapacityError,
    NumericError,
    PaqsimError,
    ParseError,
    PostSelectionError,
)
from .gates import (
    CNOT,
    CP,
    HADAMARD,
    PHASE,
    X90,
    CircuitIR,
    CircuitOp,
    GhzTopology,
    build_ghz_circuit,
    cnot_from_cp,
    ghz_dense_eval,
    ghz_transfer_eval,
    lossy_cnot,
    run_circuit,
)
from .memory import (
    CollectiveState,
    EnsembleConfig,
    apply_collective_pulse,
    gaussian_cloud,
    read_photon,
    scheme1_cp_micro,
    vacuum_state,
    write_photon,
)
from .metrics import (
    basis_avg_gate_fidelity,
    efficiency_basis_avg,
    haar_exact_gate_fidelity,
    process_fidelity_postselected,
)
from .optics import (
    hwp,
    qwp,
)
from .pulses import (
    BlockadeModel,
    CpScheme,
    HardSphere,
    Perfect,
    PowerLaw,
    PulseSpec,
    cp_ideal_with_loss,
    pair_propagators,
    scheme1_cp_matrix,
    scheme2_cp_matrix,
    two_level_propagator,
)
from .qcir import (
    parse_circuit,
    parse_timeline,
)
from .qstate import (
    GateOpMatrix,
    StateVector,
    evolve,
    init_basis,
)
from .timeline import (
    TimelineProgram,
    TimelineTrace,
    max_depth,
    run_timeline,
)

__version__ = "0.1.0"

__all__ = [
    "BlockadeModel",
    "CNOT",
    "CP",
    "CircuitIR",
    "CircuitOp",
    "CollectiveState",
    "ConfigError",
    "CpScheme",
    "EmptyMemoryError",
    "EnsembleConfig",
    "GateOpMatrix",
    "GatePlacementError",
    "GhzTopology",
    "HADAMARD",
    "HardSphere",
    "MemoryCapacityError",
    "NumericError",
    "PHASE",
    "PaqsimError",
    "ParseError",
    "Perfect",
    "PostSelectionError",
    "PowerLaw",
    "PulseSpec",
    "StateVector",
    "TimelineProgram",
    "TimelineTrace",
    "X90",
    "apply_collective_pulse",
    "basis_avg_gate_fidelity",
    "build_ghz_circuit",
    "cnot_from_cp",
    "cp_ideal_with_loss",
    "efficiency_basis_avg",
    "evolve",
    "gaussian_cloud",
    "ghz_dense_eval",
    "ghz_transfer_eval",
    "haar_exact_gate_fidelity",
    "hwp",
    "init_basis",
    "lossy_cnot",
    "max_depth",
    "pair_propagators",
    "parse_circuit",
    "parse_timeline",
    "process_fidelity_postselected",
    "qwp",
    "read_photon",
    "run_circuit",
    "run_timeline",
    "scheme1_cp_matrix",
    "scheme1_cp_micro",
    "scheme2_cp_matrix",
    "two_level_propagator",
    "vacuum_state",
    "write_photon",
]

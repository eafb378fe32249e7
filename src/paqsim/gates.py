"""Lossy two-qubit gates, circuit IR, dense executor, and GHZ evaluators.

The CP gate acts only on the V-polarized components, which are the only
ones stored in a memory, so its post-selected branch carries the loss
structure diag(1, sqrt(eta), sqrt(eta), eta). A CNOT is that CP
sandwiched between wave-plate operations on the target. With s=sqrt(eta)
the CNOT branch is block-diagonal in the control bit:

    M0 = 1/2 [[1+s, s-1], [s-1, 1+s]]     control 0
    M1 = s/2 [[s-1, 1+s], [1+s, s-1]]     control 1

Because the control bit never flips, an N-qubit GHz cascade factors into
per-edge 2x2 branch transfers, which is what ghz_transfer_eval exploits
to reach N ~ 10^2 and beyond at O(N) cost.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .optics import PLATES
from .pulses import _eta, scheme1_cp_matrix, scheme2_cp_matrix
from .qstate import GateOpMatrix, StateVector, _as_index, _trusted, evolve, init_basis

HADAMARD = GateOpMatrix(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
PHASE = GateOpMatrix(np.diag([1.0, -1.0j]))
X90 = GateOpMatrix(np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2))
CP = GateOpMatrix(np.diag([1.0, -1.0, -1.0, -1.0]))
CNOT = GateOpMatrix(
    np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    )
)

# the target-side wave plates around the CP of a CNOT
_CNOT_BEFORE = np.kron(np.eye(2), X90.entries @ PHASE.entries)
_CNOT_AFTER = np.kron(np.eye(2), PHASE.entries @ X90.entries)

CpModel = Callable[[float], GateOpMatrix]

DENSE_QUBIT_CAP = 22


class GateSpec(NamedTuple):
    arity: int  # 1 or 2; a two-qubit gate reads (control, target)
    takes_angle: bool
    build: Callable[[float | None, float, CpModel], GateOpMatrix]


# The one list of .qc gate names: validation, execution, parsing and
# serialization all read it. Builders take (angle_deg, eta, cp_model) and
# look their callees up at call time, so a rebound cnot_from_cp is seen.
GATES: dict[str, GateSpec] = {
    "h": GateSpec(1, False, lambda a, eta, m: HADAMARD),
    "p": GateSpec(1, False, lambda a, eta, m: PHASE),
    "x90": GateSpec(1, False, lambda a, eta, m: X90),
    **{k: GateSpec(1, True, lambda a, eta, m, k=k: PLATES[k](a)) for k in PLATES},
    "cp": GateSpec(2, False, lambda a, eta, m: m(eta)),
    "cnot": GateSpec(2, False, lambda a, eta, m: cnot_from_cp(m(eta))),
}

_TARGETS = {1: "one target", 2: "two distinct targets"}


@dataclass(frozen=True)
class CircuitOp:
    kind: str
    targets: tuple[int, ...]
    angle_deg: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(_as_index(t, "target") for t in self.targets))
        k = self.kind
        spec = GATES.get(k)
        if spec is None:
            raise ConfigError(f"unknown op kind {k!r}")
        if len(self.targets) != spec.arity or len(set(self.targets)) != spec.arity:
            raise ConfigError(f"{k} takes {_TARGETS[spec.arity]}, got {self.targets}")
        if spec.takes_angle != (self.angle_deg is not None):
            raise ConfigError(f"angle mismatch for {k}")


@dataclass(frozen=True)
class CircuitIR:
    n_qubits: int
    ops: tuple[CircuitOp, ...]

    def __post_init__(self):
        if _as_index(self.n_qubits, "qubit count") < 1:
            raise ConfigError(f"need at least one qubit, got {self.n_qubits}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            for t in op.targets:
                if not 0 <= t < self.n_qubits:
                    raise ConfigError(
                        f"target {t} out of range for {self.n_qubits} qubits"
                    )


class GhzTopology(Enum):
    STAR = "star"
    CHAIN = "chain"

    @classmethod
    def from_name(cls, name: str) -> "GhzTopology":
        try:
            return cls(name.lower())
        except ValueError:
            raise ConfigError(f"unknown topology {name!r}; use star or chain") from None


def cp_ideal_with_loss(eta: float) -> GateOpMatrix:
    """diag(1,sqrt(eta),sqrt(eta),eta) applied to the ideal CP."""
    _eta(eta)
    s = math.sqrt(eta)
    return GateOpMatrix(np.diag([1.0, -s, -s, -eta]))


def cp_model_scheme1(
    blockade_shift_over_rabi: float = math.inf,
    pulse_area_errors: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> CpModel:
    def model(eta: float) -> GateOpMatrix:
        return scheme1_cp_matrix(eta, blockade_shift_over_rabi, pulse_area_errors)

    return model


def cp_model_scheme2(
    area: float = 10.0 * math.pi, b_over_rabi: float = math.inf
) -> CpModel:
    def model(eta: float) -> GateOpMatrix:
        return scheme2_cp_matrix(eta, area, b_over_rabi)

    return model


def cnot_from_cp(cp_gate: GateOpMatrix) -> GateOpMatrix:
    """Sandwich a CP branch in the target-side wave-plate sequence."""
    if cp_gate.arity != 2:
        raise ConfigError("cnot sandwich needs a two-qubit CP matrix")
    # unitaries around a checked gate keep its singular values: no new check
    return _trusted((_CNOT_AFTER @ cp_gate.entries @ _CNOT_BEFORE)[None])[0]


def lossy_cnot(eta: float) -> GateOpMatrix:
    """Post-selected CNOT branch with memory efficiency eta inside the CP."""
    return cnot_from_cp(cp_ideal_with_loss(eta))


def run_circuit(
    circuit: CircuitIR,
    eta: float = 1.0,
    cp_model: CpModel = cp_ideal_with_loss,
    initial: StateVector | None = None,
) -> StateVector:
    """Apply every op in order; the result is an unnormalized branch.

    Each distinct (kind, angle) gate is built once per call.
    """
    if initial is None:
        initial = init_basis(circuit.n_qubits, "0" * circuit.n_qubits)
    elif initial.n_qubits != circuit.n_qubits:
        raise ConfigError("initial state size does not match circuit")
    build = functools.cache(lambda kind, angle: GATES[kind].build(angle, eta, cp_model))
    return evolve(initial, [(build(op.kind, op.angle_deg), op.targets) for op in circuit.ops])


def _ghz_size(n: int) -> None:
    """The one check on a GHZ size."""
    if _as_index(n, "GHZ size") < 2:
        raise ConfigError(f"GHZ needs at least 2 qubits, got {n}")


def build_ghz_circuit(n: int, topology: GhzTopology = GhzTopology.STAR) -> CircuitIR:
    """H on qubit 0 followed by N-1 CNOTs, fanned out or chained."""
    _ghz_size(n)
    ops = [CircuitOp("h", (0,))]
    for i in range(1, n):
        ctrl = 0 if topology is GhzTopology.STAR else i - 1
        ops.append(CircuitOp("cnot", (ctrl, i)))
    return CircuitIR(n, tuple(ops))


def _ghz_amplitudes(n: int) -> np.ndarray:
    _ghz_size(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return amps


def ghz_state(n: int) -> StateVector:
    return StateVector(n, _ghz_amplitudes(n))


def _branch_transfers(eta: float) -> tuple[float, float, float, float]:
    s = math.sqrt(eta)
    return (1 + s) / 2, (s - 1) / 2, s * (s - 1) / 2, s * (1 + s) / 2


def ghz_transfer_eval(
    n: int, eta: float, topology: GhzTopology = GhzTopology.STAR
) -> tuple[float, float]:
    """O(N) GHZ fidelity and efficiency from per-edge branch transfers.

    T[c,t] is the amplitude for a CNOT to leave its fresh |0> target in
    state t given control branch c. The GHZ overlap needs only the
    all-0 and all-1 paths; the success probability sums |amp|^2 over
    every leaf, which is a product structure for Star and a 2x2 matrix
    power for Chain. Every path is measured against the all-0 one,
    t00^m, which no other path exceeds, and the Chain power is scaled by
    its largest eigenvalue: the fidelity never forms 0/0, and only the
    efficiency underflows at large n.
    """
    _ghz_size(n)
    _eta(eta)
    t00, t01, t10, t11 = _branch_transfers(eta)
    m = n - 1
    e = np.array([[t00, t01], [t10, t11]]) ** 2 / t00**2
    if topology is GhzTopology.STAR:
        row0, row1 = e.sum(axis=1)
        log_sum = m * math.log(row0) + math.log1p((row1 / row0) ** m)
    else:
        top = float(np.max(np.abs(np.linalg.eigvals(e))))
        log_sum = m * math.log(top) + math.log(np.linalg.matrix_power(e / top, m).sum())
    fidelity = 0.5 * (1.0 + (t11 / t00) ** m) ** 2 * math.exp(-log_sum)
    return fidelity, 0.5 * math.exp(2 * m * math.log(t00) + log_sum)


def ghz_dense_eval(
    n: int,
    eta: float,
    topology: GhzTopology = GhzTopology.STAR,
    cp_model: CpModel = cp_ideal_with_loss,
) -> tuple[float, float]:
    """Full state-vector GHZ run; the transfer evaluator's oracle."""
    if n > DENSE_QUBIT_CAP:
        raise ConfigError(
            f"dense GHZ capped at {DENSE_QUBIT_CAP} qubits, got {n}"
        )
    out = run_circuit(build_ghz_circuit(n, topology), eta, cp_model)
    prob = out.norm_sq
    if prob <= 0.0:
        raise ConfigError("GHZ branch has zero success probability")
    overlap = np.vdot(_ghz_amplitudes(n), out.amplitudes)
    return float(abs(overlap) ** 2 / prob), float(prob)

"""Recyclable-memory timeline computer: PMU steps, CP pairs, depth law.

Each step recycles every memory once (store and retrieve both
polarization modes), so survival costs eta per memory per step no
matter what the amplitudes are. CP gates between memories are allowed
only within the blockade reach and are applied as unit-efficiency
branches here; their own non-unitarity (scheme imperfections) shows up
through the branch norm, never as a second helping of eta.

Execution stops before a step whose memory cycle alone would drop the
cumulative success below the threshold, so an identity program runs for
exactly max_depth steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GatePlacementError
from .gates import CpModel, cp_ideal_with_loss
from .optics import PLATES, plate_gates
from .pulses import BlockadeModel, HardSphere
from .qstate import StateVector, _as_index, evolve, init_basis


@dataclass(frozen=True)
class PlateOp:
    kind: str
    angle_deg: float

    def __post_init__(self):
        if self.kind not in PLATES:
            raise ConfigError(f"unknown wave plate {self.kind!r}; use {' or '.join(PLATES)}")
        if not math.isfinite(self.angle_deg):
            raise ConfigError(f"wave-plate angle must be finite, got {self.angle_deg}")


def _pair(item, what: str) -> tuple:
    try:
        first, second = item
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a pair, got {item!r}") from None
    return first, second


@dataclass(frozen=True)
class TimelineStep:
    """One recycling round: wave plates per memory, then CP pairs."""

    pmu_ops: tuple[tuple[int, PlateOp], ...] = ()
    cp_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pmu = tuple((_as_index(q, "pmu index"), plate)
                    for q, plate in (_pair(op, "pmu op") for op in self.pmu_ops))
        cps = tuple((_as_index(a, "cp index"), _as_index(b, "cp index"))
                    for a, b in (_pair(pair, "cp pair") for pair in self.cp_pairs))
        object.__setattr__(self, "pmu_ops", pmu)
        object.__setattr__(self, "cp_pairs", cps)


@dataclass(frozen=True)
class TimelineProgram:
    n_qms: int
    positions: tuple[tuple[float, float], ...]
    steps: tuple[TimelineStep, ...] = ()

    def __post_init__(self):
        n = _as_index(self.n_qms, "memory count")
        if n < 1:
            raise ConfigError(f"need at least one memory, got {n}")
        pos = tuple((float(x), float(y)) for x, y in self.positions)
        if len(pos) != n:
            raise ConfigError(f"got {len(pos)} positions for {n} memories")
        if not np.isfinite(pos).all():
            raise ConfigError(f"memory positions must be finite, got {pos}")
        object.__setattr__(self, "n_qms", n)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            used: set[int] = set()
            for i, j in step.cp_pairs:
                if i == j:
                    raise ConfigError(f"cp pair ({i}, {j}) must be distinct")
                for q in (i, j):
                    if not 0 <= q < n:
                        raise ConfigError(f"cp index {q} out of range")
                    if q in used:
                        raise ConfigError(f"memory {q} appears in two cp pairs of one step")
                    used.add(q)
            for q, plate in step.pmu_ops:
                if not 0 <= q < n:
                    raise ConfigError(f"pmu index {q} out of range")
                if not isinstance(plate, PlateOp):
                    raise ConfigError(f"pmu plate must be a PlateOp, got {plate!r}")

    def distance(self, i: int, j: int) -> float:
        (xa, ya), (xb, yb) = self.positions[i], self.positions[j]
        return math.hypot(xa - xb, ya - yb)


@dataclass
class TimelineTrace:
    per_step_survival: list[float] = field(default_factory=list)
    cumulative_success: float = 1.0
    final_state: StateVector | None = None
    executed_steps: int = 0


def _eta_threshold(eta: float, threshold: float) -> None:
    """The one check on a timeline's memory efficiency and stop threshold."""
    if not 0.0 < eta <= 1.0:
        raise ConfigError(f"eta must be in (0,1], got {eta}")
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0,1), got {threshold}")


def max_depth(eta: float, p: float, n_qubits: int = 1) -> int | None:
    """Largest d with eta^(n*d) >= p; None means unbounded (eta = 1)."""
    _eta_threshold(eta, p)
    if _as_index(n_qubits, "qubit count") < 1:
        raise ConfigError(f"need at least one qubit, got {n_qubits}")
    if eta == 1.0:
        return None
    # the epsilon absorbs float dust at exact integer boundaries
    return int(math.floor(math.log(p) / (n_qubits * math.log(eta)) + 1e-9))


def run_timeline(
    program: TimelineProgram,
    eta: float,
    cp_model: CpModel = cp_ideal_with_loss,
    stop_threshold: float = 1e-6,
    blockade: BlockadeModel | None = None,
    initial: StateVector | None = None,
) -> TimelineTrace:
    _eta_threshold(eta, stop_threshold)
    if blockade is None:
        blockade = HardSphere()
    reach = blockade.reach_um()
    n = program.n_qms
    state = init_basis(n, "0" * n) if initial is None else initial
    if state.n_qubits != n:
        raise ConfigError("initial state size does not match program")
    cp_gate = cp_model(1.0)

    trace = TimelineTrace(final_state=state)
    cycle = eta**n
    norm = state.norm_sq
    for step in program.steps:
        if trace.cumulative_success * cycle < stop_threshold:
            break
        # the step's plates from one array pass
        plates = plate_gates([(plate.kind, plate.angle_deg) for _, plate in step.pmu_ops])
        ops = [(gate, (q,)) for gate, (q, _) in zip(plates, step.pmu_ops)]
        for i, j in step.cp_pairs:
            d = program.distance(i, j)
            if not d <= reach:
                raise GatePlacementError(
                    f"cp pair ({i}, {j}) at {d:.6g} um exceeds "
                    f"blockade reach {reach:.6g} um"
                )
            ops.append((cp_gate, (i, j)))
        state = evolve(state, ops)
        norm_before, norm = norm, state.norm_sq
        survival = cycle * norm / norm_before
        trace.per_step_survival.append(float(survival))
        trace.cumulative_success *= float(survival)
        trace.executed_steps += 1
        trace.final_state = state
        if trace.cumulative_success < stop_threshold:
            break
    return trace

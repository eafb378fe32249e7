"""Recyclable-memory timeline computer: steps of circuit ops, depth law.

A step is a tuple of gates.CircuitOp, the op type of circuits: wave
plates (`CircuitOp("hwp", (q,), 22.5)`) and CP pairs
(`CircuitOp("cp", (i, j))`), run in the order given; no memory is in
two CP pairs of one step. Each step recycles every memory once (store
and retrieve both polarization modes), so survival costs eta per memory
per step no matter what the amplitudes are. A CP pair takes its blockade
shift B/Omega from its distance under the blockade model: it is placed
only where B/Omega >= pulses.REACH_SHIFT_OVER_RABI, and its gate is the
cp model's at that shift. Gates are applied as unit-efficiency branches;
their own non-unitarity (scheme imperfections, finite blockade) shows up
through the branch norm, never as a second helping of eta.

Execution stops before a step whose memory cycle alone would drop the
cumulative success below the threshold, so an identity program runs for
exactly max_depth steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, GatePlacementError
from .gates import CircuitIR, CircuitOp, CpScheme
from .optics import PLATES, plate_gates
from .pulses import REACH_SHIFT_OVER_RABI, BlockadeModel, HardSphere
from .qstate import StateVector, _as_index, _qubit_count, evolve, init_basis


# the op kinds of a step: wave plates on one memory, CP pairs on two
_STEP_KINDS = frozenset((*PLATES, "cp"))


@dataclass(frozen=True)
class TimelineProgram:
    n_qms: int
    positions: tuple[tuple[float, float], ...]
    steps: tuple[tuple[CircuitOp, ...], ...] = ()

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
        steps = tuple(tuple(step) for step in self.steps)
        object.__setattr__(self, "steps", steps)
        for step in steps:
            cps: list[int] = []
            for op in step:
                if not (isinstance(op, CircuitOp) and op.kind in _STEP_KINDS):
                    raise ConfigError(f"a step holds plate and cp CircuitOps, got {op!r}")
                if op.kind == "cp":
                    cps += op.targets
            CircuitIR(n, step)
            if len(set(cps)) < len(cps):
                q = next(q for k, q in enumerate(cps) if q in cps[:k])
                raise ConfigError(f"memory {q} appears in two cp pairs of one step")

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
    cp_model: CpScheme = CpScheme(),
    stop_threshold: float = 1e-6,
    blockade: BlockadeModel | None = None,
    initial: StateVector | None = None,
) -> TimelineTrace:
    """Each CP pair's distance and shift are found once, at its first use
    in either order; each distinct shift's gate is built once per call."""
    _eta_threshold(eta, stop_threshold)
    if blockade is None:
        blockade = HardSphere()
    if cp_model.b_over_rabi != math.inf:
        raise ConfigError(
            f"a timeline takes B/Omega from each pair's distance; "
            f"the cp model's must be inf, got {cp_model.b_over_rabi}"
        )
    n = _qubit_count(program.n_qms)
    state = init_basis(n, "0" * n) if initial is None else initial
    if state.n_qubits != n:
        raise ConfigError("initial state size does not match program")
    build = functools.cache(lambda b: replace(cp_model, b_over_rabi=b).gate(1.0))

    @functools.cache
    def shift(i: int, j: int) -> tuple[float, float]:
        d = program.distance(i, j)
        # a distance that overflows is past every model's reach
        return d, float(blockade.shift_over_rabi(d)) if d < math.inf else 0.0

    @functools.cache
    def pair_gate(i: int, j: int):
        d, b = shift(min(i, j), max(i, j))  # once for (i, j) and (j, i)
        if not b >= REACH_SHIFT_OVER_RABI:
            raise GatePlacementError(
                f"cp pair ({i}, {j}) at {d:.6g} um exceeds blockade reach: "
                f"B/Omega {b:.6g} < {REACH_SHIFT_OVER_RABI:.6g}"
            )
        return build(b)

    trace = TimelineTrace(final_state=state)
    cycle = eta**n
    norm = state.norm_sq
    for step in program.steps:
        if trace.cumulative_success * cycle < stop_threshold:
            break
        # the step's plates from one array pass, taken in op order
        plates = iter(plate_gates([(op.kind, op.angle_deg) for op in step if op.kind != "cp"]))
        state = evolve(state, [(pair_gate(*op.targets) if op.kind == "cp" else next(plates),
                                op.targets) for op in step])
        norm_before, norm = norm, state.norm_sq
        survival = cycle * norm / norm_before
        trace.per_step_survival.append(float(survival))
        trace.cumulative_success *= float(survival)
        trace.executed_steps += 1
        trace.final_state = state
        if trace.cumulative_success < stop_threshold:
            break
    return trace

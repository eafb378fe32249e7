"""Properties driven by the gate table and the wave-plate vocabulary.

Random circuits draw their gate kinds from paqsim.gates.GATES and random
timelines their plates from paqsim.optics.PLATES, so a gate or plate
added there is covered by the round trips with no edit here. The
per-gate tests fail for a table entry that has no explicit builder below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paqsim import (
    HADAMARD,
    PHASE,
    X90,
    CircuitIR,
    CircuitOp,
    ConfigError,
    CpScheme,
    StateVector,
    TimelineProgram,
    cnot_from_cp,
    hwp,
    parse_circuit,
    parse_timeline,
    qwp,
    run_circuit,
)
from paqsim.gates import GATES
from paqsim.optics import PLATES

from _corpus import serialize_circuit, serialize_timeline
from _oracles import apply_gate

FINITE = st.floats(allow_nan=False, allow_infinity=False)

# one explicit builder per table entry: (angle_deg, eta, cp_scheme) -> gate
EXPLICIT = {
    "h": lambda angle, eta, model: HADAMARD,
    "p": lambda angle, eta, model: PHASE,
    "x90": lambda angle, eta, model: X90,
    "qwp": lambda angle, eta, model: qwp(angle),
    "hwp": lambda angle, eta, model: hwp(angle),
    "cp": lambda angle, eta, model: model.gate(eta),
    "cnot": lambda angle, eta, model: cnot_from_cp(model.gate(eta)),
}

CP_MODELS = {
    "ideal": CpScheme(),
    "scheme1": CpScheme("scheme1", 3.0, (1.0, 0.98, 1.01)),
    "scheme2": CpScheme("scheme2"),
}


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 6))
    kinds = [kind for kind, spec in GATES.items() if spec.arity <= n]
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        arity, takes_angle, _ = GATES[kind]
        targets = draw(st.permutations(range(n)))[:arity]
        angle = draw(FINITE) if takes_angle else None
        ops.append(CircuitOp(kind, targets, angle_deg=angle))
    return CircuitIR(n, tuple(ops))


@st.composite
def timelines(draw):
    n = draw(st.integers(1, 5))
    positions = draw(st.lists(st.tuples(FINITE, FINITE), min_size=n, max_size=n))
    plates = st.builds(lambda q, kind, angle: CircuitOp(kind, (q,), angle),
                       st.integers(0, n - 1), st.sampled_from(list(PLATES)), FINITE)
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        pmu = draw(st.lists(plates, max_size=4))
        order = draw(st.permutations(range(n)))
        pairs = draw(st.integers(0, n // 2))
        cps = [CircuitOp("cp", (order[2 * i], order[2 * i + 1])) for i in range(pairs)]
        steps.append((*pmu, *cps))
    return TimelineProgram(n, tuple(positions), tuple(steps))


@settings(deadline=None)
@given(circuits())
def test_circuit_round_trip(circuit):
    text = serialize_circuit(circuit)
    assert parse_circuit(text) == circuit
    assert parse_circuit(text.upper()) == circuit  # names are case-insensitive


@settings(deadline=None)
@given(timelines())
def test_timeline_round_trip(program):
    text = serialize_timeline(program)
    assert parse_timeline(text) == program
    assert parse_timeline(text.upper()) == program


@pytest.mark.parametrize("model", sorted(CP_MODELS))
@pytest.mark.parametrize("kind", list(GATES))
def test_run_circuit_applies_the_explicit_builder(kind, model):
    arity, takes_angle, _ = GATES[kind]
    angle = 33.7 if takes_angle else None
    targets = (1, 0)[:arity]
    eta = 0.61
    rng = np.random.default_rng(7)
    initial = StateVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    circuit = CircuitIR(2, (CircuitOp(kind, targets, angle_deg=angle),))
    got = run_circuit(circuit, eta, CP_MODELS[model], initial)
    gate = EXPLICIT[kind](angle, eta, CP_MODELS[model])
    want = apply_gate(initial, gate, targets)
    np.testing.assert_array_equal(got.amplitudes, want.amplitudes)


@pytest.mark.parametrize("kind", list(GATES))
def test_table_entry_validates_targets_and_angle(kind):
    arity, takes_angle, _ = GATES[kind]
    angle = 10.0 if takes_angle else None
    CircuitOp(kind, tuple(range(arity)), angle_deg=angle)
    with pytest.raises(ConfigError, match=f"^{kind} takes "):
        CircuitOp(kind, tuple(range(arity + 1)), angle_deg=angle)
    with pytest.raises(ConfigError, match=f"^{kind} takes "):
        CircuitOp(kind, (0,) * max(arity, 2), angle_deg=angle)
    with pytest.raises(ConfigError, match=f"^angle mismatch for {kind}$"):
        CircuitOp(kind, tuple(range(arity)), angle_deg=None if takes_angle else math.pi)


@pytest.mark.parametrize("plate", list(PLATES))
def test_every_plate_is_a_gate(plate):
    gate = GATES[plate].build(12.5, 1.0, CpScheme())
    np.testing.assert_array_equal(gate.entries, PLATES[plate](12.5).entries)

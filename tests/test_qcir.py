"""Tests for the .qc / .qtl text formats: parsing, errors, round-trips."""

import pytest

import _corpus
from _corpus import serialize_circuit, serialize_timeline
from paqsim import (
    CircuitIR,
    CircuitOp,
    ParseError,
    build_ghz_circuit,
    parse_circuit,
    parse_timeline,
)


def err(call, *args):
    with pytest.raises(ParseError) as info:
        call(*args)
    return info.value


# ------------------------------------------------------------------ circuits


def test_parse_minimal_circuit():
    circuit = parse_circuit("qubits 1\n")
    assert circuit == CircuitIR(1, ())


def test_parse_circuit_all_gate_forms():
    text = """\
qubits 3
h 0
p 1
x90 2
qwp 0 45
hwp 1 -22.5
cp 0 1
cnot 2 0
"""
    circuit = parse_circuit(text)
    assert circuit.n_qubits == 3
    assert circuit.ops == (
        CircuitOp("h", (0,)),
        CircuitOp("p", (1,)),
        CircuitOp("x90", (2,)),
        CircuitOp("qwp", (0,), angle_deg=45.0),
        CircuitOp("hwp", (1,), angle_deg=-22.5),
        CircuitOp("cp", (0, 1)),
        CircuitOp("cnot", (2, 0)),
    )


def test_parse_circuit_comments_case_and_crlf():
    text = "QUBITS 2\r\nH 0   # flip the control\r\n# a full-line comment\r\n\r\nCNOT 0 1\r\n"
    circuit = parse_circuit(text)
    assert circuit == CircuitIR(2, (CircuitOp("h", (0,)), CircuitOp("cnot", (0, 1))))


def test_parse_circuit_missing_header():
    e = err(parse_circuit, "")
    assert (e.line, e.column) == (1, 1)
    assert "qubits" in str(e)
    e = err(parse_circuit, "# nothing but comments\n")
    assert (e.line, e.column) == (1, 1)


def test_parse_circuit_header_must_come_first():
    e = err(parse_circuit, "h 0\nqubits 1\n")
    assert (e.line, e.column) == (1, 1)


def test_parse_circuit_bad_qubit_count():
    e = err(parse_circuit, "qubits x\n")
    assert (e.line, e.column) == (1, 8)
    assert "integer" in str(e)
    e = err(parse_circuit, "qubits 0\n")
    assert (e.line, e.column) == (1, 8)
    assert ">= 1" in str(e)


def test_parse_circuit_index_out_of_range():
    e = err(parse_circuit, "qubits 2\ncnot 0 3\n")
    assert (e.line, e.column) == (2, 8)
    assert "out of range" in str(e)


def test_parse_circuit_unknown_gate():
    e = err(parse_circuit, "qubits 1\nfoo 0\n")
    assert (e.line, e.column) == (2, 1)
    assert "unknown gate 'foo'" in str(e)


def test_parse_circuit_arity_errors():
    e = err(parse_circuit, "qubits 1\nh\n")
    assert (e.line, e.column) == (2, 1)
    assert "expected `h <q>`" in str(e)
    e = err(parse_circuit, "qubits 1\nh 0 5\n")
    assert (e.line, e.column) == (2, 5)


def test_parse_circuit_non_numeric_angle():
    e = err(parse_circuit, "qubits 1\nqwp 0 abc\n")
    assert (e.line, e.column) == (2, 7)
    assert "number" in str(e)


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_circuit_non_finite_angle(tok):
    e = err(parse_circuit, f"qubits 2\nh 1\n  qwp 0 {tok}\n")
    assert (e.line, e.column) == (3, 9)
    assert f"angle must be finite, got {tok!r}" in str(e)


def test_parse_circuit_repeated_qubit():
    e = err(parse_circuit, "qubits 2\ncp 0 0\n")
    assert (e.line, e.column) == (2, 6)
    assert "distinct" in str(e)


def test_circuits_past_the_dense_state_budget_round_trip():
    # a circuit is a description: only running it forms a 2^n state
    for n in (23, 30, 40):
        circuit = build_ghz_circuit(n)
        assert parse_circuit(serialize_circuit(circuit)) == circuit
    assert CircuitIR(10**40, (CircuitOp("h", (10**40 - 1,)),)).n_qubits == 10**40
    assert parse_circuit(f"qubits {'9' * 40}\nh 0\n").n_qubits == int("9" * 40)


def test_circuit_round_trip_preserves_float_angles():
    circuit = CircuitIR(
        2,
        (
            CircuitOp("qwp", (0,), angle_deg=1.0 / 3.0),
            CircuitOp("hwp", (1,), angle_deg=22.5000000001),
        ),
    )
    assert parse_circuit(serialize_circuit(circuit)) == circuit


# ----------------------------------------------------------------- timelines


def test_parse_minimal_timeline():
    program = parse_timeline("qms 1\n")
    assert program.n_qms == 1
    assert program.positions == ((0.0, 0.0),)
    assert program.steps == ()


def test_parse_timeline_positions_and_steps():
    text = """\
qms 3
pos 0 0
pos 1 3.5 -2    # micrometers
step:
    pmu 0 qwp 45
    pmu 0 hwp 22.5
    cp 1 2
step:
    cp 0 1
"""
    program = parse_timeline(text)
    assert program.n_qms == 3
    assert program.positions == ((0.0, 0.0), (3.5, -2.0), (0.0, 0.0))
    assert len(program.steps) == 2
    first, second = program.steps
    assert first == (
        CircuitOp("qwp", (0,), 45.0),
        CircuitOp("hwp", (0,), 22.5),
        CircuitOp("cp", (1, 2)),
    )
    assert second == (CircuitOp("cp", (0, 1)),)


def test_parse_timeline_empty_steps_are_kept():
    program = parse_timeline("qms 1\nstep:\nstep:\n")
    assert len(program.steps) == 2
    assert program.steps[0] == ()


def test_parse_timeline_missing_header():
    e = err(parse_timeline, "")
    assert (e.line, e.column) == (1, 1)
    assert "qms" in str(e)
    e = err(parse_timeline, "pos 0 1\n")
    assert (e.line, e.column) == (1, 1)


def test_parse_timeline_pos_after_step():
    e = err(parse_timeline, "qms 2\nstep:\npos 0 1\n")
    assert (e.line, e.column) == (3, 1)
    assert "before the first step" in str(e)


def test_parse_timeline_duplicate_pos():
    e = err(parse_timeline, "qms 2\npos 0 1\npos 0 2\n")
    assert (e.line, e.column) == (3, 5)
    assert "set twice" in str(e)


def test_parse_timeline_ops_outside_step():
    e = err(parse_timeline, "qms 1\npmu 0 qwp 45\n")
    assert (e.line, e.column) == (2, 1)
    assert "outside a step" in str(e)
    e = err(parse_timeline, "qms 2\ncp 0 1\n")
    assert (e.line, e.column) == (2, 1)


def test_parse_timeline_memory_reuse_within_step():
    e = err(parse_timeline, "qms 3\nstep:\ncp 0 1\ncp 1 2\n")
    assert (e.line, e.column) == (4, 1)
    assert "memory 1 already used" in str(e)
    # a fresh step clears the reservation
    program = parse_timeline("qms 3\nstep:\ncp 0 1\nstep:\ncp 1 2\n")
    assert len(program.steps) == 2


def test_parse_timeline_cp_distinct_and_plate_names():
    e = err(parse_timeline, "qms 2\nstep:\ncp 1 1\n")
    assert (e.line, e.column) == (3, 6)
    e = err(parse_timeline, "qms 1\nstep:\npmu 0 foo 5\n")
    assert (e.line, e.column) == (3, 7)
    assert "unknown wave plate 'foo'" in str(e)


def test_parse_timeline_unknown_statement_and_bad_count():
    e = err(parse_timeline, "qms 1\nblah\n")
    assert (e.line, e.column) == (2, 1)
    assert "unknown statement 'blah'" in str(e)
    e = err(parse_timeline, "qms 0\n")
    assert (e.line, e.column) == (1, 5)
    # a timeline holds one position per memory: past the dense-state budget
    # it is refused at the count, before an n-long loop
    for count in ("23", "100000000", "9" * 40):
        e = err(parse_timeline, f"qms {count}\n")
        assert (e.line, e.column) == (1, 5)
        assert str(e).endswith(f"memory count must be <= 22, got {count}")
    assert parse_timeline("qms 22\n").n_qms == 22


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf"])
def test_parse_timeline_non_finite_pmu_angle(tok):
    e = err(parse_timeline, f"qms 2\nstep:\npmu 1 hwp {tok}\n")
    assert (e.line, e.column) == (3, 11)
    assert f"angle must be finite, got {tok!r}" in str(e)


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf"])
def test_parse_timeline_non_finite_pos(tok):
    # a NaN distance would pass the blockade-reach check of a later cp
    e = err(parse_timeline, f"qms 2\npos 0 {tok}\nstep:\ncp 0 1\n")
    assert (e.line, e.column) == (2, 7)
    assert f"x coordinate must be finite, got {tok!r}" in str(e)
    e = err(parse_timeline, f"qms 2\npos 1 3.5 {tok}\n")
    assert (e.line, e.column) == (2, 11)
    assert f"y coordinate must be finite, got {tok!r}" in str(e)


def test_timeline_round_trip_preserves_positions():
    text = "qms 2\npos 0 0.1 0.2\npos 1 33.333333333333336\nstep:\npmu 1 hwp 67.5\ncp 0 1\n"
    program = parse_timeline(text)
    assert parse_timeline(serialize_timeline(program)) == program


# -------------------------------------------------------- corpus round-trips


@pytest.mark.parametrize("seed", range(10))
def test_random_circuit_round_trip(seed):
    circuit = _corpus.random_circuit(seed)
    assert parse_circuit(serialize_circuit(circuit)) == circuit


@pytest.mark.parametrize("seed", range(10))
def test_random_timeline_round_trip(seed):
    program = _corpus.random_timeline(seed)
    assert parse_timeline(serialize_timeline(program)) == program


def test_round_trip_through_files(tmp_path):
    circuit = _corpus.random_circuit(99)
    path = tmp_path / "sample.qc"
    path.write_text(serialize_circuit(circuit))
    assert parse_circuit(path.read_text()) == circuit

    program = _corpus.random_timeline(99)
    path = tmp_path / "sample.qtl"
    path.write_text(serialize_timeline(program))
    assert parse_timeline(path.read_text()) == program

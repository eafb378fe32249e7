"""Tests for the recyclable-memory timeline: depth law and execution."""

import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import paqsim.gates
from paqsim import (
    CircuitOp,
    ConfigError,
    CpScheme,
    GateOpMatrix,
    GatePlacementError,
    HardSphere,
    Perfect,
    PowerLaw,
    StateVector,
    TimelineProgram,
    cp_ideal_with_loss,
    evolve,
    hwp,
    init_basis,
    max_depth,
    qwp,
    run_timeline,
)
from paqsim.gates import CP_KINDS
from paqsim.optics import PLATES
from paqsim.pulses import REACH_SHIFT_OVER_RABI

from _oracles import apply_gate


def idle_program(n_qms, n_steps):
    positions = tuple((float(10 * k), 0.0) for k in range(n_qms))
    return TimelineProgram(n_qms, positions, ((),) * n_steps)


def cps(*pairs):
    """A step of CP pairs."""
    return tuple(CircuitOp("cp", pair) for pair in pairs)


# ---------------------------------------------------------------- max_depth


def test_max_depth_examples():
    assert max_depth(0.9, 0.1) == 21
    assert max_depth(0.5, 0.001) == 9
    assert max_depth(0.9, 0.1, n_qubits=2) == 10
    assert max_depth(0.5, 0.5) == 1


def test_max_depth_qubit_count_must_be_integral():
    with pytest.raises(ConfigError, match=r"^qubit count must be an integer, got 1\.5$"):
        max_depth(0.9, 0.1, n_qubits=1.5)
    assert max_depth(0.9, 0.1, n_qubits=np.int64(2)) == 10


def test_max_depth_exact_integer_boundary():
    # log(0.25)/log(0.5) is exactly 2; float dust must not shave it to 1
    assert max_depth(0.5, 0.25) == 2
    assert max_depth(0.5, 0.125) == 3


def test_max_depth_unit_efficiency_is_unbounded():
    assert max_depth(1.0, 0.1) is None
    assert max_depth(1.0, 0.999, n_qubits=7) is None


def test_max_depth_defining_inequality():
    eta, p = 0.83, 0.07
    for n in (1, 2, 3):
        d = max_depth(eta, p, n_qubits=n)
        assert eta ** (n * d) >= p
        assert eta ** (n * (d + 1)) < p


def test_depth_tracks_loss_budget_single_qubit():
    # d * (-ln eta) lands within one step of ln(1/p)
    for p in (0.37, 0.1, 0.01):
        budget = math.log(1.0 / p)
        for k in range(50):
            eta = 0.5 + 0.01 * k
            loss = -math.log(eta)
            spent = max_depth(eta, p) * loss
            assert spent <= budget + 1e-9
            assert spent > budget - loss - 1e-9


def test_depth_tracks_loss_budget_two_qubits():
    p = 0.05
    budget = math.log(1.0 / p)
    for k in range(23):
        eta = 0.55 + 0.02 * k
        loss = -math.log(eta)
        spent = 2 * max_depth(eta, p, n_qubits=2) * loss
        assert spent <= budget + 1e-9
        assert spent > budget - 2 * loss - 1e-9


def test_max_depth_validation():
    with pytest.raises(ConfigError):
        max_depth(0.0, 0.1)
    with pytest.raises(ConfigError):
        max_depth(1.2, 0.1)
    with pytest.raises(ConfigError):
        max_depth(0.9, 0.0)
    with pytest.raises(ConfigError):
        max_depth(0.9, 1.0)
    with pytest.raises(ConfigError):
        max_depth(0.9, 0.1, n_qubits=0)


# ------------------------------------------------------------ program shape


def test_program_validation():
    with pytest.raises(ConfigError):
        TimelineProgram(0, ())
    with pytest.raises(ConfigError):
        TimelineProgram(2, ((0.0, 0.0),))
    with pytest.raises(ConfigError):
        TimelineProgram(2, ((0, 0), (1, 0)), (cps((0, 2)),))
    with pytest.raises(ConfigError):
        TimelineProgram(2, ((0, 0), (1, 0)), (cps((1, 1)),))
    with pytest.raises(ConfigError, match="^memory 1 appears in two cp pairs of one step$"):
        TimelineProgram(
            3,
            ((0, 0), (1, 0), (2, 0)),
            (cps((0, 1), (1, 2)),),
        )
    with pytest.raises(ConfigError, match=r"^target 3 out of range for 1 qubits$"):
        TimelineProgram(1, ((0, 0),), ((CircuitOp("hwp", (3,), 0.0),),))


def test_plate_op_validation():
    with pytest.raises(ConfigError, match="^unknown op kind 'polarizer'$"):
        CircuitOp("polarizer", (0,), 10.0)
    assert CircuitOp("qwp", (0,), 45.0).angle_deg == 45.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_timeline_rejects_non_finite_plate_angles(bad):
    # the op refuses the angle, so no program can carry it to run_timeline
    with pytest.raises(ConfigError, match=r"^wave-plate angle must be finite, got "):
        run_timeline(
            TimelineProgram(1, ((0.0, 0.0),), ((CircuitOp("qwp", (0,), bad),),)),
            0.9,
        )


POS2 = ((0.0, 0.0), (1.0, 0.0))


def test_indices_must_be_integral():
    with pytest.raises(ConfigError, match=r"^target must be an integer, got 0\.5$"):
        CircuitOp("cp", (0.5, 1))
    with pytest.raises(ConfigError, match=r"^target must be an integer, got 0\.5$"):
        CircuitOp("hwp", (0.5,), 1.0)
    with pytest.raises(ConfigError, match=r"^memory count must be an integer, got 2\.0$"):
        TimelineProgram(2.0, POS2)
    with pytest.raises(ConfigError, match="must be an integer"):
        run_timeline(TimelineProgram(2, POS2, ((CircuitOp("hwp", (0.5,), 1.0),),)), 0.9)


def test_numpy_indices_keep_the_bits():
    def program(index):
        step = (
            CircuitOp("hwp", (index(1),), 22.5),
            CircuitOp("qwp", (index(0),), 30.0),
            CircuitOp("cp", (index(0), index(1))),
        )
        return TimelineProgram(index(2), POS2, (step, step))

    want = run_timeline(program(int), 0.9)
    for index in (np.int64, np.int32, np.uint8):
        prog = program(index)
        assert prog == program(int)
        assert all(type(q) is int for op in prog.steps[0] for q in op.targets)
        got = run_timeline(prog, 0.9)
        assert got.per_step_survival == want.per_step_survival
        assert np.array_equal(
            got.final_state.amplitudes.view(np.uint64), want.final_state.amplitudes.view(np.uint64)
        )


def test_program_rejects_what_run_timeline_cannot_run():
    # a step holds only plate and cp ops: run_timeline builds no other gate
    for entry in ((0, ("hwp", 1.0)), (0,), 3, CircuitOp("h", (0,)), CircuitOp("cnot", (0, 1))):
        with pytest.raises(ConfigError, match=(
            rf"^a step holds plate and cp CircuitOps, got {re.escape(repr(entry))}$"
        )):
            TimelineProgram(2, POS2, ((CircuitOp("cp", (0, 1)), entry),))
    # a repeated memory is a pair that is not distinct, not two pairs
    with pytest.raises(ConfigError, match=r"^cp takes two distinct targets, got \(1, 1\)$"):
        TimelineProgram(2, POS2, (cps((1, 1)),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_program_rejects_non_finite_positions(bad):
    for xy in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ConfigError, match="^memory positions must be finite"):
            TimelineProgram(2, ((0.0, 0.0), xy))


def test_program_distance():
    program = TimelineProgram(2, ((0.0, 0.0), (3.0, 4.0)))
    assert program.distance(0, 1) == pytest.approx(5.0)


# --------------------------------------------------------------- execution


def test_idle_program_survival_is_eta_per_memory_per_step():
    for n_qms, n_steps, eta in ((1, 4, 0.77), (2, 5, 0.77), (3, 3, 0.51)):
        trace = run_timeline(idle_program(n_qms, n_steps), eta)
        assert trace.executed_steps == n_steps
        for s in trace.per_step_survival:
            assert s == pytest.approx(eta**n_qms, rel=1e-12)
        assert trace.cumulative_success == pytest.approx(
            eta ** (n_qms * n_steps), rel=1e-12
        )


def test_identity_program_runs_exactly_max_depth_steps():
    eta, p = 0.9, 0.1
    trace = run_timeline(idle_program(1, 30), eta, stop_threshold=p)
    assert trace.executed_steps == 21
    assert len(trace.per_step_survival) == 21
    assert trace.cumulative_success == pytest.approx(0.10941898913151243, abs=1e-15)
    assert trace.cumulative_success >= p
    # a program shorter than the depth budget just runs out of steps
    short = run_timeline(idle_program(1, 5), eta, stop_threshold=p)
    assert short.executed_steps == 5


def test_unit_efficiency_never_stops():
    trace = run_timeline(idle_program(2, 30), 1.0)
    assert trace.executed_steps == 30
    assert trace.cumulative_success == 1.0


def test_cp_applied_at_unit_efficiency_inside_step():
    # stored qubits pay eta only for the memory cycle; the gate itself
    # contributes a pure phase on |11>
    program = TimelineProgram(
        2, ((0.0, 0.0), (10.0, 0.0)), (cps((0, 1)),)
    )
    trace = run_timeline(program, 0.9, initial=init_basis(2, "11"))
    assert trace.executed_steps == 1
    assert trace.cumulative_success == pytest.approx(0.81, rel=1e-12)
    amps = trace.final_state.amplitudes
    assert amps[3] == pytest.approx(-1.0)
    assert np.allclose(amps[:3], 0.0)


def test_plates_apply_in_listed_order():
    step = (CircuitOp("hwp", (0,), 22.5), CircuitOp("qwp", (0,), 45.0))
    program = TimelineProgram(1, ((0.0, 0.0),), (step,))
    trace = run_timeline(program, 1.0)
    expect = apply_gate(init_basis(1, "0"), hwp(22.5), (0,))
    expect = apply_gate(expect, qwp(45.0), (0,))
    assert np.allclose(trace.final_state.amplitudes, expect.amplitudes)
    swapped = apply_gate(init_basis(1, "0"), qwp(45.0), (0,))
    swapped = apply_gate(swapped, hwp(22.5), (0,))
    assert not np.allclose(trace.final_state.amplitudes, swapped.amplitudes)


def test_step_ops_run_in_the_order_given():
    # a library step may put cp pairs between plates; each op runs in place
    rng = np.random.default_rng(5)
    initial = StateVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    step = (CircuitOp("hwp", (0,), 22.5), CircuitOp("cp", (0, 1)),
            CircuitOp("qwp", (1,), 45.0), CircuitOp("hwp", (0,), 10.0))
    ops = [(hwp(22.5), (0,)), (cp_ideal_with_loss(1.0), (0, 1)), (qwp(45.0), (1,)),
           (hwp(10.0), (0,))]
    got = run_timeline(TimelineProgram(2, POS2, (step,)), 1.0, initial=initial)
    want = evolve(initial, ops)
    assert np.array_equal(got.final_state.amplitudes.view(np.uint64),
                          want.amplitudes.view(np.uint64))
    plates_first = evolve(initial, [ops[0], ops[2], ops[3], ops[1]])
    assert not np.allclose(got.final_state.amplitudes, plates_first.amplitudes)


def test_timeline_keeps_the_bits_of_one_evolve_per_step():
    # every plate from its step's one array pass has the bits of its own
    # PLATES call, -0.0 included (its zeros differ in sign)
    rng = np.random.default_rng(12)
    n = 5
    steps = []
    for k in range(8):
        angles = np.round(rng.uniform(0, 180, n), 1).tolist()
        angles[0] = (-0.0, 0.0)[k % 2]
        kinds = rng.choice(list(PLATES), n).tolist()
        steps.append((
            *(CircuitOp(kind, (q,), a) for q, (kind, a) in enumerate(zip(kinds, angles))),
            CircuitOp("cp", (int(k % n), int((k + 2) % n))),
        ))
    program = TimelineProgram(n, tuple((3.0 * q, 0.0) for q in range(n)), tuple(steps))
    trace = run_timeline(program, 1.0)
    want = init_basis(n, "0" * n)
    cp = cp_ideal_with_loss(1.0)
    for step in steps:
        want = evolve(want, [(cp if op.kind == "cp" else PLATES[op.kind](op.angle_deg),
                              op.targets) for op in step])
    got = trace.final_state.amplitudes
    assert np.array_equal(got.view(np.uint64), want.amplitudes.view(np.uint64))


def test_random_plates_preserve_norm_at_unit_efficiency():
    rng = np.random.default_rng(11)
    steps = []
    for _ in range(6):
        steps.append(tuple(
            CircuitOp(str(rng.choice(["qwp", "hwp"])), (int(q),), float(rng.uniform(0, 180)))
            for q in rng.integers(0, 3, size=4)
        ))
    program = TimelineProgram(3, ((0, 0), (5, 0), (0, 5)), tuple(steps))
    trace = run_timeline(program, 1.0)
    assert trace.executed_steps == 6
    assert trace.cumulative_success == pytest.approx(1.0, abs=1e-12)
    assert trace.final_state.norm_sq == pytest.approx(1.0, abs=1e-12)


def test_gate_branch_norm_counts_toward_survival(monkeypatch):
    def half_branch(_eta):
        return GateOpMatrix(np.diag([1, 1, 1, 0.5]).astype(complex))

    monkeypatch.setattr(paqsim.gates, "cp_ideal_with_loss", half_branch)

    program = TimelineProgram(
        2,
        ((0.0, 0.0), (1.0, 0.0)),
        (cps((0, 1)),) * 3,
    )
    trace = run_timeline(
        program,
        0.99,
        stop_threshold=0.3,
        initial=init_basis(2, "11"),
    )
    # survival of the first step is eta^2 * 0.25, already under threshold
    assert trace.executed_steps == 1
    assert trace.per_step_survival[0] == pytest.approx(0.99**2 * 0.25, rel=1e-12)
    assert trace.cumulative_success < 0.3


def test_cp_reach_enforced():
    near = TimelineProgram(
        2, ((0.0, 0.0), (40.0, 0.0)), (cps((0, 1)),)
    )
    run_timeline(near, 0.9)  # exactly at the default hard-sphere boundary

    far = TimelineProgram(
        2, ((0.0, 0.0), (50.0, 0.0)), (cps((0, 1)),)
    )
    with pytest.raises(GatePlacementError, match=(
        r"^cp pair \(0, 1\) at 50 um exceeds blockade reach: B/Omega 0 < 100$"
    )):
        run_timeline(far, 0.9)
    # a wider blockade sphere admits the same layout
    trace = run_timeline(far, 0.9, blockade=HardSphere(radius_um=60.0))
    assert trace.executed_steps == 1


def test_cp_reach_rejects_nan_distance():
    # a NaN position is refused with the program, before any reach check
    with pytest.raises(ConfigError, match="positions must be finite"):
        TimelineProgram(2, ((0.0, 0.0), (math.nan, 0.0)), (cps((0, 1)),))
    # finite positions whose distance overflows are still out of reach
    program = TimelineProgram(
        2, ((-1e308, 0.0), (1e308, 0.0)), (cps((0, 1)),)
    )
    for blockade in (HardSphere(), PowerLaw(1e8), Perfect()):
        with pytest.raises(GatePlacementError, match=(
            r"^cp pair \(0, 1\) at inf um exceeds blockade reach: B/Omega 0 < 100$"
        )):
            run_timeline(program, 0.9, blockade=blockade)


def test_run_timeline_validation():
    program = idle_program(1, 1)
    with pytest.raises(ConfigError):
        run_timeline(program, 0.0)
    with pytest.raises(ConfigError):
        run_timeline(program, 1.1)
    with pytest.raises(ConfigError):
        run_timeline(program, 0.9, stop_threshold=0.0)
    with pytest.raises(ConfigError):
        run_timeline(program, 0.9, stop_threshold=1.0)
    with pytest.raises(ConfigError):
        run_timeline(program, 0.9, initial=init_basis(2, "00"))


# ------------------------------------------------- gates from the layout


def two_memory_cp(distance_um: float) -> TimelineProgram:
    return TimelineProgram(
        2, ((0.0, 0.0), (distance_um, 0.0)), (cps((0, 1)),)
    )


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(("power", "hard", "perfect")),
    st.floats(0.0, 1.0),
    st.floats(1e2, 1e10),
    st.sampled_from(CP_KINDS),
    st.tuples(*[st.floats(0.5, 1.5)] * 3),
    st.floats(0.5, 12.0),
)
def test_pair_gate_is_the_scheme_at_the_pair_shift(model, frac, scale, kind, errors, area_pi):
    # scale is C6 for the power law and the radius for the hard sphere;
    # frac places the pair inside the reach
    blockade = {
        "power": PowerLaw(scale),
        "hard": HardSphere(scale),
        "perfect": Perfect(),
    }[model]
    reach = (scale / REACH_SHIFT_OVER_RABI) ** (1 / 6) if model == "power" else scale
    d = frac * reach
    b = float(blockade.shift_over_rabi(d))
    if b < REACH_SHIFT_OVER_RABI:  # a power-law reach rounded one ulp out
        return
    scheme = CpScheme(kind, area_errors=errors, area=area_pi * math.pi)
    want = CpScheme(kind, b, errors, area_pi * math.pi).gate(1.0).entries
    for k, bits in ((1, "01"), (2, "10"), (3, "11")):
        trace = run_timeline(two_memory_cp(d), 1.0, scheme, blockade=blockade,
                             initial=init_basis(2, bits))
        got = trace.final_state.amplitudes
        assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(want[:, k]).view(np.uint64))


def test_each_pair_is_placed_once_and_each_shift_built_once(monkeypatch):
    class CountingBlockade:
        def __init__(self, model):
            self.model, self.distances = model, []

        def shift_over_rabi(self, d):
            self.distances.append(d)
            return self.model.shift_over_rabi(d)

    builds = []

    def counting_scheme1(eta, b, errors):
        builds.append(b)
        return scheme1(eta, b, errors)

    scheme1 = paqsim.gates.scheme1_cp_matrix
    monkeypatch.setattr(paqsim.gates, "scheme1_cp_matrix", counting_scheme1)
    # pairs (0, 1) and (2, 3) sit 2 um apart, (0, 2) 3 um apart
    positions = ((0.0, 0.0), (2.0, 0.0), (0.0, 3.0), (2.0, 3.0))
    steps = [cps((0, 1), (2, 3)), cps((2, 0)), cps((1, 0), (3, 2)), cps((0, 2))] * 2
    blockade = CountingBlockade(PowerLaw(1e5))
    run_timeline(TimelineProgram(4, positions, tuple(steps)), 0.99,
                 CpScheme("scheme1"), blockade=blockade)
    assert blockade.distances == [2.0, 2.0, 3.0]
    assert builds == [1e5 / 2.0**6, 1e5 / 3.0**6]


def test_a_cp_pair_runs_at_its_own_shift():
    # under a power law the nearer pair is the better gate
    near, far = (run_timeline(two_memory_cp(d), 1.0, CpScheme("scheme1"),
                              blockade=PowerLaw(5000.0), initial=init_basis(2, "11"))
                 for d in (0.7, 1.9))
    assert abs(near.final_state.amplitudes[3] + 1) < abs(far.final_state.amplitudes[3] + 1)


@pytest.mark.parametrize("kind", CP_KINDS)
@pytest.mark.parametrize("b", [0.0, 3.0, 1e12])
def test_run_timeline_refuses_a_scheme_with_its_own_shift(kind, b):
    # a library caller's B/Omega is refused, never silently replaced
    with pytest.raises(ConfigError, match=(
        r"^a timeline takes B/Omega from each pair's distance; "
        rf"the cp model's must be inf, got {b}$"
    )):
        run_timeline(idle_program(2, 1), 0.9, CpScheme(kind, b))

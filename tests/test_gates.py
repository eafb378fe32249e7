import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paqsim import (
    CNOT,
    CP,
    CircuitIR,
    CircuitOp,
    ConfigError,
    CpScheme,
    GateOpMatrix,
    GhzTopology,
    PostSelectionError,
    StateVector,
    build_ghz_circuit,
    cnot_from_cp,
    cp_ideal_with_loss,
    ghz_dense_eval,
    ghz_transfer_eval,
    init_basis,
    lossy_cnot,
    qwp,
    run_circuit,
    scheme1_cp_matrix,
    scheme2_cp_matrix,
)
from paqsim import pulses
from paqsim.gates import MAX_GHZ, PHASE, X90
from paqsim.pulses import CP_KINDS

from _oracles import (
    apply_gate,
    distance_up_to_global_phase,
    ghz_state,
    state_fidelity_postselected,
)


def test_cp_and_cnot_constants():
    np.testing.assert_array_equal(CP.entries, np.diag([1, -1, -1, -1]))
    truth = {"00": "00", "01": "01", "10": "11", "11": "10"}
    for src, dst in truth.items():
        out = apply_gate(init_basis(2, src), CNOT, [0, 1])
        np.testing.assert_allclose(
            out.amplitudes, init_basis(2, dst).amplitudes, atol=1e-15
        )


def test_lossless_cnot_is_exact():
    m = lossy_cnot(1.0).entries
    assert np.abs(m - CNOT.entries).max() < 1e-12
    assert np.abs(m.conj().T @ m - np.eye(4)).max() <= 1e-12


def test_lossy_cnot_closed_form_blocks():
    s = math.sqrt(0.33)
    m = lossy_cnot(0.33).entries
    m0 = 0.5 * np.array([[1 + s, s - 1], [s - 1, 1 + s]])
    m1 = (s / 2) * np.array([[s - 1, 1 + s], [1 + s, s - 1]])
    np.testing.assert_allclose(m[:2, :2], m0, atol=1e-13)
    np.testing.assert_allclose(m[2:, 2:], m1, atol=1e-13)
    assert np.abs(m[:2, 2:]).max() < 1e-13
    assert np.abs(m[2:, :2]).max() < 1e-13
    assert abs(m[0, 0] - 0.78723) < 5e-6
    assert abs(m[2, 3] - 0.45223) < 5e-6


def test_lossy_cnot_against_explicit_product():
    # five-matrix product with independently typed-in factors
    p = np.array([[1, 0], [0, -1j]])
    x = np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2)
    for eta in (0.0, 0.33, 0.7, 1.0):
        s = math.sqrt(eta)
        cp_loss = np.diag([1.0, -s, -s, -eta])
        expect = np.kron(np.eye(2), p @ x) @ cp_loss @ np.kron(np.eye(2), x @ p)
        assert np.abs(lossy_cnot(eta).entries - expect).max() < 1e-13


@pytest.mark.parametrize(
    "model",
    [CpScheme(), CpScheme("scheme1", 3.0, (1.05, 0.97, 1.0)), CpScheme("scheme2", 5.0, area=10 * math.pi)],
    ids=["ideal", "scheme1", "scheme2"],
)
def test_cnot_from_cp_keeps_the_bits_of_the_checked_product(model):
    # the sandwich skips GateOpMatrix's checks, not its arithmetic
    before = np.kron(np.eye(2), X90.entries @ PHASE.entries)
    after = np.kron(np.eye(2), PHASE.entries @ X90.entries)
    for eta in np.linspace(0.0, 1.0, 101):
        cp = model.gate(eta)
        got = cnot_from_cp(cp)
        want = GateOpMatrix(after @ cp.entries @ before).entries
        assert np.array_equal(got.entries.view(np.uint64), want.view(np.uint64))
        assert not got.entries.flags.writeable
    m = lossy_cnot(0.5).entries
    assert np.abs(m.conj().T @ m - np.eye(4)).max() > 1e-12


def test_cp_ideal_with_loss_keeps_the_bits_of_the_checked_build():
    # built without GateOpMatrix's checks: same entries, -0.0 included
    for eta in [*np.linspace(0.0, 1.0, 101), 5e-324, 1e-300, np.nextafter(1.0, 0.0)]:
        s = math.sqrt(eta)
        got = cp_ideal_with_loss(float(eta)).entries
        want = GateOpMatrix(np.diag([1.0, -s, -s, -eta])).entries
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not got.flags.writeable
    for eta in (-1e-12, -1.0, 1.0 + 1e-12, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="^eta must be in"):
            cp_ideal_with_loss(eta)


def test_lossy_cnot_eta_zero_blocks():
    m = lossy_cnot(0.0).entries
    np.testing.assert_allclose(
        m[:2, :2], 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-14
    )
    assert np.abs(m[2:, 2:]).max() < 1e-14


def test_lossy_gates_never_amplify():
    for eta in np.linspace(0.0, 1.0, 11):
        m = lossy_cnot(float(eta)).entries
        assert np.linalg.norm(m, 2) <= 1 + 1e-9


def test_cnot_decomposition_identity():
    built = cnot_from_cp(GateOpMatrix(np.diag([1.0, -1.0, -1.0, -1.0])))
    assert distance_up_to_global_phase(built, CNOT) < 1e-12


def test_plate_sequence_circuit_equals_lossy_cnot():
    # p, x90, cp, x90, p on the target is the shipped CNOT sandwich
    ops = (
        CircuitOp("p", (1,)),
        CircuitOp("x90", (1,)),
        CircuitOp("cp", (0, 1)),
        CircuitOp("x90", (1,)),
        CircuitOp("p", (1,)),
    )
    circuit = CircuitIR(2, ops)
    for bits in ("00", "01", "10", "11"):
        via_circuit = run_circuit(circuit, 0.33, initial=init_basis(2, bits))
        direct = apply_gate(init_basis(2, bits), lossy_cnot(0.33), [0, 1])
        assert np.abs(via_circuit.amplitudes - direct.amplitudes).max() < 1e-13


def test_bell_state_circuit():
    circuit = CircuitIR(2, (CircuitOp("h", (0,)), CircuitOp("cnot", (0, 1))))
    out = run_circuit(circuit)
    np.testing.assert_allclose(
        out.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-14
    )


def test_circuit_op_validation():
    with pytest.raises(ConfigError):
        CircuitOp("h", (0, 1))
    with pytest.raises(ConfigError):
        CircuitOp("qwp", (0,))  # missing angle
    with pytest.raises(ConfigError):
        CircuitOp("h", (0,), angle_deg=5.0)
    with pytest.raises(ConfigError):
        CircuitOp("cp", (1, 1))
    with pytest.raises(ConfigError):
        CircuitOp("nope", (0,))
    with pytest.raises(ConfigError, match="^unknown op kind 'custom'$"):
        CircuitOp("custom", (0, 1))


def test_circuit_op_indices_must_be_integral():
    # a float index is refused, not truncated to a qubit
    for targets in ((0.5,), (1.0,), ("0",)):
        with pytest.raises(ConfigError, match="^target must be an integer"):
            CircuitOp("h", targets)
    with pytest.raises(ConfigError, match="^target must be an integer"):
        CircuitOp("cnot", (0, 1.5))
    ops = (CircuitOp("h", (0,)), CircuitOp("cnot", (0, 1)), CircuitOp("qwp", (1,), 30.0))
    want = run_circuit(CircuitIR(2, ops), 0.7)
    for index in (np.int64, np.int32, np.uint8):
        typed = tuple(CircuitOp(op.kind, tuple(map(index, op.targets)), op.angle_deg) for op in ops)
        assert typed == ops
        assert all(type(q) is int for op in typed for q in op.targets)
        got = run_circuit(CircuitIR(2, typed), 0.7)
        assert np.array_equal(got.amplitudes.view(np.uint64), want.amplitudes.view(np.uint64))


def test_circuit_ir_validation():
    with pytest.raises(ConfigError):
        CircuitIR(0, ())
    with pytest.raises(ConfigError):
        CircuitIR(2, (CircuitOp("h", (2,)),))


def test_run_circuit_rejects_mismatched_initial():
    circuit = CircuitIR(2, ())
    with pytest.raises(ConfigError):
        run_circuit(circuit, initial=init_basis(3, "000"))


def test_run_circuit_leaves_initial_untouched():
    rng = np.random.default_rng(12)
    initial = StateVector(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    before = initial.amplitudes.copy()
    circuit = CircuitIR(3, (CircuitOp("h", (2,)), CircuitOp("cnot", (2, 0))))
    out = run_circuit(circuit, 0.7, initial=initial)
    np.testing.assert_array_equal(initial.amplitudes, before)
    assert not out.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        out.amplitudes[0] = 1.0


def test_run_circuit_builds_each_distinct_gate_once():
    calls = []

    def gate(eta):
        calls.append(eta)
        return cp_ideal_with_loss(eta)

    ops = [CircuitOp("cp", (0, 1)), CircuitOp("cnot", (1, 2)), CircuitOp("cp", (2, 0))]
    ops += [CircuitOp("qwp", (0,), 30.0), CircuitOp("qwp", (1,), 30.0)]
    out = run_circuit(CircuitIR(3, tuple(ops)), 0.5, SimpleNamespace(gate=gate))
    assert calls == [0.5, 0.5]  # once for cp, once inside cnot
    step = init_basis(3, "000")
    for op in ops:
        gate = {"cp": cp_ideal_with_loss(0.5), "cnot": lossy_cnot(0.5)}.get(op.kind)
        step = apply_gate(step, gate or qwp(30.0), op.targets)
    np.testing.assert_array_equal(out.amplitudes, step.amplitudes)


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(CP_KINDS),
    st.floats(0.0, 1e3) | st.just(math.inf),
    st.tuples(*[st.floats(0.5, 1.5)] * 3),
    st.floats(0.1, 100.0),
    st.floats(0.0, 1.0),
)
def test_cp_scheme_gate_has_the_bits_of_the_direct_call(kind, b, errors, area, eta):
    direct = {
        "ideal": lambda: cp_ideal_with_loss(eta),
        "scheme1": lambda: scheme1_cp_matrix(eta, b, errors),
        "scheme2": lambda: scheme2_cp_matrix(eta, area, b),
    }
    got = CpScheme(kind, b, errors, area).gate(eta).entries
    assert np.array_equal(got.view(np.uint64), direct[kind]().entries.view(np.uint64))


def test_cp_scheme_checks_its_kind_and_builds_no_gate(monkeypatch):
    assert CP_KINDS == ("ideal", "scheme1", "scheme2")
    with pytest.raises(ConfigError, match="^unknown cp model 'scheme3'; use ideal, scheme1, scheme2$"):
        CpScheme("scheme3")

    def refuse(*args):
        raise AssertionError("a gate was built")

    monkeypatch.setattr(CpScheme, "gate", refuse)
    for kind in CP_KINDS:
        CpScheme(kind, 3.0, (1.0, 0.9, 1.0), 7.0)


def test_cp_scheme_checks_its_fields_once(monkeypatch):
    # when formed, never again per gate built
    calls = []
    check = pulses._blockade_shift
    monkeypatch.setattr(pulses, "_blockade_shift", lambda b: calls.append(b) or check(b))
    for kind in ("scheme1", "scheme2"):
        scheme = CpScheme(kind, 3.0)
        for _ in range(100):
            scheme.gate(0.5)
    assert calls == [3.0, 3.0]


def test_scheme_cp_models_plug_in():
    m1 = CpScheme("scheme1").gate(1.0)
    m2 = CpScheme("scheme2").gate(1.0)
    assert np.abs(m1.entries - CP.entries).max() < 1e-12
    assert abs(m2.entries[3, 3] + 0.97517) < 1e-5
    circuit = CircuitIR(2, (CircuitOp("cp", (0, 1)),))
    out = run_circuit(circuit, 1.0, CpScheme("scheme2"), init_basis(2, "11"))
    assert abs(out.amplitudes[3] - math.cos(5 * math.sqrt(2) * math.pi)) < 1e-12


def test_ghz_circuit_shapes():
    star = build_ghz_circuit(3, GhzTopology.STAR)
    assert [op.kind for op in star.ops] == ["h", "cnot", "cnot"]
    assert [op.targets for op in star.ops[1:]] == [(0, 1), (0, 2)]
    chain = build_ghz_circuit(3, GhzTopology.CHAIN)
    assert [op.targets for op in chain.ops[1:]] == [(0, 1), (1, 2)]
    two = build_ghz_circuit(2)
    assert [op.kind for op in two.ops] == ["h", "cnot"]
    with pytest.raises(ConfigError):
        build_ghz_circuit(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_circuit(CircuitIR(2.0, (CircuitOp("h", (0,)),))),
        lambda: ghz_dense_eval(3.0, 0.9),
        lambda: ghz_transfer_eval(3.5, 0.9),
        lambda: build_ghz_circuit(3.0),
        lambda: ghz_state(3.0),
    ],
    ids=["run_circuit", "ghz_dense_eval", "ghz_transfer_eval", "build_ghz_circuit", "ghz_state"],
)
def test_sizes_must_be_integral(call):
    # a float size is refused, not truncated nor left to a bare TypeError
    message = r"^(qubit count|GHZ size) must be an integer, got [23]\.[05]$"
    with pytest.raises(ConfigError, match=message):
        call()


def test_numpy_sizes_keep_the_values():
    assert ghz_transfer_eval(np.int64(5), 0.9) == ghz_transfer_eval(5, 0.9)
    assert ghz_dense_eval(np.uint8(4), 0.8) == ghz_dense_eval(4, 0.8)
    assert CircuitIR(np.int32(2), ()).n_qubits == 2


def test_ghz_dense_zero_branch_is_a_post_selection_failure():
    dead = GateOpMatrix(np.zeros((4, 4)))
    with pytest.raises(PostSelectionError, match="^GHZ branch has zero success probability$"):
        ghz_dense_eval(3, 0.9, GhzTopology.STAR, SimpleNamespace(gate=lambda eta: dead))


def test_ghz_state_shape():
    s = ghz_state(3)
    assert abs(s.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(s.amplitudes[7] - 1 / math.sqrt(2)) < 1e-15
    assert abs(s.norm_sq - 1.0) < 1e-15
    with pytest.raises(ConfigError):
        ghz_state(1)


def test_ghz_transfer_anchor_small():
    fid, eff = ghz_transfer_eval(3, 0.58, GhzTopology.STAR)
    assert abs(fid - 0.9007004454977914) < 1e-12
    assert abs(eff - 0.41702362) < 1e-7


def test_ghz_transfer_anchor_large():
    fid, _ = ghz_transfer_eval(100, 0.9, GhzTopology.STAR)
    assert abs(fid - 0.4719076960060601) < 1e-12
    assert fid > 0.47


def test_ghz_transfer_chain_regression():
    fid, eff = ghz_transfer_eval(3, 0.58, GhzTopology.CHAIN)
    assert abs(fid - 0.9028442393818944) < 1e-12
    assert abs(eff - 0.4160334019235192) < 1e-12


def test_ghz_lossless_limit():
    for topo in GhzTopology:
        for n in (2, 5, 40):
            fid, eff = ghz_transfer_eval(n, 1.0, topo)
            assert abs(fid - 1.0) < 1e-12
            assert abs(eff - 1.0) < 1e-12


def test_ghz_dense_matches_transfer():
    for topo in GhzTopology:
        for n in (2, 3, 5):
            for eta in (0.3, 0.58, 0.9):
                dense = ghz_dense_eval(n, eta, topo)
                transfer = ghz_transfer_eval(n, eta, topo)
                assert abs(dense[0] - transfer[0]) < 1e-10
                assert abs(dense[1] - transfer[1]) < 1e-10


def test_ghz_dense_fidelity_is_the_post_selected_state_fidelity():
    # ghz_dense_eval's inline fidelity has the bits of the oracle's definition
    models = (CpScheme(), CpScheme("scheme1", 3.0, (1.05, 0.97, 1.0)),
              CpScheme("scheme2", 5.0, area=10.0 * math.pi))
    for topo in GhzTopology:
        for n in range(2, 9):
            for model in models:
                for eta in (0.3, 0.58, 1.0):
                    out = run_circuit(build_ghz_circuit(n, topo), eta, model)
                    want = state_fidelity_postselected(out, ghz_state(n))
                    assert ghz_dense_eval(n, eta, topo, model)[0] == want


def test_ghz_dense_cap():
    with pytest.raises(ConfigError):
        ghz_dense_eval(23, 0.9)


def test_ghz_validation():
    with pytest.raises(ConfigError):
        ghz_transfer_eval(1, 0.5)
    with pytest.raises(ConfigError):
        ghz_transfer_eval(3, 1.5)
    with pytest.raises(ConfigError):
        cp_ideal_with_loss(-0.2)



@pytest.mark.parametrize("topology", list(GhzTopology))
def test_ghz_transfer_is_finite_at_the_size_budget(topology):
    # warnings are errors in this suite, so an overflow in the matrix power fails here
    assert MAX_GHZ == 2**53
    for eta in [*np.linspace(0.0, 1.0, 201)[1:], 0.13, 1e-12, 5e-324]:
        fid, eff = ghz_transfer_eval(MAX_GHZ, float(eta), topology)
        assert 0.0 <= fid <= 1.0 and 0.0 <= eff <= 1.0
    for size in (MAX_GHZ + 1, 2**62):
        with pytest.raises(ConfigError, match=rf"^GHZ takes at most 2\^53 = {MAX_GHZ} qubits, got {size}$"):
            ghz_transfer_eval(size, 0.5, topology)


# ghz_transfer_eval as it read before it was made underflow-safe (direct
# t^(n-1) powers), frozen where it neither underflowed nor raised:
# (topology, n, eta, fidelity, efficiency)
GHZ_TRANSFER_FROZEN = [
    ("star", 2, 0.1, 0.6201244153872082, 0.30250000000000005),
    ("star", 10, 0.1, 0.05823072649355146, 0.0023026832942948726),
    ("star", 100, 0.1, 2.6709891264782403e-11, 9.882714840811025e-27),
    ("star", 2, 0.33, 0.8684786206057765, 0.44222500000000003),
    ("star", 10, 0.33, 0.26869725129414096, 0.012717008683863116),
    ("star", 100, 0.33, 0.00046510074094266186, 1.4398355404298864e-18),
    ("star", 1000, 0.33, 1.2857495118917706e-31, 4.986475185062757e-178),
    ("star", 2, 0.58, 0.9643455178362833, 0.6240999999999999),
    ("star", 10, 0.58, 0.4972901160471439, 0.060370906368489526),
    ("star", 100, 0.58, 0.08288710758471643, 3.66481487984475e-11),
    ("star", 1000, 0.58, 6.655593784322644e-09, 2.6818482712644906e-103),
    ("star", 2, 0.9, 0.9986144781983314, 0.9025),
    ("star", 10, 0.9, 0.9427245013023439, 0.43721047211603925),
    ("star", 100, 0.9, 0.4719076960060601, 0.0031161599741747633),
    ("star", 1000, 0.9, 0.25014983477550967, 2.7851698672341056e-23),
    ("star", 10000, 0.9, 0.0004881603784106194, 9.06356988046346e-224),
    ("star", 2, 0.99, 0.9999873740163566, 0.9900249999999999),
    ("star", 10, 0.99, 0.9994322894771864, 0.9145555974385273),
    ("star", 100, 0.99, 0.94333286672967, 0.4169556384288214),
    ("star", 1000, 0.99, 0.503418345368552, 0.0033438486133529725),
    ("star", 10000, 0.99, 0.46941352420872035, 8.549768996946366e-23),
    ("chain", 2, 0.1, 0.6201244153872082, 0.30250000000000005),
    ("chain", 10, 0.1, 0.35144766569695307, 0.0003815274198661928),
    ("chain", 100, 0.1, 0.17122728446465293, 1.5416131817088144e-36),
    ("chain", 2, 0.33, 0.8684786206057765, 0.44222500000000003),
    ("chain", 10, 0.33, 0.43276295792236963, 0.00789583585074464),
    ("chain", 100, 0.33, 0.3374152362717344, 1.984701651558516e-21),
    ("chain", 1000, 0.33, 0.0320735069594255, 1.9989575955524715e-207),
    ("chain", 2, 0.58, 0.9643455178362832, 0.6241),
    ("chain", 10, 0.58, 0.5461563803059504, 0.05496933866640819),
    ("chain", 100, 0.58, 0.44688074008089984, 6.797471405206901e-12),
    ("chain", 1000, 0.58, 0.2946479873676244, 6.057836282606027e-111),
    ("chain", 2, 0.9, 0.9986144781983314, 0.9025),
    ("chain", 10, 0.9, 0.94312290291675, 0.4370257821277168),
    ("chain", 100, 0.9, 0.49864660265441635, 0.0029490622536503352),
    ("chain", 1000, 0.9, 0.49136901223498614, 1.4178952371077767e-23),
    ("chain", 10000, 0.9, 0.4725969504192228, 9.362048778929596e-227),
    ("chain", 2, 0.99, 0.9999873740163566, 0.9900249999999999),
    ("chain", 10, 0.99, 0.9994323276836541, 0.9145555624767416),
    ("chain", 100, 0.99, 0.9433771131016282, 0.41693608233188856),
    ("chain", 1000, 0.99, 0.5059657118850429, 0.003327013464658539),
    ("chain", 10000, 0.99, 0.4993529390941177, 8.03715545022678e-23),
]


@pytest.mark.parametrize("topology,n,eta,fidelity,efficiency", GHZ_TRANSFER_FROZEN)
def test_ghz_transfer_matches_frozen_values(topology, n, eta, fidelity, efficiency):
    fid, eff = ghz_transfer_eval(n, eta, GhzTopology(topology))
    # per-edge rounding grows like n * eps in either formulation
    tol = 1e-12 if n <= 1000 else 1e-10
    assert abs(fid - fidelity) <= tol * fidelity
    assert abs(eff - efficiency) <= tol * efficiency


@pytest.mark.parametrize("n", [14000, 30000])
def test_ghz_transfer_star_closed_form_past_underflow(n):
    eta, m = 0.9, n - 1
    s = math.sqrt(eta)
    r = (1 + s) ** 2 / (2 * (1 + eta))
    expect = 0.5 * r**m * (1 + s**m) ** 2 / (1 + eta**m)
    fid, eff = ghz_transfer_eval(n, eta, GhzTopology.STAR)
    assert abs(fid - expect) <= 1e-10 * expect
    assert 0.0 <= eff < 1e-300  # the efficiency alone may underflow


def test_ghz_transfer_chain_exact_past_underflow():
    # eta = 0.81 makes s = 9/10, so exact rationals give the oracle;
    # at n = 8000 every path amplitude squared is below 1e-308
    s, m = Fraction(9, 10), 7999
    t = [[(1 + s) / 2, (s - 1) / 2], [s * (s - 1) / 2, s * (1 + s) / 2]]
    e = [[x * x for x in row] for row in t]

    def mul(a, b):
        return [[a[i][0] * b[0][c] + a[i][1] * b[1][c] for c in range(2)] for i in range(2)]

    acc, k = [[1, 0], [0, 1]], m
    while k:
        if k & 1:
            acc = mul(acc, e)
        k >>= 1
        if k:
            e = mul(e, e)
    overlap = (t[0][0] ** m + t[1][1] ** m) / 2
    expect = float(overlap**2 / (sum(acc[0] + acc[1]) / 2))
    fid, eff = ghz_transfer_eval(m + 1, 0.81, GhzTopology.CHAIN)
    assert abs(fid - expect) <= 1e-10 * expect
    assert eff == 0.0


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 10), st.floats(0.0, 1.0), st.sampled_from(list(GhzTopology)))
def test_ghz_dense_matches_transfer_for_random_sizes(n, eta, topology):
    dense = ghz_dense_eval(n, eta, topology)
    transfer = ghz_transfer_eval(n, eta, topology)
    assert abs(dense[0] - transfer[0]) < 1e-10
    assert abs(dense[1] - transfer[1]) < 1e-10

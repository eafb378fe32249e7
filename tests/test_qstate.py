import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paqsim import (
    HADAMARD,
    PHASE,
    X90,
    ConfigError,
    GateOpMatrix,
    StateVector,
    cnot_from_cp,
    cp_model_scheme1,
    cp_model_scheme2,
    evolve,
    init_basis,
    lossy_cnot,
    cp_ideal_with_loss,
)
from paqsim.optics import plate_gates
from paqsim.qstate import LIVE_FLOOR, STRIDED_BLOCK, STRIDED_MIN, STRIDED_STACKS

from _oracles import apply_gate

PAULI_X = GateOpMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return GateOpMatrix(q * (np.diag(r) / np.abs(np.diag(r))))


def random_state(rng, n):
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, z / np.linalg.norm(z))


def test_init_basis_examples():
    np.testing.assert_array_equal(init_basis(1, "0").amplitudes, [1, 0])
    np.testing.assert_array_equal(init_basis(2, "10").amplitudes, [0, 0, 1, 0])
    assert init_basis(3, "000").norm_sq == 1.0


def test_init_basis_is_a_read_only_basis_state():
    for n, bits in ((1, "1"), (3, "101"), (6, "000000")):
        amps = np.zeros(2**n)
        amps[int(bits, 2)] = 1.0
        state = init_basis(n, bits)
        assert state.n_qubits == n
        np.testing.assert_array_equal(state.amplitudes, StateVector(n, amps).amplitudes)
        assert state.amplitudes.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 1.0


def test_init_basis_rejects_bad_bits():
    with pytest.raises(ConfigError, match=r"^bitstring '0' length != 2 qubits$"):
        init_basis(2, "0")
    with pytest.raises(ConfigError, match=r"^bitstring '012' must contain only 0/1$"):
        init_basis(3, "012")
    # the empty bitstring matches zero qubits in length, and int("", 2) would raise
    for n in (0, -1):
        with pytest.raises(ConfigError, match="at least one qubit"):
            init_basis(n, "")


def test_state_vector_validation():
    with pytest.raises(ConfigError):
        StateVector(0, np.array([1.0]))
    with pytest.raises(ConfigError):
        StateVector(2, np.zeros(3))


@pytest.mark.parametrize(
    "call",
    [lambda: evolve(StateVector(2.0, np.zeros(4)), []), lambda: init_basis(2.0, "00")],
    ids=["StateVector", "init_basis"],
)
def test_qubit_counts_must_be_integral(call):
    with pytest.raises(ConfigError, match=r"^qubit count must be an integer, got 2\.0$"):
        call()


def test_numpy_qubit_counts_pass():
    for state in (StateVector(np.int64(2), np.zeros(4)), init_basis(np.uint8(2), "01")):
        assert state.n_qubits == 2 and state.amplitudes.shape == (4,)


def test_state_vector_is_immutable():
    s = init_basis(1, "0")
    with pytest.raises(ValueError):
        s.amplitudes[0] = 7.0


def test_gate_matrix_validation():
    with pytest.raises(ConfigError):
        GateOpMatrix(np.eye(3))
    # amplifying branch is unphysical
    with pytest.raises(ConfigError):
        GateOpMatrix(2.0 * np.eye(2))
    assert GateOpMatrix(np.eye(2)).arity == 1
    assert GateOpMatrix(np.eye(4)).arity == 2


def test_pauli_x_flips():
    out = apply_gate(init_basis(1, "0"), PAULI_X, [0])
    np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)


def test_identity_leaves_state_alone():
    rng = np.random.default_rng(3)
    s = random_state(rng, 3)
    out = apply_gate(s, GateOpMatrix(np.eye(2)), [1])
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)


def test_lossy_cnot_on_10_matches_closed_form():
    # control-1 block at eta=0.33: (s/2)[[s-1, 1+s], [1+s, s-1]]
    s = math.sqrt(0.33)
    out = apply_gate(init_basis(2, "10"), lossy_cnot(0.33), [0, 1])
    np.testing.assert_allclose(
        out.amplitudes,
        [0, 0, s * (s - 1) / 2, s * (1 + s) / 2],
        atol=1e-14,
    )
    assert abs(out.amplitudes[2] - (-0.1222)) < 5e-5
    assert abs(out.amplitudes[3] - 0.4522) < 5e-5
    # success probability eta(1+eta)/2
    assert abs(out.norm_sq - 0.33 * 1.33 / 2) < 1e-14
    assert abs(out.norm_sq - 0.2194) < 1e-4


def test_h_path_bypasses_loss():
    out = apply_gate(init_basis(2, "00"), cp_ideal_with_loss(0.4), [0, 1])
    assert abs(out.norm_sq - 1.0) < 1e-15


def test_unitary_preserves_norm():
    rng = np.random.default_rng(11)
    for n, targets in ((1, [0]), (3, [2]), (3, [0, 2])):
        s = random_state(rng, n)
        u = random_unitary(rng, 2 ** len(targets))
        out = apply_gate(s, u, targets)
        assert abs(out.norm_sq - s.norm_sq) < 1e-12


def test_disjoint_gates_commute():
    rng = np.random.default_rng(5)
    s = random_state(rng, 3)
    a = random_unitary(rng, 2)
    b = random_unitary(rng, 2)
    lhs = apply_gate(apply_gate(s, a, [0]), b, [2])
    rhs = apply_gate(apply_gate(s, b, [2]), a, [0])
    assert np.abs(lhs.amplitudes - rhs.amplitudes).max() < 1e-12


def test_sequential_gates_compose():
    rng = np.random.default_rng(6)
    s = random_state(rng, 2)
    a = random_unitary(rng, 4)
    b = random_unitary(rng, 4)
    lhs = apply_gate(apply_gate(s, a, [0, 1]), b, [0, 1])
    rhs = apply_gate(s, GateOpMatrix(b.entries @ a.entries), [0, 1])
    assert np.abs(lhs.amplitudes - rhs.amplitudes).max() < 1e-12


def test_two_qubit_targets_are_ordered():
    # targets[0] is the control: |01> under CNOT(1, 0) flips qubit 0
    from paqsim import CNOT

    out = apply_gate(init_basis(2, "01"), CNOT, [1, 0])
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_apply_gate_target_validation():
    s = init_basis(2, "00")
    with pytest.raises(ConfigError):
        apply_gate(s, GateOpMatrix(np.eye(2)), [2])
    with pytest.raises(ConfigError):
        apply_gate(s, GateOpMatrix(np.eye(4)), [0, 0])
    with pytest.raises(ConfigError):
        apply_gate(s, GateOpMatrix(np.eye(4)), [0])


def test_evolve_targets_must_be_integral():
    s = init_basis(2, "00")
    hadamard = GateOpMatrix(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    for targets in ((0.5,), (np.float64(1.0),), ("1",)):
        with pytest.raises(ConfigError, match="^target must be an integer"):
            evolve(s, [(hadamard, targets)])
    with pytest.raises(ConfigError, match="^target must be an integer"):
        evolve(s, [(hadamard, (0,)), (lossy_cnot(0.5), (0, 0.5))])
    rng = np.random.default_rng(9)
    state = random_state(rng, 5)
    ops = [(hadamard, (3,)), (lossy_cnot(0.4), (4, 1)), (random_unitary(rng, 4), (0, 2))]
    want = evolve(state, ops)
    for index in (np.int64, np.int32, np.uint8, np.intp):
        typed = [(g, tuple(map(index, t))) for g, t in ops]
        got = evolve(state, typed)
        assert np.array_equal(got.amplitudes.view(np.uint64), want.amplitudes.view(np.uint64))


def kron_reference(gate, targets, n):
    """The gate on n qubits as a sum of Kronecker products of matrix units."""
    k = len(targets)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for rows in itertools.product((0, 1), repeat=k):
        for cols in itertools.product((0, 1), repeat=k):
            factors = [np.eye(2)] * n
            for q, r, c in zip(targets, rows, cols):
                factors[q] = np.outer(np.eye(2)[r], np.eye(2)[c])
            coeff = gate.entries[int("".join(map(str, rows)), 2), int("".join(map(str, cols)), 2)]
            full += coeff * functools.reduce(np.kron, factors)
    return full


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 2), st.data())
def test_apply_gate_matches_kron_reference(n, arity, data):
    arity = min(arity, n)
    targets = data.draw(st.permutations(range(n)))[:arity]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    loss = data.draw(st.floats(0.0, 1.0))
    gate = GateOpMatrix(loss * random_unitary(rng, 2**arity).entries)
    state = random_state(rng, n)
    out = apply_gate(state, gate, targets)
    np.testing.assert_allclose(
        out.amplitudes, kron_reference(gate, targets, n) @ state.amplitudes, atol=1e-12
    )


# ------------------------------------------------------------- evolve kernel


def tensordot_reference(amps, gate, targets, n):
    """One op by np.tensordot, the arithmetic both kernel paths reproduce."""
    k = len(targets)
    psi = np.tensordot(
        gate.entries.reshape([2] * (2 * k)),
        np.asarray(amps).reshape([2] * n),
        axes=(list(range(k, 2 * k)), list(targets)),
    )
    return np.moveaxis(psi, range(k), targets).reshape(-1)


def scaled(rng, m):
    return GateOpMatrix(m / np.linalg.norm(m, 2) * rng.uniform(0.2, 1.0))


def gate_of_kind(kind, rng):
    """General 2x2, diagonal 4x4, control-block-diagonal 4x4 or general 4x4."""
    if kind == "2x2":
        return scaled(rng, random_unitary(rng, 2).entries * rng.uniform(0.5, 1, (2, 2)))
    if kind == "diagonal":
        return scaled(rng, np.diag(np.exp(1j * rng.uniform(0, 7, 4)) * rng.uniform(0.1, 1, 4)))
    if kind == "control-block":
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = random_unitary(rng, 2).entries
        m[2:, 2:] = random_unitary(rng, 2).entries * rng.uniform(0.1, 1)
        return scaled(rng, m)
    return scaled(rng, random_unitary(rng, 4).entries * rng.uniform(0.5, 1, (4, 4)))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 14), st.data())
def test_evolve_matches_tensordot_reference(n, data):
    # bit for bit: evolve keeps a permuted qubit order between ops, which
    # is only sound if no path changes the bits of a plain tensordot
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = ["2x2"] if n == 1 else ["2x2", "diagonal", "control-block", "custom"]
    ops = []
    for _ in range(data.draw(st.integers(1, 12))):
        gate = gate_of_kind(data.draw(st.sampled_from(kinds)), rng)
        order = data.draw(st.permutations(range(n)))
        ops.append((gate, tuple(order[: gate.arity])))
    state = random_state(rng, n)
    want = state.amplitudes
    for gate, targets in ops:
        want = tensordot_reference(want, gate, targets, n)
    got = evolve(state, ops).amplitudes
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def strided(n, targets):
    """The qstate path rule for a lone op on a fresh state."""
    below = 2 ** (n - 1 - max(targets))
    stacks = 2 ** n // (2 * below)
    return below >= STRIDED_MIN and (stacks <= STRIDED_STACKS or below >= STRIDED_BLOCK)


# (n, kind, targets, gathered): trailing amplitudes after the highest target
# are 2^(n-1-max(targets)); the strided path needs STRIDED_MIN = 16 of them,
# and either at most STRIDED_STACKS matmuls or STRIDED_BLOCK trailing ones
LAYOUTS = [
    (6, "2x2", (5,), True),  # target on the last qubit
    (8, "2x2", (4,), True),  # 8 trailing amplitudes
    (8, "2x2", (3,), False),  # 16 trailing amplitudes
    (8, "control-block", (2, 3), False),  # adjacent, control above target
    (8, "control-block", (3, 2), False),  # adjacent, control below target
    (8, "control-block", (0, 3), False),  # distant
    (8, "control-block", (3, 0), False),
    (8, "diagonal", (1, 3), False),
    (7, "control-block", (0, 3), True),  # distant, 8 trailing amplitudes
    (7, "control-block", (3, 0), True),
    (8, "control-block", (4, 7), True),
    (8, "custom", (0, 1), True),  # not control-block-diagonal: always gathered
    (12, "2x2", (7,), True),  # 16 trailing amplitudes but 128 matmuls
    (12, "control-block", (7, 1), True),
    (14, "2x2", (6,), False),  # 64 matmuls over 128 trailing amplitudes
    (20, "2x2", (7,), False),  # 128 matmuls over 4096 trailing amplitudes
    (20, "control-block", (0, 7), False),
    (16, "2x2", (8,), False),  # 256 matmuls over 128 trailing amplitudes
    (16, "2x2", (9,), True),  # 512 matmuls over 64 trailing amplitudes
    (16, "control-block", (9, 2), True),
]


@pytest.mark.parametrize("n, kind, targets, gathered", LAYOUTS)
def test_each_kernel_path_keeps_tensordot_bits(monkeypatch, n, kind, targets, gathered):
    assert strided(n, targets) != gathered or kind == "custom"
    rng = np.random.default_rng(sum(targets) + 10 * n)
    gate = gate_of_kind(kind, rng)
    state = random_state(rng, n)
    dots = []
    real_dot = np.dot
    monkeypatch.setattr(np, "dot", lambda *a, **kw: dots.append(1) or real_dot(*a, **kw))
    out = evolve(state, [(gate, targets)]).amplitudes
    monkeypatch.undo()
    assert bool(dots) == gathered
    want = tensordot_reference(state.amplitudes, gate, targets, n)
    np.testing.assert_allclose(out, want, atol=1e-12)
    # the byte-identity rule of the qstate docstring: output must not
    # depend on which path a layout takes
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def test_evolve_copies_at_most_once_per_op(monkeypatch):
    # every op below gathers; the order it leaves is restored once at the end
    rng = np.random.default_rng(8)
    n = 12
    ops = [(gate_of_kind("2x2", rng), (q,)) for q in (11, 9, 11, 10, 3)]
    ops += [(gate_of_kind("custom", rng), pair) for pair in ((5, 2), (2, 5), (0, 11))]
    state = random_state(rng, n)
    copies = []
    real_copyto = np.copyto
    monkeypatch.setattr(np, "copyto", lambda *a, **kw: copies.append(1) or real_copyto(*a, **kw))
    out = evolve(state, ops).amplitudes
    monkeypatch.undo()
    assert len(copies) <= len(ops) + 1
    want = state.amplitudes
    for gate, targets in ops:
        want = tensordot_reference(want, gate, targets, n)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def circuit_gate(data, rng):
    """A plate, a fixed one-qubit gate, or a CP or CNOT of a random CP model."""
    kind = data.draw(st.sampled_from(["plate", "fixed", "cp", "cnot", "4x4"]))
    if kind == "plate":
        kind = data.draw(st.sampled_from(["qwp", "hwp"]))
        return plate_gates([(kind, rng.uniform(-180, 180))])[0]
    if kind == "fixed":
        return data.draw(st.sampled_from([HADAMARD, PHASE, X90]))
    if kind == "4x4":
        kind = data.draw(st.sampled_from(["diagonal", "control-block", "custom"]))
        return gate_of_kind(kind, rng)
    model = data.draw(st.sampled_from(["ideal", "scheme1", "scheme2"]))
    eta = rng.uniform(0.05, 1.0)
    if model == "ideal":
        cp = cp_ideal_with_loss(eta)
    elif model == "scheme1":
        cp = cp_model_scheme1(rng.uniform(0.5, 20), tuple(rng.uniform(0.9, 1.1, 3)))(eta)
    else:
        cp = cp_model_scheme2(rng.uniform(1, 12) * math.pi, rng.uniform(0.5, 20))(eta)
    return cp if kind == "cp" else cnot_from_cp(cp)


@settings(deadline=None, max_examples=120)
@given(st.integers(1, 16), st.booleans(), st.data())
def test_evolve_from_a_partly_basis_input_matches_tensordot(n, kron, data):
    # from an init_basis input of SUPPORT_MIN qubits or more, the qubits
    # still in their input value are kept out of the buffer until an op
    # touches them; kron inputs take the full buffers. The bytes do not change.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bits = "".join(data.draw(st.sampled_from(["0", "1"])) for _ in range(n))
    state = init_basis(n, bits)
    if kron:  # a random state on some qubits, the basis value on the others
        free = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        amps = np.zeros((2,) * n, dtype=complex)
        index = tuple(slice(None) if q in free else int(b) for q, b in enumerate(bits))
        amps[index] = random_state(rng, len(free)).amplitudes.reshape((2,) * len(free))
        state = StateVector(n, amps)
    # few distinct qubits, so the ops often reach fewer than the floor
    touched = data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))]
    ops = []
    for _ in range(data.draw(st.integers(1, 12))):
        gate = circuit_gate(data, rng)
        if gate.arity > len(touched):
            continue
        ops.append((gate, tuple(data.draw(st.permutations(touched))[: gate.arity])))
    want = state.amplitudes
    for gate, targets in ops:
        want = tensordot_reference(want, gate, targets, n)
    got = evolve(state, ops).amplitudes
    assert got.tobytes() == want.tobytes()


def test_evolve_keeps_an_untouched_basis_input_at_the_floor(monkeypatch):
    # 20 qubits, ops on 3: every multiply and copy stays within the floor
    rng = np.random.default_rng(20)
    n, floor = 20, 2**LIVE_FLOOR
    ops = [(gate_of_kind("2x2", rng), (q,)) for q in (17, 4, 11, 4)]
    pairs = (("custom", (11, 17)), ("control-block", (4, 17)), ("diagonal", (17, 11)))
    ops += [(gate_of_kind(kind, rng), pair) for kind, pair in pairs]
    state = init_basis(n, "01101001100101101001")
    sizes = []
    for name in ("matmul", "dot", "copyto"):
        real = getattr(np, name)
        spy = lambda *a, real=real, **kw: sizes.append(a[1].size) or real(*a, **kw)  # noqa: E731
        monkeypatch.setattr(np, name, spy)
    out = evolve(state, ops).amplitudes
    monkeypatch.undo()
    assert sizes and max(sizes) <= floor
    want = state.amplitudes
    for gate, targets in ops:
        want = tensordot_reference(want, gate, targets, n)
    assert out.tobytes() == want.tobytes()


def test_evolve_validates_every_op():
    s = init_basis(2, "00")
    with pytest.raises(ConfigError, match="out of range"):
        evolve(s, [(GateOpMatrix(np.eye(2)), (0,)), (GateOpMatrix(np.eye(2)), (2,))])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
def test_gate_matrix_rejects_non_finite_entries(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(ConfigError, match="finite"):
        GateOpMatrix(m)
    with pytest.raises(ConfigError, match="finite"):
        GateOpMatrix(np.diag([1.0, 1.0, 1.0, bad]))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3e-9, 3e-9), st.sampled_from([2, 4]))
def test_norm_cap_matches_the_svd(seed, excess, d):
    # the cap on np.linalg.norm(m, 2) decides as the SVD would, for 2x2 and 4x4
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if seed % 2:
        raw[0, 1] = raw[1, 0] = 0.0  # a diagonal 2x2 block
    m = raw / np.linalg.norm(raw, 2) * (1.0 + excess)
    smax = np.linalg.norm(m, 2)
    # both computations are good to a few ulps; within that of the cap
    # either decision is right
    assume(abs(smax - (1.0 + 1e-9)) > 1e-14)
    if smax > 1.0 + 1e-9:
        with pytest.raises(ConfigError, match="singular value"):
            GateOpMatrix(m)
    else:
        GateOpMatrix(m)

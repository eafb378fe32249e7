import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paqsim import (
    CNOT,
    CP,
    ConfigError,
    GateOpMatrix,
    PostSelectionError,
    StateVector,
    basis_avg_gate_fidelity,
    efficiency_basis_avg,
    haar_exact_gate_fidelity,
    init_basis,
    lossy_cnot,
    process_fidelity_postselected,
    scheme1_cp_matrix,
    scheme2_cp_matrix,
)

from _oracles import (
    _haar_chunk,
    ghz_state,
    haar_avg_gate_fidelity,
    haar_weighted_gate_fidelity,
    state_fidelity_postselected,
)

# converged Monte Carlo reference values (2e6 samples, three seeds agreeing)
HAAR_CNOT_033 = 0.893095
HAAR_SCHEME2 = 0.9999060


def test_state_fidelity_basics():
    ideal = ghz_state(3)
    assert abs(state_fidelity_postselected(ideal, ideal) - 1.0) < 1e-15
    attenuated = StateVector(3, 0.5 * ideal.amplitudes)
    assert abs(state_fidelity_postselected(attenuated, ideal) - 1.0) < 1e-15


def test_state_fidelity_zero_norm():
    dead = StateVector(1, np.zeros(2))
    with pytest.raises(PostSelectionError):
        state_fidelity_postselected(dead, init_basis(1, "0"))
    with pytest.raises(ConfigError):
        state_fidelity_postselected(init_basis(1, "0"), init_basis(2, "00"))


def test_all_definitions_are_one_for_scaled_unitary():
    scaled = GateOpMatrix(0.5 * np.exp(1j * np.pi / 7) * CNOT.entries)
    assert abs(basis_avg_gate_fidelity(scaled, CNOT) - 1.0) < 1e-12
    assert abs(process_fidelity_postselected(scaled, CNOT) - 1.0) < 1e-12
    report = haar_avg_gate_fidelity(scaled, CNOT, samples=2000, seed=1)
    assert abs(report.value - 1.0) < 1e-12


def test_basis_fidelity_closed_form():
    # per-basis CNOT fidelity is (1+s)^2 / (2(1+s^2)), the same for all
    # four inputs
    for eta in np.arange(0.01, 1.0001, 0.01):
        s = math.sqrt(eta)
        expect = (1 + s) ** 2 / (2 * (1 + eta))
        got = basis_avg_gate_fidelity(lossy_cnot(float(eta)), CNOT)
        assert abs(got - expect) < 1e-12
    assert abs(basis_avg_gate_fidelity(lossy_cnot(0.33), CNOT) - 0.9319) < 1e-4


def test_basis_fidelity_rejects_dead_column():
    m = GateOpMatrix(np.diag([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(PostSelectionError):
        basis_avg_gate_fidelity(m, CNOT)


def test_efficiency_closed_form():
    for eta in np.arange(0.0, 1.0001, 0.01):
        got = efficiency_basis_avg(lossy_cnot(float(eta)))
        assert abs(got - (1 + eta) ** 2 / 4) < 1e-12
    assert abs(efficiency_basis_avg(lossy_cnot(0.0)) - 0.25) < 1e-15
    assert abs(efficiency_basis_avg(lossy_cnot(1.0)) - 1.0) < 1e-12
    assert abs(efficiency_basis_avg(lossy_cnot(0.33)) - 0.44222) < 1e-5


def test_basis_metrics_monotone_in_eta():
    etas = np.arange(0.01, 1.0001, 0.01)
    fids = [basis_avg_gate_fidelity(lossy_cnot(float(e)), CNOT) for e in etas]
    effs = [efficiency_basis_avg(lossy_cnot(float(e))) for e in etas]
    assert all(b - a >= -1e-12 for a, b in zip(fids, fids[1:]))
    assert all(b - a >= -1e-12 for a, b in zip(effs, effs[1:]))


def test_process_fidelity_detects_phase_error():
    wrong = GateOpMatrix(np.diag([1.0, -1.0, -1.0, 1.0]))
    assert process_fidelity_postselected(wrong, CP) < 0.6
    with pytest.raises(PostSelectionError):
        process_fidelity_postselected(GateOpMatrix(np.zeros((2, 2))), GateOpMatrix(np.eye(2)))


def test_haar_unitary_gives_one():
    report = haar_avg_gate_fidelity(CNOT, CNOT, samples=1000, seed=5)
    assert abs(report.value - 1.0) < 1e-12
    assert report.definition == "haar_avg"
    assert report.samples == 1000
    assert report.seed == 5


def test_haar_is_deterministic_per_seed():
    a = haar_avg_gate_fidelity(lossy_cnot(0.33), CNOT, samples=20000, seed=0)
    b = haar_avg_gate_fidelity(lossy_cnot(0.33), CNOT, samples=20000, seed=0)
    assert a.value == b.value
    assert a.stderr == b.stderr
    c = haar_avg_gate_fidelity(lossy_cnot(0.33), CNOT, samples=20000, seed=1)
    assert c.value != a.value


def test_haar_regression_cnot():
    report = haar_avg_gate_fidelity(lossy_cnot(0.33), CNOT, samples=100_000, seed=0)
    assert 0.88 < report.value < 0.94
    assert abs(report.value - HAAR_CNOT_033) <= 3 * report.stderr
    assert report.value == 0.8929370500241963  # frozen default-seed value


def test_haar_regression_scheme2():
    gate = scheme2_cp_matrix(1.0)
    report = haar_avg_gate_fidelity(gate, CP, samples=100_000, seed=0)
    assert 0.96 < report.value < 1.0
    assert abs(report.value - HAAR_SCHEME2) <= 3 * report.stderr
    assert report.value == 0.9999061950309925  # frozen default-seed value


def test_haar_weighted_variant():
    # lossy CNOT: tr(CNOT^dag M) = (1 + sqrt(eta))^2 and tr(M^dag M) = (1 + eta)^2
    s = math.sqrt(0.33)
    exact = ((1 + s) ** 4 + 1.33**2) / (5 * 1.33**2)
    value = haar_weighted_gate_fidelity(lossy_cnot(0.33), CNOT)
    assert abs(value - exact) < 1e-12
    assert abs(value - 0.8947828964846211) < 1e-12


def test_haar_weighted_closed_form_in_eta():
    for eta in np.arange(0.0, 1.0001, 0.01):
        s = math.sqrt(eta)
        exact = ((1 + s) ** 4 + (1 + eta) ** 2) / (5 * (1 + eta) ** 2)
        assert abs(haar_weighted_gate_fidelity(lossy_cnot(float(eta)), CNOT) - exact) < 1e-12
    assert abs(haar_weighted_gate_fidelity(lossy_cnot(0.0), CNOT) - 0.4) < 1e-15


def test_haar_weighted_validation():
    with pytest.raises(ConfigError):
        haar_weighted_gate_fidelity(GateOpMatrix(np.eye(2)), CNOT)
    with pytest.raises(PostSelectionError):
        haar_weighted_gate_fidelity(GateOpMatrix(np.zeros((4, 4))), CNOT)


# the five gates whose Monte Carlo estimate the closed form replaced, and a
# non-unitary target: the formula holds for any U
WEIGHTED_CASES = {
    "cnot eta=0.33": (lossy_cnot(0.33), CNOT),
    "cnot eta=0.7": (lossy_cnot(0.7), CNOT),
    "cnot eta=0": (lossy_cnot(0.0), CNOT),
    "scheme2 cp": (scheme2_cp_matrix(1.0), CP),
    "scheme1 cp B/Omega=3": (scheme1_cp_matrix(1.0, 3.0, (1.05, 0.97, 1.0)), CP),
    "lossy target": (lossy_cnot(0.33), lossy_cnot(0.5)),
}


def test_haar_weighted_matches_independent_monte_carlo():
    # plain numpy Haar inputs, independent of the package's chunked sampler
    n = 200_000
    rng = np.random.default_rng(20240)
    z = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    z /= np.linalg.norm(z, axis=1)[:, None]
    for name, (m, u) in WEIGHTED_CASES.items():
        a, b = m.entries, u.entries
        out, ref = z @ a.T, z @ b.T
        num = np.abs(np.sum(ref.conj() * out, axis=1)) ** 2
        den = np.sum(np.abs(out) ** 2, axis=1)
        t = b.conj().T @ a
        exact_num = (abs(np.trace(t)) ** 2 + np.sum(np.abs(t) ** 2)) / 20
        exact_den = np.sum(np.abs(a) ** 2) / 4
        for sample, exact in ((num, exact_num), (den, exact_den)):
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - exact) <= 4 * se + 1e-12, name
        assert haar_weighted_gate_fidelity(m, u) == pytest.approx(
            exact_num / exact_den, abs=1e-14
        ), name


def _haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _contraction(rng, d, top):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return GateOpMatrix(top * raw / np.linalg.norm(raw, 2))  # largest singular value top


@settings(deadline=None, max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 4]),
    st.floats(1e-3, 1.0),
)
def test_haar_weighted_is_process_fidelity_affine(seed, d, c):
    rng = np.random.default_rng(seed)
    u = GateOpMatrix(_haar_unitary(rng, d))
    m = _contraction(rng, d, c)
    value = haar_weighted_gate_fidelity(m, u)
    assert 0.0 <= value <= 1.0
    process = process_fidelity_postselected(m, u)
    assert abs(value - (d * process + 1) / (d + 1)) < 1e-12
    scaled = GateOpMatrix(c * np.exp(1j * seed) * u.entries)
    assert abs(haar_weighted_gate_fidelity(scaled, u) - 1.0) < 1e-12


def test_haar_chunk_returns_the_three_plain_sums():
    a, b = lossy_cnot(0.33).entries, CNOT.entries
    sum_f, sum_f2, n_ok = _haar_chunk(a, b, 0, 0, 1000)
    assert n_ok == 1000
    assert 0.0 < sum_f2 <= sum_f <= n_ok


def test_haar_validation():
    with pytest.raises(ConfigError):
        haar_avg_gate_fidelity(CNOT, CNOT, samples=50)
    with pytest.raises(ConfigError):
        haar_avg_gate_fidelity(GateOpMatrix(np.eye(2)), CNOT)


def test_report_values_in_unit_interval():
    for eta in (0.0, 0.4, 1.0):
        report = haar_avg_gate_fidelity(lossy_cnot(eta), CNOT, samples=5000, seed=2)
        assert -1e-9 <= report.value <= 1 + 1e-9


# ------------------------------------------------------- exact Haar average


_RNG = np.random.default_rng(8)
# the five gates of the weighted-average cross-check, lossy and not unitary
EXACT_CASES = {
    "cnot eta=0.33": (lossy_cnot(0.33), CNOT),
    "cnot eta=0.7": (lossy_cnot(0.7), CNOT),
    "scheme1 cp B/Omega=3": (scheme1_cp_matrix(1.0, 3.0, (1.05, 0.97, 1.0)), CP),
    "scheme2 cp 10pi B/Omega=5": (scheme2_cp_matrix(1.0, 10 * math.pi, 5.0), CP),
    "random lossy 4x4": (_contraction(_RNG, 4, 0.8), GateOpMatrix(_haar_unitary(_RNG, 4))),
}


def test_haar_exact_matches_monte_carlo():
    for name, (m, u) in EXACT_CASES.items():
        report = haar_avg_gate_fidelity(m, u, samples=1_000_000, seed=11)
        assert abs(haar_exact_gate_fidelity(m, u) - report.value) <= 4 * report.stderr, name


def _split_gauss_legendre(m, u, nodes=64):
    """The same integral by another rule: Gauss-Legendre on [0, c_1], on
    log-spaced panels between the cuts c_k = 1/w_k (w_k the eigenvalues of
    M^dag M), and on [c_max, inf) mapped by s = c_max / y, with Sigma_s by
    dense inversion."""
    a, b = m.entries, u.entries
    d = a.shape[0]
    t, gram = b.conj().T @ a, a.conj().T @ a

    def f(s):
        sigma = np.linalg.inv(np.eye(d) + s[:, None, None] * gram)
        ts, st = t @ sigma, sigma @ t
        lin = np.abs(np.trace(ts, axis1=1, axis2=2)) ** 2
        quad = np.trace(ts @ st.conj().transpose(0, 2, 1), axis1=1, axis2=2).real
        return np.linalg.det(sigma).real * (lin + quad)

    x, wt = np.polynomial.legendre.leggauss(nodes)
    y = 0.5 * (x + 1.0)
    cuts = sorted({1.0 / w for w in np.linalg.eigvalsh(gram) if w > 0})
    total = cuts[0] * 0.5 * (wt @ f(cuts[0] * y))
    for lo, hi in zip(cuts, cuts[1:]):
        span = math.log(hi / lo)
        s = lo * np.exp(span * y)
        total += span * 0.5 * (wt @ (f(s) * s))
    total += 0.5 * (wt @ (f(cuts[-1] / y) * cuts[-1] / y**2))
    return total / d


def test_haar_exact_matches_split_gauss_legendre():
    etas = sorted({1e-9, 1e-6, 1e-3, 0.33, 1.0, *np.geomspace(1e-9, 1.0, 19).tolist()})
    for eta in etas:
        gate = lossy_cnot(eta)
        oracle = _split_gauss_legendre(gate, CNOT)
        assert abs(haar_exact_gate_fidelity(gate, CNOT) - oracle) <= 1e-12, eta
    for name, (m, u) in EXACT_CASES.items():
        assert abs(haar_exact_gate_fidelity(m, u) - _split_gauss_legendre(m, u)) <= 1e-12, name


def test_haar_exact_pins():
    assert haar_exact_gate_fidelity(lossy_cnot(0.0), CNOT) == pytest.approx(0.25, abs=1e-15)
    assert round(haar_exact_gate_fidelity(lossy_cnot(0.33), CNOT), 12) == 0.893125639776
    rng = np.random.default_rng(3)
    for d in (2, 4):  # rank one: every output is the same state, so F = 1/d
        a, b = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        outer = np.outer(a, b.conj())
        rank_one = GateOpMatrix(0.5 * outer / np.linalg.norm(outer, 2))
        value = haar_exact_gate_fidelity(rank_one, GateOpMatrix(_haar_unitary(rng, d)))
        assert value == pytest.approx(1.0 / d, abs=1e-14)
    for u in (CNOT, CP, GateOpMatrix(_haar_unitary(rng, 4)), GateOpMatrix(np.eye(2))):
        for c in (1.0, 0.5j, 1e-3 * np.exp(0.3j)):
            scaled = GateOpMatrix(c * u.entries)
            assert haar_exact_gate_fidelity(scaled, u) == pytest.approx(1.0, abs=1e-14)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 4]),
    st.floats(1e-3, 1.0),
)
def test_haar_exact_lies_in_the_unit_interval(seed, d, c):
    rng = np.random.default_rng(seed)
    m, u = _contraction(rng, d, c), GateOpMatrix(_haar_unitary(rng, d))
    value = haar_exact_gate_fidelity(m, u)
    assert 0.0 <= value <= 1.0
    half = GateOpMatrix(0.5 * m.entries)  # F does not depend on the scale of M
    assert abs(haar_exact_gate_fidelity(half, u) - value) <= 1e-13


def test_haar_exact_validation():
    with pytest.raises(PostSelectionError):
        haar_exact_gate_fidelity(GateOpMatrix(np.zeros((4, 4))), CNOT)
    with pytest.raises(ConfigError):
        haar_exact_gate_fidelity(GateOpMatrix(np.eye(2)), CNOT)

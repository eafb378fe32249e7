import math
import os

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
    ghz_state,
    haar_avg_gate_fidelity,
    haar_weighted_gate_fidelity,
    init_basis,
    lossy_cnot,
    process_fidelity_postselected,
    scheme1_cp_matrix,
    scheme2_cp_matrix,
    state_fidelity_postselected,
)
import paqsim.metrics
from paqsim.metrics import worker_count

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


def test_haar_is_thread_invariant(monkeypatch):
    monkeypatch.delenv("PAQSIM_THREADS", raising=False)
    base = haar_avg_gate_fidelity(lossy_cnot(0.4), CNOT, samples=30000, seed=3)
    monkeypatch.setenv("PAQSIM_THREADS", "8")
    threaded = haar_avg_gate_fidelity(lossy_cnot(0.4), CNOT, samples=30000, seed=3)
    assert base.value == threaded.value
    explicit = haar_avg_gate_fidelity(
        lossy_cnot(0.4), CNOT, samples=30000, seed=3, n_threads=4
    )
    assert base.value == explicit.value


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


@settings(deadline=None, max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 4]),
    st.floats(1e-3, 1.0),
)
def test_haar_weighted_is_process_fidelity_affine(seed, d, c):
    rng = np.random.default_rng(seed)
    u = GateOpMatrix(_haar_unitary(rng, d))
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = GateOpMatrix(c * raw / np.linalg.norm(raw, 2))  # largest singular value c
    value = haar_weighted_gate_fidelity(m, u)
    assert 0.0 <= value <= 1.0
    process = process_fidelity_postselected(m, u)
    assert abs(value - (d * process + 1) / (d + 1)) < 1e-12
    scaled = GateOpMatrix(c * np.exp(1j * seed) * u.entries)
    assert abs(haar_weighted_gate_fidelity(scaled, u) - 1.0) < 1e-12


def test_haar_chunk_returns_the_three_plain_sums():
    a, b = lossy_cnot(0.33).entries, CNOT.entries
    sum_f, sum_f2, n_ok = paqsim.metrics._haar_chunk(a, b, 0, 0, 1000)
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


def test_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the count is capped by CPUs
    monkeypatch.delenv("PAQSIM_THREADS", raising=False)
    assert worker_count() == 1
    assert worker_count(6) == 6
    assert worker_count(0) == 1
    monkeypatch.setenv("PAQSIM_THREADS", "5")
    assert worker_count() == 5
    assert worker_count(2) == 2  # explicit argument wins
    monkeypatch.setenv("PAQSIM_THREADS", "")
    assert worker_count() == 1
    monkeypatch.setenv("PAQSIM_THREADS", "many")
    with pytest.raises(ConfigError):
        worker_count()


def test_worker_count_is_bounded(monkeypatch):
    monkeypatch.setenv("PAQSIM_THREADS", "100000")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert worker_count() == 2
    assert worker_count(n_tasks=1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count() == 64
    assert worker_count(n_tasks=3) == 3
    assert worker_count(100000, 13) == 13
    assert worker_count(5, 13) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
    assert worker_count() == 1


def test_single_haar_chunk_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started for one chunk")

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(paqsim.metrics, "ThreadPoolExecutor", no_pool)
    report = haar_avg_gate_fidelity(lossy_cnot(0.5), CNOT, samples=1000, n_threads=100000)
    assert report.samples == 1000

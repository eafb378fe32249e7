import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paqsim.cli
import paqsim.memory
from _oracles import FewAtomOracle, collective_state, scheme1_cp_oracle
from paqsim import (
    CollectiveState,
    ConfigError,
    EmptyMemoryError,
    EnsembleConfig,
    HardSphere,
    MemoryCapacityError,
    Perfect,
    PowerLaw,
    PulseSpec,
    apply_collective_pulse,
    gaussian_cloud,
    read_photon,
    scheme1_cp_matrix,
    scheme1_cp_micro,
    vacuum_state,
    write_photon,
)

K_DEFAULT = np.array([8.0, 0.0, 0.0])


def make_ensemble(n, seed, sigma=1.0, k=K_DEFAULT, offset=(0.0, 0.0, 0.0)):
    pos = gaussian_cloud(n, sigma, seed) + np.asarray(offset)
    return EnsembleConfig(pos, k)


def test_ensemble_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(np.zeros((0, 3)), K_DEFAULT)
    with pytest.raises(ConfigError):
        EnsembleConfig(np.zeros((2, 2)), K_DEFAULT)
    with pytest.raises(ConfigError):
        EnsembleConfig(np.zeros((2, 3)), np.zeros(2))


def test_ensemble_rejects_non_finite_numbers():
    for bad in (math.nan, math.inf):
        pos = np.zeros((2, 3))
        pos[1, 2] = bad
        with pytest.raises(ConfigError):
            EnsembleConfig(pos, K_DEFAULT)
        with pytest.raises(ConfigError):
            EnsembleConfig(np.zeros((2, 3)), np.array([bad, 0.0, 0.0]))
        with pytest.raises(ConfigError):
            gaussian_cloud(3, bad)


def test_gaussian_cloud_is_seeded():
    a = gaussian_cloud(5, 2.0, seed=9)
    b = gaussian_cloud(5, 2.0, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (5, 3)
    with pytest.raises(ConfigError):
        gaussian_cloud(0, 1.0)
    with pytest.raises(ConfigError):
        gaussian_cloud(3, -1.0)
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        gaussian_cloud(3, 1.0, seed=-1)


def test_gaussian_cloud_counts_and_signed_zero():
    with pytest.raises(ConfigError, match=r"^atom count must be an integer, got 2\.5$"):
        gaussian_cloud(2.5, 1.0)
    np.testing.assert_array_equal(gaussian_cloud(np.int64(4), 1.5, 3), gaussian_cloud(4, 1.5, 3))
    # -0.0 is the zero-width cloud, not numpy's "scale < 0"
    np.testing.assert_array_equal(gaussian_cloud(3, -0.0, 1), np.zeros((3, 3)))


def test_gaussian_cloud_refuses_over_the_atom_budget_before_drawing(monkeypatch):
    cap = paqsim.memory.MAX_ATOMS
    tracemalloc.start()
    try:
        for n in (cap + 1, 10**9, 10**39):
            with pytest.raises(ConfigError, match=rf"^a cloud holds at most {cap} atoms, got {n}$"):
                gaussian_cloud(n, 1.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # nothing of the (N,3) positions was allocated
    # the bound is inclusive
    monkeypatch.setattr(paqsim.memory, "MAX_ATOMS", 3)
    assert gaussian_cloud(3, 1.0, seed=0).shape == (3, 3)
    with pytest.raises(ConfigError):
        gaussian_cloud(4, 1.0, seed=0)


def test_rydberg_population_bookkeeping():
    s = collective_state({((0, "r"),): 0.6, ((1, "g2"),): 0.8})
    assert abs(s.rydberg_population() - 0.36) < 1e-15


def test_single_atom_write():
    ens = EnsembleConfig(np.zeros((1, 3)), K_DEFAULT)
    state = write_photon(ens)
    assert set(state.amplitudes) == {((0, "g2"),)}
    assert abs(state.amplitudes[((0, "g2"),)] - 1.0) < 1e-15


def test_uniform_write_with_zero_wavevector():
    ens = EnsembleConfig(np.zeros((4, 3)) + np.arange(4)[:, None], np.zeros(3))
    state = write_photon(ens)
    assert len(state.amplitudes) == 4
    for amp in state.amplitudes.values():
        assert abs(amp - 0.5) < 1e-15


def test_write_records_positional_phases():
    ens = make_ensemble(6, seed=1)
    state = write_photon(ens)
    phases = ens.phases()
    for j in range(6):
        expect = np.exp(1j * phases[j]) / math.sqrt(6)
        assert abs(state.amplitudes[((j, "g2"),)] - expect) < 1e-14


def test_second_write_builds_the_pair_state():
    ens = EnsembleConfig(np.zeros((3, 3)) + np.arange(3)[:, None], np.zeros(3))
    state = write_photon(ens, write_photon(ens))
    assert len(state.amplitudes) == 3
    for amp in state.amplitudes.values():
        assert abs(amp - 1.0 / math.sqrt(3)) < 1e-14


def test_pair_state_phases_and_norm():
    for n in range(2, 21):
        ens = make_ensemble(n, seed=n)
        state = write_photon(ens, write_photon(ens))
        assert abs(state.norm_sq() - 1.0) < 1e-12
        ph = ens.phases()
        pair_norm = math.sqrt(math.comb(n, 2))
        for i in range(n):
            for j in range(i + 1, n):
                expect = np.exp(1j * (ph[i] - ph[j])) / pair_norm
                got = state.amplitudes[((i, "g2"), (j, "g2"))]
                assert abs(got - expect) < 1e-12


def test_write_capacity_and_level_errors():
    ens = make_ensemble(3, seed=2)
    full = write_photon(ens, write_photon(ens))
    with pytest.raises(MemoryCapacityError):
        write_photon(ens, full)
    single_atom = EnsembleConfig(np.zeros((1, 3)), K_DEFAULT)
    with pytest.raises(MemoryCapacityError):
        write_photon(single_atom, write_photon(single_atom))
    with pytest.raises(ConfigError):
        write_photon(ens, collective_state({((0, "r"),): 1.0}))


def test_second_write_is_capped_before_the_pair_loop(monkeypatch):
    ens = EnsembleConfig(np.zeros((2001, 3)), K_DEFAULT)
    one = write_photon(ens)
    tracemalloc.start()
    try:
        with pytest.raises(
            MemoryCapacityError, match=r"2001 atoms .* C\(2001,2\) = 2001000 .* 1999000"
        ):
            write_photon(ens, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # nothing of the 2001000-pair size (32 MB of amplitudes) was allocated
    assert peak < 1_000_000
    # the bound is inclusive: C(N,2) == cap is still written
    monkeypatch.setattr(paqsim.memory, "MAX_PAIRS", 3)
    small = make_ensemble(3, seed=1)
    assert len(write_photon(small, write_photon(small)).amplitudes) == 3
    small = make_ensemble(4, seed=1)
    with pytest.raises(MemoryCapacityError):
        write_photon(small, write_photon(small))


def test_joint_pairs_of_large_ensembles_have_bounded_temporaries():
    # a full 2000 x 2000 table of pair amplitudes would take 64 MB per array
    ctrl = make_ensemble(2000, seed=3)
    tgt = make_ensemble(2000, seed=4, offset=(3.0, 0.0, 0.0))
    tracemalloc.start()
    try:
        gate = scheme1_cp_micro(0.8, HardSphere(3.0), ctrl, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    # exact pulses: a pair inside the sphere returns -1 through the control's
    # pi pulses, one outside +1, so |11> is eta (1 - 2 * inside / pairs)
    inside = sum(int((np.linalg.norm(tgt.positions - p, axis=1) <= 3.0).sum())
                 for p in ctrl.positions)
    assert 0 < inside < 2000**2
    assert abs(gate.entries[3, 3] - 0.8 * (1 - 2 * inside / 2000**2)) <= 1e-12


def test_matched_read_returns_sqrt_eta():
    for seed, eta in ((3, 1.0), (4, 0.81), (5, 0.33)):
        ens = make_ensemble(7, seed=seed, sigma=3.0)
        amp, remaining = read_photon(ens, write_photon(ens), eta)
        assert abs(abs(amp) - math.sqrt(eta)) < 1e-12
        assert remaining.amplitudes == {(): 1.0}
    assert abs(abs(amp) - 0.574456) < 1e-6


def test_read_at_081_has_magnitude_09():
    ens = make_ensemble(5, seed=8)
    amp, _ = read_photon(ens, write_photon(ens), 0.81)
    assert abs(abs(amp) - 0.9) < 1e-12


def test_mismatched_read_attenuates():
    ens = make_ensemble(8, seed=6, sigma=2.0)
    k2 = np.array([8.0, 1.5, 0.0])
    amp, _ = read_photon(ens, write_photon(ens), 1.0, wavevector=k2)
    # brute-force overlap of the two mode functions
    expect = np.mean(np.exp(1j * (ens.phases() - ens.phases(k2))))
    assert abs(amp - expect) < 1e-12
    assert abs(amp) < 1.0


def test_read_errors():
    ens = make_ensemble(3, seed=7)
    with pytest.raises(EmptyMemoryError):
        read_photon(ens, vacuum_state(), 1.0)
    with pytest.raises(EmptyMemoryError):
        read_photon(ens, collective_state({((0, "r"),): 1.0}), 1.0)
    with pytest.raises(ConfigError):
        read_photon(ens, write_photon(ens), 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_read_refuses_a_non_finite_wavevector(bad):
    # a NaN k would give NaN amplitudes that the pruning keeps
    ens = make_ensemble(3, seed=7)
    pair = write_photon(ens, write_photon(ens))
    for state in (write_photon(ens), pair):
        with pytest.raises(ConfigError, match="^wavevector must be finite"):
            read_photon(ens, state, 0.5, np.array([bad, 0.0, 0.0]))


PHASE_OVERFLOW = "^photon phase overflows; use a smaller wavevector or cloud$"


def test_phases_refuse_an_overflowing_k_dot_r():
    # finite positions and k whose product overflows, to inf or inf - inf
    for pos, k in (([[1e10, 0.0, 0.0]], [1e300, 0.0, 0.0]),
                   ([[1e10, 1e10, 0.0]], [1e300, -1e300, 0.0])):
        ens = EnsembleConfig(np.array(pos), np.array(k))
        with pytest.raises(ConfigError, match=PHASE_OVERFLOW):
            ens.phases()
        with pytest.raises(ConfigError, match=PHASE_OVERFLOW):
            write_photon(ens)


def test_second_write_refuses_an_overflowing_pair_phase():
    # each phase is +-1e308, finite; their difference is not
    ens = EnsembleConfig(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.array([1e308, 0.0, 0.0]))
    assert np.isfinite(ens.phases()).all()
    one = write_photon(ens)
    with pytest.raises(ConfigError, match=PHASE_OVERFLOW):
        write_photon(ens, one)


# states holding an atom a 3-atom ensemble lacks (a single, a pair, an r
# level), with the highest index the message must name
FOREIGN = [
    ({((5, "g2"),): 1.0}, 5),
    ({((0, "g2"), (3, "g2")): 1.0}, 3),
    ({((3, "r"),): 1.0}, 3),
]


@pytest.mark.parametrize("amplitudes, top", FOREIGN)
def test_read_rejects_atoms_beyond_the_ensemble(amplitudes, top):
    ens = EnsembleConfig(np.zeros((3, 3)), K_DEFAULT)
    with pytest.raises(ConfigError, match=f"atom {top},.*n_atoms = 3"):
        read_photon(ens, collective_state(amplitudes), 1.0)


@pytest.mark.parametrize("amplitudes, top", FOREIGN)
def test_write_rejects_atoms_beyond_the_ensemble(amplitudes, top):
    ens = EnsembleConfig(np.zeros((3, 3)), K_DEFAULT)
    with pytest.raises(ConfigError, match=f"atom {top},.*n_atoms = 3"):
        write_photon(ens, collective_state(amplitudes))


@pytest.mark.parametrize("amplitudes, top", FOREIGN)
def test_pulse_rejects_atoms_beyond_the_ensemble(amplitudes, top):
    ens = EnsembleConfig(np.zeros((3, 3)), K_DEFAULT)
    state = collective_state(amplitudes)
    with pytest.raises(ConfigError, match=f"atom {top},.*n_atoms = 3"):
        apply_collective_pulse(state, PulseSpec(math.pi), Perfect(), ens)
    last = collective_state({((2, "g2"),): 1.0})  # the highest index is fine
    assert apply_collective_pulse(last, PulseSpec(math.pi), Perfect(), ens).single.any()


def test_two_excitation_read_shows_bosonic_enhancement():
    # uniform mode: first retrieval amplitude is sqrt(2(N-1)/N) and the
    # remainder is exactly the single-photon spin wave
    n = 4
    ens = EnsembleConfig(np.arange(3.0 * n).reshape(n, 3), np.zeros(3))
    pair = write_photon(ens, write_photon(ens))
    amp1, rest = read_photon(ens, pair, 1.0)
    assert abs(amp1 - math.sqrt(2 * (n - 1) / n)) < 1e-12
    assert abs(rest.norm_sq() - 1.0) < 1e-12
    amp2, rest2 = read_photon(ens, rest, 1.0)
    assert abs(amp2 - 1.0) < 1e-12
    assert rest2.amplitudes == {(): 1.0}


def test_two_excitation_read_normalizes_the_remainder():
    ens = make_ensemble(6, seed=10, sigma=2.0)
    pair = write_photon(ens, write_photon(ens))
    amp1, rest = read_photon(ens, pair, 0.81)
    assert abs(rest.norm_sq() - 1.0) < 1e-12
    assert 0.0 < abs(amp1) <= 0.9 * math.sqrt(2) + 1e-12
    _, rest2 = read_photon(ens, rest, 1.0)
    assert rest2.amplitudes == {(): 1.0}


def test_pi_pulse_transfers_with_minus_i():
    ens = make_ensemble(5, seed=11)
    qm = write_photon(ens)
    out = apply_collective_pulse(qm, PulseSpec(math.pi), Perfect(), ens)
    for config, amp in out.amplitudes.items():
        ((j, lvl),) = config
        assert lvl == "r"
        assert abs(amp - (-1j) * qm.amplitudes[((j, "g2"),)]) < 1e-13


def test_two_pi_pulse_flips_the_sign():
    ens = make_ensemble(5, seed=12)
    qm = write_photon(ens)
    out = apply_collective_pulse(qm, PulseSpec(2 * math.pi), Perfect(), ens)
    for config, amp in qm.amplitudes.items():
        assert abs(out.amplitudes[config] + amp) < 1e-13


def test_two_sequential_pi_pulses_give_exactly_minus_one():
    ens = make_ensemble(4, seed=13)
    qm = write_photon(ens)
    mid = apply_collective_pulse(qm, PulseSpec(math.pi), Perfect(), ens)
    out = apply_collective_pulse(mid, PulseSpec(math.pi), Perfect(), ens)
    for config, amp in qm.amplitudes.items():
        assert out.amplitudes[config] == pytest.approx(-amp, abs=1e-15)


def test_infinitely_detuned_pulse_leaves_state_alone():
    ens = make_ensemble(5, seed=14)
    for qm in (write_photon(ens), write_photon(ens, write_photon(ens))):
        out = apply_collective_pulse(qm, PulseSpec(2 * math.pi, math.inf), PowerLaw(50.0), ens)
        assert dict(out.amplitudes) == dict(qm.amplitudes)


def test_pulses_preserve_norm():
    rng = np.random.default_rng(15)
    ens = make_ensemble(4, seed=16)
    states = [
        write_photon(ens),
        write_photon(ens, write_photon(ens)),
    ]
    for state in states:
        for _ in range(5):
            pulse = PulseSpec(rng.uniform(0.1, 12.0), rng.uniform(-2, 2))
            state = apply_collective_pulse(state, pulse, Perfect(), ens)
            assert abs(state.norm_sq() - 1.0) < 1e-12


def test_ten_pi_pulse_on_pair_state():
    ens = make_ensemble(6, seed=17)
    pair = write_photon(ens, write_photon(ens))
    out = apply_collective_pulse(pair, PulseSpec(10 * math.pi), Perfect(), ens)
    returned = math.cos(5 * math.sqrt(2) * math.pi)
    for config, amp in pair.amplitudes.items():
        assert abs(out.amplitudes[config] - returned * amp) < 1e-12
    assert abs(out.rydberg_population() - (1 - returned**2)) < 1e-12


def test_antisymmetric_pair_is_dark():
    ens = make_ensemble(3, seed=18)
    dark = collective_state({
        ((0, "r"), (1, "g2")): 1 / math.sqrt(2),
        ((0, "g2"), (1, "r")): -1 / math.sqrt(2),
    })
    out = apply_collective_pulse(dark, PulseSpec(7.3), Perfect(), ens)
    for config, amp in dark.amplitudes.items():
        assert abs(out.amplitudes[config] - amp) < 1e-12


def test_micro_protocol_reproduces_cp():
    ctrl = make_ensemble(3, seed=20)
    tgt = make_ensemble(3, seed=21, offset=(10.0, 0.0, 0.0))
    gate = scheme1_cp_micro(1.0, Perfect(), ctrl, tgt)
    np.testing.assert_allclose(
        gate.entries, np.diag([1, -1, -1, -1]), atol=1e-12
    )


def test_micro_protocol_carries_the_loss():
    ctrl = make_ensemble(3, seed=22)
    tgt = make_ensemble(4, seed=23, offset=(12.0, 0.0, 0.0))
    gate = scheme1_cp_micro(0.49, Perfect(), ctrl, tgt)
    np.testing.assert_allclose(
        gate.entries, np.diag([1.0, -0.7, -0.7, -0.49]), atol=1e-12
    )


def test_micro_protocol_with_hard_sphere_geometry():
    ctrl = make_ensemble(3, seed=24, sigma=0.5)
    tgt = make_ensemble(3, seed=25, sigma=0.5, offset=(15.0, 0.0, 0.0))
    ok = scheme1_cp_micro(1.0, HardSphere(40.0), ctrl, tgt)
    np.testing.assert_allclose(ok.entries, np.diag([1, -1, -1, -1]), atol=1e-12)
    # a 5 um sphere cannot reach across 15 um: the |11> input fails to +1
    broken = scheme1_cp_micro(1.0, HardSphere(5.0), ctrl, tgt)
    assert abs(broken.entries[3, 3] - 1.0) < 1e-12
    np.testing.assert_allclose(
        broken.entries[:3, :3], np.diag([1, -1, -1]), atol=1e-12
    )


def test_micro_eta_validation():
    ens = make_ensemble(2, seed=26)
    with pytest.raises(ConfigError):
        scheme1_cp_micro(1.2, Perfect(), ens, ens)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**16),
    st.floats(0.1, 3.0),
    st.tuples(*[st.floats(-10.0, 10.0)] * 3),
    st.floats(0.0, 1.0),
)
def test_micro_cp_matches_macro_for_random_clouds(n_ctrl, n_tgt, seed, sigma, k, eta):
    ctrl = make_ensemble(n_ctrl, seed, sigma, k=np.array(k))
    tgt = make_ensemble(n_tgt, seed + 1, sigma, k=np.array(k), offset=(10.0, 0.0, 0.0))
    micro = scheme1_cp_micro(eta, Perfect(), ctrl, tgt)
    np.testing.assert_allclose(micro.entries, scheme1_cp_matrix(eta).entries, atol=1e-12)


# ------------------------------------------------- engine pins
#
# SHA-256 pins of the engine's output bytes; what they hold is checked
# against the few-atom oracle below.

def _scheme1_micro_corpus(count=60):
    """Seeded scheme1_cp_micro inputs: each blockade model, exact and
    perturbed pulse areas, 1-40 atoms per memory, gaps of 0-12 um, eta in
    [0, 1] with both ends."""
    rng = np.random.default_rng(20)
    for k in range(count):
        n_c, n_t = rng.integers(1, 41, size=2).tolist()
        low, high = [0.0, 1.0, 10.0, 0.0], [12.0, 10.0, 5000.0, 1.0]
        gap, radius, c6, eta = rng.uniform(low, high).tolist()
        if k % 4 == 1:  # the ends of the eta range, where signed zeros appear
            eta = float(k % 8 == 5)
        model = (Perfect(), HardSphere(radius), PowerLaw(c6))[k % 3]
        errors = tuple(rng.uniform(0.8, 1.2, 3).tolist()) if k % 2 else (1.0, 1.0, 1.0)
        ctrl = make_ensemble(n_c, 2 * k)
        tgt = make_ensemble(n_t, 2 * k + 1, offset=(gap, 0.0, 0.0))
        yield eta, model, ctrl, tgt, errors


def test_scheme1_cp_micro_is_pinned_bit_for_bit():
    # SHA-256 of the corpus' entry bytes, recorded when |11> first ran on
    # both memories in one state
    digest = hashlib.sha256()
    for case in _scheme1_micro_corpus():
        digest.update(scheme1_cp_micro(*case).entries.tobytes())
    assert digest.hexdigest() == "8712bf5504a7966d77b9a565b6dce335ca609ff91dd51fed2b0bbca38400396c"


def _two_photon_read_corpus(count=400):
    """Seeded two-excitation reads: each blockade model, 2-39 atoms, zero to
    two pulses before the read, eta in [0, 1], and one read in three taken
    in an off-mode wavevector. One in four second writes lands on a
    vacuum-plus-single superposition, so the read also leaves a vacuum."""
    rng = np.random.default_rng(23)
    for k in range(count):
        n = int(rng.integers(2, 40))
        radius, c6, sigma, eta = rng.uniform([0.3, 1.0, 0.3, 0.0], [4.0, 1e4, 3.0, 1.0]).tolist()
        model = (Perfect(), HardSphere(radius), PowerLaw(c6))[k % 3]
        ens = make_ensemble(n, 1000 + k, sigma, k=np.array([8.0, 0.7, 0.0]))
        first = write_photon(ens)
        if k % 4 == 3:
            c = rng.uniform(0.2, 0.9)
            single = np.zeros((n, 2), dtype=complex)
            single[:, 0] = math.sqrt(1 - c * c) * np.exp(1j * rng.uniform(0, 6, n)) / math.sqrt(n)
            first = CollectiveState._of(c, np.arange(n), single)
        state = write_photon(ens, first)
        for _ in range(k % 3):
            area, det, phase = rng.uniform([0.0, -3.0, -7.0], [4 * math.pi, 3.0, 7.0]).tolist()
            state = apply_collective_pulse(state, PulseSpec(area, det, phase), model, ens)
        k_read = ens.wavevector + np.array([0.0, 1.3, 0.0]) if k % 3 == 2 else None
        yield ens, state, eta, k_read
    # three atoms whose phases k.r are multiples of pi/2: some remainder
    # entries cancel to within PRUNE_TOL, so the pruning shows in the bits
    lattice = EnsembleConfig(np.arange(9.0).reshape(3, 3), np.array([math.pi / 2, 0.0, 0.0]))
    pair = write_photon(lattice, write_photon(lattice))
    for area in (0.5, 1.0, 2.0, 3.0):
        for phase in (0.0, math.pi / 2):
            pulse = PulseSpec(area * math.pi, 0.0, phase)
            yield lattice, apply_collective_pulse(pair, pulse, Perfect(), lattice), 1.0, None


def test_two_photon_read_remainder_is_pinned_bit_for_bit():
    # SHA-256 of each read's amplitude, the remainder's vacuum, its sectors,
    # its sorted mapping, and the follow-on read, recorded when the remainder
    # was first summed in atom order
    digest = hashlib.sha256()
    for ens, state, eta, k_read in _two_photon_read_corpus():
        amp, left = read_photon(ens, state, eta, k_read)
        parts = [np.complex128(amp), np.complex128(left.vacuum), left.atoms, left.single]
        digest.update(b"".join(np.asarray(p).tobytes() for p in parts))
        digest.update(repr(sorted(left.amplitudes.items())).encode())
        try:
            amp2, last = read_photon(ens, left, eta)
            digest.update(np.complex128(amp2).tobytes() + repr(dict(last.amplitudes)).encode())
        except EmptyMemoryError:
            digest.update(b"empty")
    assert digest.hexdigest() == "9efe51ee78addfb4469a8813153ffe3f1049fd10fcbac1fff6188adc94434fc2"


def test_micro_json_matches_the_few_atom_oracle(capsys):
    argv = ["write-write-0.5pi-read", "--atoms", "9", "--sigma-um", "1.7", "--seed", "3",
            "--eta", "0.9", "--blockade", "c6:40"]
    assert paqsim.cli.main(["micro", *argv]) == 0
    record = json.loads(capsys.readouterr().out)
    ens = EnsembleConfig(gaussian_cloud(9, 1.7, 3), np.array([8.0, 0.0, 0.0]))
    oracle = FewAtomOracle((ens,), PowerLaw(40.0))
    psi = oracle.pulse(oracle.write(oracle.write(oracle.vacuum(), 0), 0), 0, 0.5 * math.pi)
    left = oracle.read(psi, 0, 1.0)
    norm = np.linalg.norm(left)
    ((re, im),) = record["reads"]
    assert abs(complex(re, im) - math.sqrt(0.9) * norm) <= 1e-12
    key = lambda c: ";".join(f"{lvl}@{i}" for i, lvl in c) or "vac"  # noqa: E731
    want = {key(c): a / norm for c, a in sorted(zip(oracle.configs, left)) if abs(a) > 1e-9}
    got = {k: complex(*a) for k, a in record["amplitudes"].items()}
    assert list(got) == list(want)  # in sorted configuration order
    assert max(abs(got[k] - want[k]) for k in got) <= 1e-12
    rydberg = sum(abs(a / norm) ** 2 for c, a in zip(oracle.configs, left)
                  if any(lvl == "r" for _, lvl in c))
    assert abs(record["norm_sq"] - 1.0) <= 1e-12
    assert abs(record["rydberg_population"] - rydberg) <= 1e-12


def test_state_is_read_only_and_maps_back_in_sorted_order():
    ens = make_ensemble(5, seed=32)
    state = apply_collective_pulse(
        write_photon(ens, write_photon(ens)), PulseSpec(1.1), Perfect(), ens
    )
    configs = list(state.amplitudes)
    assert configs == sorted(configs)
    with pytest.raises(TypeError):
        state.amplitudes[()] = 1.0
    for arr in (state.atoms, state.single, state.pairs, state.pair):
        assert not arr.flags.writeable
    mixed = collective_state({((2, "r"),): 0.6, (): 0.0, ((0, "g2"), (1, "r")): 0.8j})
    assert list(mixed.amplitudes) == [((0, "g2"), (1, "r")), ((2, "r"),)]


NEAR_OVERFLOW = st.lists(st.tuples(*[st.floats(-2.0**513, 2.0**513, allow_nan=False)] * 3),
                         min_size=1, max_size=6)


@settings(deadline=None, max_examples=300)
@given(NEAR_OVERFLOW, NEAR_OVERFLOW, st.sampled_from([1.0, 0.5, 2.0**-200, 1.3e-154]))
def test_separations_refuse_exactly_the_squares_that_overflow(own, ext, scale):
    # coordinates around 2^511, where a squared separation crosses the float
    # maximum: refused exactly when the unchecked arithmetic overflows, for
    # row-by-row pairs and for every (own, ext) pair at once
    own, ext = np.array(own).T * scale, np.array(ext).T * scale
    for a, b in ((own, ext[:, :1]), (own[:, :, None], ext[:, None, :])):
        with np.errstate(over="ignore"):
            v = a - b
            want = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        if np.isfinite(want).all():
            assert paqsim.memory._lengths(a, b).tobytes() == want.tobytes()
        else:
            with pytest.raises(ConfigError, match="^atom separation too large"):
                paqsim.memory._lengths(a, b)


def test_lengths_at_the_overflow_edge():
    # each row's distance to the origin
    lengths = lambda *rows: paqsim.memory._lengths(np.array(rows).T, np.zeros((3, 1)))  # noqa: E731
    edge = math.sqrt(np.finfo(float).max)  # its square is the float maximum
    assert np.isfinite(lengths([edge, 0.0, 0.0], [2.0**511, 2.0**511, 2.0**511])).all()
    for row in ([np.nextafter(edge, math.inf), 0.0, 0.0], [edge, 2.0**487, 0.0], [1e300, 0.0, 0.0]):
        with pytest.raises(ConfigError, match="^atom separation too large"):
            lengths(row)


def test_scheme1_micro_refuses_ensembles_whose_separations_overflow():
    near = make_ensemble(3, 1)
    for x, refused in ((1e300, True), (1e153, False)):
        far = EnsembleConfig(near.positions + [x, 0.0, 0.0], K_DEFAULT)
        if refused:
            with pytest.raises(ConfigError, match="^atom separation too large"):
                scheme1_cp_micro(0.9, HardSphere(), near, far)
        else:
            scheme1_cp_micro(0.9, HardSphere(), near, far)


# ------------------------------------------------- few-atom oracle
#
# `FewAtomOracle` runs the same protocols on an explicit configuration
# basis with one eigh per pulse; it shares no code with `paqsim.memory`.

ORACLE_K = np.array([8.0, 0.7, 0.0])


OFF_MODE = np.array([0.0, 1.3, 0.0])
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write")),
        st.tuples(st.just("read"), st.floats(0.0, 1.0), st.booleans()),
        st.tuples(
            st.just("pulse"),
            st.floats(0.0, 4 * math.pi),
            st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
            st.one_of(st.just(0.0), st.floats(-7.0, 7.0)),
        ),
    ),
    min_size=1,
    max_size=8,
)


def _refusal(state: CollectiveState, op, n: int):
    """The error the engine's rules give `op` on `state`, or None: a write
    needs a memory free of pairs and of r, and a second photon needs two
    atoms; a read needs a g2 excitation."""
    configs = list(state.amplitudes)
    if op[0] == "write":
        if any(len(c) == 2 for c in configs):
            return MemoryCapacityError
        if any(lv == "r" for c in configs for _, lv in c):
            return ConfigError
        if n == 1 and any(len(c) == 1 for c in configs):
            return MemoryCapacityError
    elif op[0] == "read" and not any(lv == "g2" for c in configs for _, lv in c):
        return EmptyMemoryError
    return None


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 8),
    st.integers(0, 2**16),
    st.floats(0.2, 3.0),
    st.sampled_from(("perfect", "hard", "power")),
    st.floats(0.1, 3.0),
    st.floats(-3.0, 6.0),
    OPS,
)
def test_atom_engine_matches_the_few_atom_oracle(n, seed, sigma, kind, radius, log_c6, ops):
    # radius is the hard sphere's in units of sigma; log_c6 the power law's
    # C6. The oracle's state is the engine's times the reads so far; a read
    # in three is off-mode
    model = {"perfect": Perfect(), "hard": HardSphere(radius * sigma),
             "power": PowerLaw(10.0**log_c6)}[kind]
    ens = make_ensemble(n, seed, sigma, k=ORACLE_K)
    oracle = FewAtomOracle((ens,), model)
    rydberg = [any(lv == "r" for _, lv in c) for c in oracle.configs]
    state, psi, amp = vacuum_state(), oracle.vacuum(), 1.0
    for op in ops:
        k_read = ORACLE_K + OFF_MODE if op[0] == "read" and op[2] else None
        refusal = _refusal(state, op, n)
        if refusal:
            with pytest.raises(ConfigError) as exc:
                if op[0] == "write":
                    write_photon(ens, state)
                else:
                    read_photon(ens, state, op[1], k_read)
            assert type(exc.value) is refusal
            continue
        if op[0] == "write":
            state, psi = write_photon(ens, state), oracle.write(psi, 0)
        elif op[0] == "read":
            got, state = read_photon(ens, state, op[1], k_read)
            amp, psi = amp * got, oracle.read(psi, 0, op[1], k_read)
        else:
            state = apply_collective_pulse(state, PulseSpec(*op[1:]), model, ens)
            psi = oracle.pulse(psi, 0, *op[1:])
        assert np.abs(oracle.vector(state, amp) - psi).max() <= 1e-12
        weight = abs(amp) ** 2
        assert abs(weight * state.norm_sq() - np.vdot(psi, psi).real) <= 1e-12
        r = psi[rydberg]
        assert abs(weight * state.rydberg_population() - np.vdot(r, r).real) <= 1e-12
        assert state.max_excitations() == max(map(len, state.amplitudes), default=0)


def one_atom(x: float) -> EnsembleConfig:
    return EnsembleConfig([[x, 0.0, 0.0]], [0.0, 0.0, 10.0])


def point_cloud(n: int, x: float) -> EnsembleConfig:
    return EnsembleConfig(np.zeros((n, 3)) + [x, 0.0, 0.0], [0.0, 0.0, 10.0])


# B/Omega of the oracle's properties: beyond 1e3 its own eigh loses digits
SHIFTS = st.one_of(st.just(0.0), st.just(math.inf), st.floats(1e-3, 1e3))


def model_at_1um(b: float):
    """A blockade model whose shift at 1 um is b: hard, perfect or c6."""
    model = HardSphere(0.5) if b == 0 else Perfect() if math.isinf(b) else PowerLaw(b)
    assert model.shift_over_rabi(1.0) == b
    return model


@settings(deadline=None, max_examples=60)
@given(SHIFTS, st.floats(0.0, 1.0), st.tuples(*[st.floats(0.8, 1.2)] * 3))
def test_scheme1_matrix_matches_the_oracle_on_one_atom_ensembles(b, eta, errors):
    want = scheme1_cp_oracle(eta, model_at_1um(b), one_atom(0.0), one_atom(1.0), errors)
    got = np.diag(scheme1_cp_matrix(eta, b, errors).entries)
    assert np.abs(got - want).max() <= 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(1, 4), SHIFTS, st.floats(0.0, 1.0),
       st.tuples(*[st.floats(0.8, 1.2)] * 3))
def test_scheme1_micro_and_macro_match_the_oracle_on_point_clouds(n_ctrl, n_tgt, b, eta, errors):
    # zero-width clouds 1 um apart: every pair sees the macro gate's B/Omega
    model = model_at_1um(b)
    ctrl, tgt = point_cloud(n_ctrl, 0.0), point_cloud(n_tgt, 1.0)
    want = scheme1_cp_oracle(eta, model, ctrl, tgt, errors)
    micro = np.diag(scheme1_cp_micro(eta, model, ctrl, tgt, errors).entries)
    macro = np.diag(scheme1_cp_matrix(eta, b, errors).entries)
    assert np.abs(micro - want).max() <= 1e-12
    assert np.abs(macro - want).max() <= 1e-12


@pytest.mark.parametrize("distance", [3.0, 6.0, 9.0])
def test_scheme1_micro_matches_the_oracle_at_finite_blockade(distance):
    model = PowerLaw(5000.0)
    ctrl, tgt = one_atom(0.0), one_atom(distance)
    got = np.diag(scheme1_cp_micro(1.0, model, ctrl, tgt).entries)
    assert np.abs(got - scheme1_cp_oracle(1.0, model, ctrl, tgt)).max() <= 1e-12


def test_scheme1_micro_is_continuous_in_distance():
    # a switch on the other memory's Rydberg population once made |11> jump
    # by 7.1e-3 between these distances
    model = PowerLaw(5000.0)
    near, far = (scheme1_cp_micro(1.0, model, one_atom(0.0), one_atom(d)).entries[3, 3]
                 for d in (10.18, 10.19))
    assert abs(near - far) < 1e-4


@pytest.mark.parametrize("b, errors", [(1e308, (1.0, 1.0, 1.0)), (1e308, (1.05, 0.97, 0.95)),
                                        (math.inf, (1.0, 0.0, 1.0))])
def test_scheme1_micro_is_the_macro_gate_where_shift_times_area_is_not_finite(b, errors):
    # B * area overflows at 1 um, or is inf * 0: both engines leave g2 alone
    model = model_at_1um(b)
    got = scheme1_cp_micro(1.0, model, one_atom(0.0), one_atom(1.0), errors).entries
    assert np.abs(got - scheme1_cp_matrix(1.0, b, errors).entries).max() <= 1e-12


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**16), st.floats(0.2, 3.0),
       st.floats(0.0, 8.0), st.sampled_from(("perfect", "hard", "power")), st.floats(0.5, 8.0),
       st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.tuples(*[st.floats(0.8, 1.2)] * 3))
def test_scheme1_micro_matches_the_oracle_on_small_clouds(n_ctrl, n_tgt, seed, sigma, gap, kind,
                                                          radius, log_b, eta, errors):
    # radius is the hard sphere's in um; the power law's C6 puts the largest
    # pair shift, at the closest pair, at B/Omega = 10^log_b
    ctrl = make_ensemble(n_ctrl, seed, sigma, k=ORACLE_K)
    tgt = make_ensemble(n_tgt, seed + 1, sigma, k=ORACLE_K, offset=(gap, 0.0, 0.0))
    pos = np.concatenate((ctrl.positions, tgt.positions))
    closest = min(math.dist(p, q) for k, p in enumerate(pos) for q in pos[k + 1:])
    model = {"perfect": Perfect(), "hard": HardSphere(radius),
             "power": PowerLaw(10.0**log_b * closest**6)}[kind]
    got = np.diag(scheme1_cp_micro(eta, model, ctrl, tgt, errors).entries)
    assert np.abs(got - scheme1_cp_oracle(eta, model, ctrl, tgt, errors)).max() <= 1e-12

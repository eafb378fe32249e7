import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _dict_memory
import paqsim.cli
import paqsim.memory
from _oracles import collective_state
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


def test_external_blockade_on_a_large_ensemble_has_bounded_temporaries():
    # a full 2000 x 2000 table of atom distances would take 32 MB per array
    ctrl = make_ensemble(2000, seed=3)
    tgt = make_ensemble(2000, seed=4, offset=(3.0, 0.0, 0.0))
    state = write_photon(ctrl)
    tracemalloc.start()
    try:
        far = paqsim.memory._farthest_external(ctrl, tgt)
        apply_collective_pulse(state, PulseSpec(math.pi), PowerLaw(1e6), ctrl, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    # the distances the dict engine took, atom by atom, to the bit
    ref = [float(np.max(np.linalg.norm(tgt.positions - p, axis=1))) for p in ctrl.positions]
    assert far.tolist() == ref


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


def test_blocked_pulse_leaves_state_alone():
    ens = make_ensemble(5, seed=14)
    other = make_ensemble(3, seed=15, offset=(6.0, 0.0, 0.0))
    qm = write_photon(ens)
    out = apply_collective_pulse(qm, PulseSpec(2 * math.pi), Perfect(), ens, blocker=other)
    for config, amp in qm.amplitudes.items():
        assert abs(out.amplitudes[config] - amp) < 1e-12


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


# ------------------------------------------------- dict-engine oracle
#
# `_dict_memory` is the per-configuration dict engine the array engine
# replaced. Every protocol below runs on both, from the same vacuum.

MODELS = st.one_of(
    st.just(Perfect()),
    st.floats(0.3, 4.0).map(HardSphere),
    st.floats(1.0, 1e4).map(PowerLaw),
)
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


def _dense(amplitudes, n):
    """Amplitudes as one vector: vacuum, 2N single slots, 4 per atom pair."""
    out = np.zeros(1 + 2 * n + 4 * n * n, dtype=complex)
    for config, amp in amplitudes.items():
        slot = 0
        for k, (atom, lvl) in enumerate(config):
            slot += (1 if k == 0 else 2 * n) * (1 + 2 * atom + ("g2", "r").index(lvl))
        out[slot] = amp
    return out


def _step(engine, state, op, ens, model):
    """Apply one op; returns (read amplitude or None, new state)."""
    if op[0] == "write":
        return None, engine.write_photon(ens, state)
    if op[0] == "read":
        k = ens.wavevector + np.array([0.0, 1.3, 0.0]) if op[2] else None
        return engine.read_photon(ens, state, op[1], k)
    return None, engine.apply_collective_pulse(state, PulseSpec(*op[1:]), model, ens)


def _outcome(engine, state, op, ens, model):
    try:
        return _step(engine, state, op, ens, model), None
    except (ConfigError, EmptyMemoryError, MemoryCapacityError) as exc:
        return None, type(exc)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 20), st.integers(0, 2**16), st.floats(0.3, 3.0), MODELS, OPS)
def test_array_engine_matches_the_dict_engine(n, seed, sigma, model, ops):
    ens = make_ensemble(n, seed, sigma, k=np.array([8.0, 0.7, 0.0]))
    state, oracle = vacuum_state(), _dict_memory.vacuum_state()
    for op in ops:
        before = collective_state(oracle.amplitudes)  # the oracle's input, same bits
        got, err = _outcome(paqsim.memory, state, op, ens, model)
        want, want_err = _outcome(_dict_memory, oracle, op, ens, model)
        assert err == want_err
        if err:
            continue
        (amp, state), (want_amp, oracle) = got, want
        if op[0] == "read":
            assert abs(amp - want_amp) <= 1e-13
        np.testing.assert_allclose(
            _dense(state.amplitudes, n), _dense(oracle.amplitudes, n), rtol=0, atol=1e-13
        )
        assert abs(state.norm_sq() - oracle.norm_sq()) <= 1e-13
        assert abs(state.rydberg_population() - oracle.rydberg_population()) <= 1e-13
        assert state.max_excitations() == oracle.max_excitations()
        if op[0] == "write" or (op[0] == "pulse" and not isinstance(model, PowerLaw)):
            # from identical inputs these paths give identical bits
            assert dict(_step(paqsim.memory, before, op, ens, model)[1].amplitudes) == dict(
                oracle.amplitudes)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 2**16),
    MODELS,
    st.floats(0.0, 12.0),
    st.tuples(*[st.floats(0.8, 1.2)] * 3),
    st.floats(0.0, 1.0),
)
def test_scheme1_cp_micro_matches_the_dict_engine(n_ctrl, n_tgt, seed, model, gap, errors, eta):
    ctrl = make_ensemble(n_ctrl, seed, 1.0)
    tgt = make_ensemble(n_tgt, seed + 1, 1.0, offset=(gap, 0.0, 0.0))
    got = scheme1_cp_micro(eta, model, ctrl, tgt, errors).entries
    want = _dict_memory.scheme1_cp_micro(eta, model, ctrl, tgt, errors).entries
    if isinstance(model, Perfect):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


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
    # SHA-256 of the corpus' entry bytes as the protocol gives them when it is
    # run in full for each basis input; the corpus holds the other memory both
    # above and below RYDBERG_PRESENCE_TOL after the control pi and the target 2pi
    digest = hashlib.sha256()
    for case in _scheme1_micro_corpus():
        digest.update(scheme1_cp_micro(*case).entries.tobytes())
    assert digest.hexdigest() == "a86dd7ac034a4a4336e3e40677f1448a476c41773bda4a7a5b7d561e6b24e21e"


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
    # SHA-256 of each read's amplitude, the remainder's vacuum, its sectors
    # and amplitudes in `order`, its sorted mapping, and the follow-on read,
    # as the reads gave them when the remainder was built from a dict
    digest = hashlib.sha256()
    for ens, state, eta, k_read in _two_photon_read_corpus():
        amp, left = read_photon(ens, state, eta, k_read)
        parts = [np.complex128(amp), np.complex128(left.vacuum), left.atoms[left.order // 2],
                 left.order % 2, left.single.flat[left.order]]
        digest.update(b"".join(np.asarray(p).tobytes() for p in parts))
        digest.update(repr(sorted(left.amplitudes.items())).encode())
        try:
            amp2, last = read_photon(ens, left, eta)
            digest.update(np.complex128(amp2).tobytes() + repr(dict(last.amplitudes)).encode())
        except EmptyMemoryError:
            digest.update(b"empty")
    assert digest.hexdigest() == "3fd3deaae574baa0dc09bb79bfd7ecc8d4ab4b3c7f4fd994b8dc52af519f6b92"


def test_external_blockade_on_pairs_matches_the_dict_engine():
    ens = make_ensemble(7, seed=30, sigma=1.5)
    far = make_ensemble(4, seed=31, sigma=1.0, offset=(4.0, 0.0, 0.0))
    for model in (Perfect(), HardSphere(5.5), PowerLaw(300.0)):
        state, oracle = (e.write_photon(ens, e.write_photon(ens))
                         for e in (paqsim.memory, _dict_memory))
        pulse = PulseSpec(2.3, 0.4, 0.2)
        state = apply_collective_pulse(state, pulse, model, ens, far)
        oracle = _dict_memory.apply_collective_pulse(oracle, pulse, model, ens, far, True)
        np.testing.assert_allclose(
            _dense(state.amplitudes, 7), _dense(oracle.amplitudes, 7), rtol=0, atol=1e-13
        )


def test_micro_json_matches_the_dict_engine_byte_for_byte(capsys):
    argv = ["write-write-0.5pi-read", "--atoms", "9", "--sigma-um", "1.7", "--seed", "3",
            "--eta", "0.9", "--blockade", "c6:40"]
    assert paqsim.cli.main(["micro", *argv]) == 0
    out = capsys.readouterr().out
    # the record as the CLI printed it from the dict engine
    ens = EnsembleConfig(gaussian_cloud(9, 1.7, 3), np.array([8.0, 0.0, 0.0]))
    state = _dict_memory.write_photon(ens, _dict_memory.write_photon(ens))
    pulse = PulseSpec(0.5 * math.pi)
    state = _dict_memory.apply_collective_pulse(state, pulse, PowerLaw(40.0), ens)
    amp, state = _dict_memory.read_photon(ens, state, 0.9)
    amps = {}
    for config in sorted(state.amplitudes):
        a = state.amplitudes[config]
        key = "vac" if not config else ";".join(f"{lvl}@{i}" for i, lvl in config)
        amps[key] = [float(a.real), float(a.imag)]
    record = {
        "n_atoms": 9,
        "ops": ["write", "write", "0.5pi", "read"],
        "reads": [[float(np.real(amp)), float(np.imag(amp))]],
        "norm_sq": state.norm_sq(),
        "rydberg_population": state.rydberg_population(),
        "amplitudes": amps,
    }
    assert out == json.dumps(record) + "\n"


def test_state_is_read_only_and_maps_back_in_sorted_order():
    ens = make_ensemble(5, seed=32)
    state = apply_collective_pulse(
        write_photon(ens, write_photon(ens)), PulseSpec(1.1), Perfect(), ens
    )
    configs = list(state.amplitudes)
    assert configs == sorted(configs)
    with pytest.raises(TypeError):
        state.amplitudes[()] = 1.0
    for arr in (state.atoms, state.single, state.pairs, state.pair, state.order):
        assert not arr.flags.writeable
    mixed = collective_state({((2, "r"),): 0.6, (): 0.0, ((0, "g2"), (1, "r")): 0.8j})
    assert list(mixed.amplitudes) == [((0, "g2"), (1, "r")), ((2, "r"),)]


def test_two_photon_read_keeps_the_dict_order():
    # what a read leaves is summed in the order the dict engine inserted it;
    # in the first three clouds a row-major sum rounds norm_sq differently
    cases = [(6, 4, PowerLaw(50.0)), (6, 11, HardSphere(1.0)), (8, 4, HardSphere(1.0)),
             (8, 0, Perfect()), (9, 2, PowerLaw(50.0))]
    for n, seed, model in cases:
        ens = make_ensemble(n, seed=seed, sigma=1.2)
        pulse = PulseSpec(1.7, 0.3)
        state = apply_collective_pulse(write_photon(ens, write_photon(ens)), pulse, model, ens)
        oracle = _dict_memory.write_photon(ens, _dict_memory.write_photon(ens))
        oracle = _dict_memory.apply_collective_pulse(oracle, pulse, model, ens)
        _, left = read_photon(ens, state, 0.8)
        _, want = _dict_memory.read_photon(ens, oracle, 0.8)
        seq = [((int(left.atoms[p // 2]), ("g2", "r")[p % 2]),) for p in left.order]
        assert seq == list(want.amplitudes)
        assert left.norm_sq() == sum(abs(left.amplitudes[c]) ** 2 for c in seq)
        assert left.rydberg_population() == sum(
            abs(left.amplitudes[c]) ** 2 for c in seq if c[0][1] == "r")


NEAR_OVERFLOW = st.lists(st.tuples(*[st.floats(-2.0**513, 2.0**513, allow_nan=False)] * 3),
                         min_size=1, max_size=6)


@settings(deadline=None, max_examples=300)
@given(NEAR_OVERFLOW, NEAR_OVERFLOW, st.sampled_from([1.0, 0.5, 2.0**-200, 1.3e-154]))
def test_separations_refuse_exactly_the_squares_that_overflow(own, ext, scale):
    # coordinates around 2^511, where a squared separation crosses the float
    # maximum: refused exactly when the unchecked arithmetic overflows
    own, ext = np.array(own) * scale, np.array(ext) * scale
    pos, i = np.vstack([own, ext[:1]]), np.arange(len(own))
    v = own - ext[0]
    with np.errstate(over="ignore"):
        lengths = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        d = ext.T[:, None, :] - own.T[:, :, None]
        far = np.sqrt((d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).max(axis=1))
    calls = [
        (lambda: paqsim.memory._lengths(pos, i, np.full_like(i, len(own))), lengths),
        (lambda: paqsim.memory._farthest_external(EnsembleConfig(own, K_DEFAULT),
                                                  EnsembleConfig(ext, K_DEFAULT)), far),
    ]
    for call, want in calls:
        if np.isfinite(want).all():
            assert call().tobytes() == want.tobytes()
        else:
            with pytest.raises(ConfigError, match="^atom separation too large"):
                call()


def test_lengths_at_the_overflow_edge():
    # each row's distance to the origin
    lengths = lambda *rows: paqsim.memory._lengths(  # noqa: E731
        np.array([*rows, [0.0, 0.0, 0.0]]), np.arange(len(rows)), np.full(len(rows), len(rows)))
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

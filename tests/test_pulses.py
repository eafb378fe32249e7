import math
import warnings

import _dict_memory
from _oracles import fit_pair_frequency
import numpy as np
import pytest

from paqsim import (
    CircuitOp,
    ConfigError,
    GatePlacementError,
    HardSphere,
    Perfect,
    PowerLaw,
    PulseSpec,
    TimelineProgram,
    pair_propagators,
    run_timeline,
    scheme1_cp_matrix,
    scheme2_cp_matrix,
    two_level_propagator,
)

SQRT2 = math.sqrt(2.0)


def one_pair(area, shift, detuning=0.0, phase=0.0):
    """The propagator of one (shift, detuning), from a one-element stack."""
    return pair_propagators(area, [shift], detuning, phase)[0]


def test_pulse_spec_rejects_negative_area():
    with pytest.raises(ConfigError):
        PulseSpec(-0.1)


def test_one_area_check_for_both_kernels():
    for call in (lambda: PulseSpec(math.inf), lambda: pair_propagators(math.inf, [1.0], 0.0)):
        with pytest.raises(ConfigError, match="^pulse area must be finite and >= 0, got inf$"):
            call()


@pytest.mark.parametrize(
    "pulse, g2_return",
    [
        (PulseSpec(2 * math.pi, 1e300), 1.0),  # a huge detuning leaves g2 alone
        (PulseSpec(1e-300, 1e300), 1.0),
        (PulseSpec(1e300), math.cos(0.5e300)),  # the squares overflow, the norm does not
    ],
)
def test_propagator_past_the_float_range(pulse, g2_return):
    u = two_level_propagator(pulse).entries
    assert np.isfinite(u).all()
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
    assert abs(u[0, 0] - g2_return) < 1e-12


def test_power_law_past_the_float_range():
    # r**6 underflows to a perfect blockade and overflows to none
    shifts = PowerLaw(100.0).shift_over_rabi([1e-300, 1e300, 2.0])
    np.testing.assert_array_equal(shifts, [math.inf, 0.0, 100.0 / 2.0**6])


def test_resonant_pi_pulse():
    u = two_level_propagator(PulseSpec(math.pi)).entries
    np.testing.assert_allclose(u, [[0, -1j], [-1j, 0]], atol=1e-15)


def test_resonant_two_pi_pulse_is_minus_identity():
    u = two_level_propagator(PulseSpec(2 * math.pi)).entries
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-15)


def test_far_detuned_two_pi_pulse_stays_home():
    u = two_level_propagator(PulseSpec(2 * math.pi, 1000.0)).entries
    assert abs(u[0, 0]) ** 2 >= 1 - 1e-6


def test_infinite_detuning_freezes():
    u = two_level_propagator(PulseSpec(3.7, math.inf)).entries
    np.testing.assert_allclose(u, np.eye(2), atol=0)


@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi, 2 * math.pi, 31.4])
@pytest.mark.parametrize("det", [0.0, 0.5, -2.0, 1000.0])
@pytest.mark.parametrize("phase", [0.0, 1.1])
def test_propagator_is_unitary(theta, det, phase):
    u = two_level_propagator(PulseSpec(theta, det, phase)).entries
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


def test_laser_phase_rotates_offdiagonal():
    phi = 0.8
    u = two_level_propagator(PulseSpec(math.pi, 0.0, phi)).entries
    assert abs(u[1, 0] - (-1j * np.exp(1j * phi))) < 1e-12
    assert abs(u[0, 1] - (-1j * np.exp(-1j * phi))) < 1e-12


def test_detuned_leakage_bound():
    # off-resonant population transfer never exceeds 1/(1+(Delta/Omega)^2)
    for det in (0.5, 2.0, 10.0, 150.0):
        worst = 0.0
        for theta in np.linspace(0.1, 4 * math.pi, 40):
            u = two_level_propagator(PulseSpec(float(theta), det)).entries
            worst = max(worst, abs(u[1, 0]) ** 2)
        assert worst <= 1.0 / (1.0 + det**2) + 1e-12


def placed(blockade, distance_um: float) -> bool:
    """Whether a timeline places a CP pair this far apart under `blockade`."""
    program = TimelineProgram(
        2, ((0.0, 0.0), (distance_um, 0.0)), ((CircuitOp("cp", (0, 1)),),)
    )
    try:
        run_timeline(program, 1.0, blockade=blockade)
    except GatePlacementError:
        return False
    return True


def test_blockade_models():
    assert Perfect().shift_over_rabi(1e9) == math.inf
    # perfect blockade places a pair at any distance
    assert all(placed(Perfect(), d) for d in (0.0, 40.0, 1e9, 1e300))

    hs = HardSphere(40.0)
    assert hs.shift_over_rabi(40.0) == math.inf  # boundary is inside
    assert hs.shift_over_rabi(40.000001) == 0.0
    assert placed(hs, 40.0)
    assert not placed(hs, math.nextafter(40.0, math.inf))

    pl = PowerLaw(1e8)
    assert abs(pl.shift_over_rabi(10.0) - 1e8 / 10.0**6) < 1e-9
    assert pl.shift_over_rabi(0.0) == math.inf
    # a pair is placed while its shift is at least 100x the Rabi frequency,
    # reached at 10 um, exactly: one ulp on either side crosses it
    inside, outside = math.nextafter(10.0, 0.0), math.nextafter(10.0, math.inf)
    assert pl.shift_over_rabi(inside) > 100.0 == pl.shift_over_rabi(10.0)
    assert pl.shift_over_rabi(outside) < 100.0
    assert placed(pl, 0.0) and placed(pl, inside) and placed(pl, 10.0)
    assert not placed(pl, outside)


def test_blockade_model_validation():
    with pytest.raises(ConfigError):
        HardSphere(0.0)
    with pytest.raises(ConfigError):
        PowerLaw(-1.0)
    with pytest.raises(ConfigError):
        PowerLaw(0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PulseSpec(math.nan),
        lambda: PulseSpec(math.inf),
        lambda: HardSphere(math.nan),
        lambda: PowerLaw(math.nan),
        lambda: PowerLaw(-math.inf),
        lambda: HardSphere(40.0).shift_over_rabi(math.nan),
        lambda: HardSphere(40.0).shift_over_rabi(math.inf),
        lambda: PowerLaw(1e6).shift_over_rabi(math.nan),
        lambda: one_pair(math.nan, 1.0),
        lambda: scheme1_cp_matrix(1.0, math.nan),
        lambda: scheme1_cp_matrix(1.0, math.inf, (math.nan, 1.0, 1.0)),
        lambda: scheme2_cp_matrix(1.0, math.nan),
        lambda: scheme2_cp_matrix(1.0, 10 * math.pi, math.nan),
        lambda: PulseSpec(math.pi, math.nan),
        lambda: PulseSpec(math.pi, 0.0, math.nan),
        lambda: PulseSpec(math.pi, 0.0, math.inf),
        lambda: one_pair(math.pi, math.nan),
        lambda: one_pair(math.pi, 1.0, math.nan),
        lambda: one_pair(math.pi, math.inf, 0.0, -math.inf),
        lambda: HardSphere(40.0).shift_over_rabi(-5.0),
        lambda: PowerLaw(1e6).shift_over_rabi(-1e-9),
        lambda: pair_propagators(math.pi, [1.0, math.nan], 0.0),
        lambda: pair_propagators(math.pi, [1.0, 2.0], [0.0, math.nan]),
        lambda: pair_propagators(-1.0, [1.0], 0.0),
        lambda: HardSphere(40.0).shift_over_rabi(np.array([1.0, -5.0])),
        lambda: HardSphere(40.0).shift_over_rabi(np.array([math.inf])),
        lambda: PowerLaw(1e6).shift_over_rabi(np.array([2.0, math.nan])),
    ],
)
def test_range_checks_reject_nan_and_meaningless_inf(build):
    with pytest.raises(ConfigError):
        build()


def test_infinity_keeps_its_meaning():
    assert HardSphere(math.inf).shift_over_rabi(1e6) == math.inf
    assert HardSphere(40.0).shift_over_rabi(0.0) == math.inf
    assert PowerLaw(1e6).shift_over_rabi(0.0) == math.inf
    # an infinite detuning is no drive
    np.testing.assert_array_equal(
        two_level_propagator(PulseSpec(math.pi, math.inf)).entries, np.eye(2)
    )
    np.testing.assert_array_equal(one_pair(math.pi, math.inf, math.inf), np.eye(3))
    # with a finite pair shift too, in either sign, and through pair_propagators
    for shift in (0.0, 5.0, 1e9):
        for det in (math.inf, -math.inf):
            np.testing.assert_array_equal(one_pair(1.0, shift, det, 0.3), np.eye(3))
    stack = pair_propagators(1.0, [0.0, 5.0, math.inf, 5.0], [math.inf, -math.inf, math.inf, 0.2])
    np.testing.assert_array_equal(stack[:3], np.broadcast_to(np.eye(3), (3, 3, 3)))
    np.testing.assert_array_equal(stack[3], one_pair(1.0, 5.0, 0.2))
    np.testing.assert_allclose(
        scheme1_cp_matrix(1.0, math.inf).entries, np.diag([1, -1, -1, -1]), atol=1e-15
    )


def test_shift_over_rabi_takes_arrays_and_matches_the_closed_forms():
    d = np.array([0.0, 1e-3, 2.5, 39.999, 40.0, 40.001, 1e4])
    closed_forms = [
        (Perfect(), lambda r: math.inf),
        (HardSphere(40.0), lambda r: math.inf if r <= 40.0 else 0.0),
        (PowerLaw(1e6), lambda r: math.inf if r == 0 else 1e6 / math.pow(r, 6) / 1.0),
        (PowerLaw(3.7), lambda r: math.inf if r == 0 else 3.7 / math.pow(r, 6)),
    ]
    for model, shift in closed_forms:
        got = model.shift_over_rabi(d)
        assert got.tolist() == [shift(r) for r in d.tolist()]
        assert model.shift_over_rabi(d.reshape(7, 1)).shape == (7, 1)
        assert model.shift_over_rabi(d[:0]).shape == (0,)
        for r in d.tolist():  # a scalar in, a scalar out
            one = model.shift_over_rabi(r)
            assert np.ndim(one) == 0 and isinstance(one, float) and one == shift(r)
    # one distance check, one message, naming the first bad entry
    message = r"^blockade distance must be finite and >= 0, got -5\.0$"
    for model in (Perfect(), HardSphere(40.0), PowerLaw(1e6)):
        with pytest.raises(ConfigError, match=message):
            model.shift_over_rabi(np.array([1.0, -5.0, math.nan]))
        with pytest.raises(ConfigError, match=message):
            model.shift_over_rabi(-5.0)
        with pytest.raises(ConfigError, match="got nan$"):
            model.shift_over_rabi(np.float64(math.nan))
    assert HardSphere(40.0).shift_over_rabi(np.float64(40.0)) == math.inf


def test_pair_propagators_match_the_scalar_calls_bit_for_bit():
    # finite pairs against the one-pair-at-a-time ladder kept in the dict oracle
    rng = np.random.default_rng(8)
    shifts = np.concatenate([[0.0], rng.uniform(0.0, 60.0, 40)])
    dets = np.concatenate([[-1.25], rng.uniform(-3.0, 3.0, 40)])
    stack = pair_propagators(2.7, shifts, dets, 0.4)
    for k in range(len(shifts)):
        np.testing.assert_array_equal(
            stack[k], _dict_memory.pair_propagator(2.7, shifts[k], dets[k], 0.4)
        )
        np.testing.assert_array_equal(
            one_pair(2.7, shifts[k], dets[k], 0.4), stack[k]
        )
    # an infinite shift embeds the two-level propagator at sqrt(2) times the
    # area; an infinite detuning is no drive, whatever the shift
    shifts = [math.inf, math.inf, math.inf, 5.0, 0.0]
    dets = [0.0, -1.25, math.inf, -math.inf, math.inf]
    stack = pair_propagators(2.7, shifts, dets, 0.4)
    for k, (shift, det) in enumerate(zip(shifts, dets)):
        expect = np.eye(3, dtype=complex)
        if not math.isinf(det):
            pulse = PulseSpec(SQRT2 * 2.7, det / SQRT2, 0.4)
            expect[:2, :2] = two_level_propagator(pulse).entries
        np.testing.assert_array_equal(stack[k], expect)
        np.testing.assert_array_equal(one_pair(2.7, shift, det, 0.4), expect)
    assert pair_propagators(1.0, [], 0.0).shape == (0, 3, 3)


def test_pair_propagator_unitary_and_blocked_limit():
    rng = np.random.default_rng(4)
    for _ in range(20):
        theta = rng.uniform(0.1, 20.0)
        shift = rng.uniform(0.0, 50.0)
        det = rng.uniform(-3.0, 3.0)
        u = one_pair(theta, shift, det, rng.uniform(0, 2 * math.pi))
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12
    u = one_pair(1.3, math.inf)
    assert abs(u[2, 2] - 1.0) < 1e-15  # rr frozen
    assert abs(u[0, 0] - math.cos(SQRT2 * 1.3 / 2)) < 1e-12


def test_pair_propagator_converges_to_sqrt2_reduction():
    # finite-blockade 3-level ladder vs the blocked 2-level limit; the
    # leading correction to the closed block shrinks like theta/B
    theta = 10 * math.pi
    u_inf = one_pair(theta, math.inf)[:2, :2]

    def dev(b):
        return np.abs(one_pair(theta, b)[:2, :2] - u_inf).max()

    d500, d1000, d4000 = dev(500.0), dev(1000.0), dev(4000.0)
    assert d4000 < d1000 < d500
    assert d1000 < theta / 1000.0
    assert d4000 < theta / 4000.0


def test_scheme1_ideal_is_cp():
    m = scheme1_cp_matrix(1.0).entries
    np.testing.assert_allclose(m, np.diag([1, -1, -1, -1]), atol=1e-12)


def test_scheme1_loss_structure():
    s = math.sqrt(0.33)
    m = scheme1_cp_matrix(0.33).entries
    np.testing.assert_allclose(
        m, np.diag([1.0, -s, -s, -0.33]), atol=1e-12
    )
    assert abs(m[1, 1] - (-0.5745)) < 1e-4


def test_scheme1_no_blockade_fails_with_plus_sign():
    m = scheme1_cp_matrix(1.0, 0.0).entries
    np.testing.assert_allclose(m, np.diag([1, -1, -1, 1]), atol=1e-12)
    m = scheme1_cp_matrix(0.33, 0.0).entries
    assert abs(m[3, 3] - 0.33) < 1e-12


def test_scheme1_failure_amplitude_decays_with_blockade():
    grid = (150.0, 200.0, 300.0, 500.0, 1000.0)
    devs = []
    for b in grid:
        entry = scheme1_cp_matrix(1.0, b).entries[3, 3]
        leak = 1.0 - abs(entry) ** 2
        assert leak <= 1.0 / (1.0 + b**2) + 1e-12
        assert leak < 1e-4
        devs.append(abs(entry + 1.0))
    assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:]))


def test_scheme1_pulse_area_errors_enter():
    m = scheme1_cp_matrix(1.0, math.inf, (1.0, 0.9, 1.0)).entries
    # imperfect 2pi on the free target lands at cos(0.9*pi), not -1
    assert abs(m[1, 1] - math.cos(0.9 * math.pi)) < 1e-12
    assert abs(m[2, 2] + 1.0) < 1e-12


def test_scheme1_validation():
    with pytest.raises(ConfigError):
        scheme1_cp_matrix(1.5)
    with pytest.raises(ConfigError):
        scheme1_cp_matrix(0.5, -1.0)


def test_scheme2_numbers_at_ten_pi():
    m = scheme2_cp_matrix(1.0).entries
    assert abs(m[1, 1] - (-1.0)) < 1e-15  # cos(5pi) exactly
    pair = m[3, 3]
    assert abs(pair - math.cos(5 * SQRT2 * math.pi)) < 1e-12
    assert abs(pair + 0.97517) < 1e-5
    leak = 1.0 - abs(pair) ** 2  # as `pulse` reports it
    assert abs(leak - (1 - math.cos(5 * SQRT2 * math.pi) ** 2)) < 1e-12


@pytest.mark.parametrize("b", [10**299.7, 1e300, 1e306, 1e308])
def test_scheme2_at_a_huge_finite_blockade_is_the_blocked_gate(b):
    # stacked eigh drops the pair coupling from b ~ 4.7e299 and overflows
    # from ~6e306; shifts this large take the blocked closed form
    blocked = scheme2_cp_matrix(1.0, 10 * math.pi, math.inf).entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = scheme2_cp_matrix(1.0, 10 * math.pi, b).entries
    assert np.abs(got - blocked).max() <= 1e-15


def test_scheme2_without_blockade_fails():
    m = scheme2_cp_matrix(1.0, 10 * math.pi, 0.0).entries
    assert abs(m[3, 3] - 1.0) < 1e-12


def test_scheme2_ideal_area_gives_exact_cp():
    # sqrt(2)*theta/2 an odd multiple of pi closes the pair loop on -1
    theta = SQRT2 * math.pi
    assert abs(scheme2_cp_matrix(1.0, theta).entries[3, 3] + 1.0) < 1e-12


def test_scheme2_loss_scaling():
    m = scheme2_cp_matrix(0.49).entries
    assert abs(m[1, 1] + 0.7) < 1e-12
    assert abs(m[3, 3] - 0.49 * math.cos(5 * SQRT2 * math.pi)) < 1e-12


def test_scheme2_validation():
    with pytest.raises(ConfigError):
        scheme2_cp_matrix(-0.1)
    with pytest.raises(ConfigError):
        scheme2_cp_matrix(0.5, 0.0)


def test_fitted_pair_frequency():
    assert abs(fit_pair_frequency(math.inf) - SQRT2) < 1e-9
    for b in (100.0, 300.0, 1000.0):
        assert abs(fit_pair_frequency(b) / SQRT2 - 1.0) < 0.01


def fit_by_propagators(b_over_rabi, n_samples):
    """The fit from one pair propagator per sample, as it was first written."""
    xs = np.linspace(0.0, 1.5 * math.pi / SQRT2, n_samples)
    pop = np.array([abs(one_pair(x, b_over_rabi)[0, 0]) ** 2 for x in xs])
    i = int(np.argmin(pop))
    y0, y1, y2 = pop[i - 1], pop[i], pop[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    return math.pi / (xs[i] + shift * (xs[1] - xs[0]))


@pytest.mark.parametrize("b", [math.inf, 300.0, 20.0, 3.0])
def test_one_eigh_fit_matches_the_fit_by_propagators(b):
    assert abs(fit_pair_frequency(b, n_samples=301) - fit_by_propagators(b, 301)) < 1e-12


def test_fit_needs_an_interior_minimum():
    with pytest.raises(ConfigError):
        fit_pair_frequency(math.inf, n_samples=2)
    with pytest.raises(ConfigError, match="NaN"):
        fit_pair_frequency(math.nan)

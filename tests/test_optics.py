import math

import numpy as np
import pytest

from paqsim import (
    ConfigError,
    HADAMARD,
    PHASE,
    X90,
    hwp,
    qwp,
)
from paqsim.optics import PLATES, _jones_stack, plate_gates

from _oracles import distance_up_to_global_phase


def jones_reference(delta, theta):
    """One plate by the textbook product, 2x2 at a time."""
    th = np.deg2rad(theta)
    c, s = np.cos(th), np.sin(th)
    rot = np.array([[c, -s], [s, c]])
    return np.array(rot @ np.diag([1.0, np.exp(1j * delta)]) @ rot.T, dtype=complex)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@pytest.mark.parametrize("delta", [0.0, np.pi / 2, np.pi, 1.234, 5.0])
@pytest.mark.parametrize("theta", [0.0, 17.3, 45.0, 90.0, 122.5, -30.0])
def test_jones_matrix_is_unitary(delta, theta):
    j = _jones_stack([delta], [theta])[0].entries
    assert np.abs(j.conj().T @ j - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("theta", [0.0, 10.0, 45.0, 91.5])
def test_plate_half_turn_symmetry(theta):
    a = _jones_stack([np.pi / 2], [theta])[0].entries
    b = _jones_stack([np.pi / 2], [theta + 180.0])[0].entries
    assert np.abs(a - b).max() < 1e-12


def test_plate_gates_keep_the_bits_of_the_one_plate_product():
    rng = np.random.default_rng(4)
    angles = [0.0, -0.0, 45.0, 90.0, 1e300]
    angles += np.round(rng.uniform(0, 180, 300), 3).tolist() + rng.uniform(-1e4, 1e4, 300).tolist()
    plates = [(kind, a) for a in angles for kind in PLATES] + [("qwp", 45.0), ("hwp", -0.0)]
    gates = plate_gates(plates)
    assert len(gates) == len(plates)
    retardance = {"qwp": np.pi / 2, "hwp": np.pi}
    for (kind, angle), gate in zip(plates, gates):
        want = jones_reference(retardance[kind], angle)
        assert same_bits(gate.entries, want)
        assert same_bits(PLATES[kind](angle).entries, want)
        assert not gate.entries.flags.writeable
    for delta in rng.uniform(-10, 10, 50):
        theta = float(rng.uniform(-360, 360))
        assert same_bits(_jones_stack([delta], [theta])[0].entries, jones_reference(delta, theta))
    assert plate_gates([]) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_plates_are_config_errors(bad):
    for delta, theta in ((np.pi / 2, bad), (bad, 30.0)):
        with pytest.raises(ConfigError, match="must be finite"):
            _jones_stack([delta], [theta])
    with pytest.raises(ConfigError, match="must be finite"):
        qwp(bad)
    with pytest.raises(ConfigError, match="must be finite"):
        plate_gates([("hwp", 10.0), ("qwp", bad)])


def test_qwp_at_90_is_the_phase_gate():
    assert distance_up_to_global_phase(qwp(90.0), PHASE) < 1e-12


def test_qwp_at_45_is_x90():
    assert distance_up_to_global_phase(qwp(45.0), X90) < 1e-12


def test_hwp_at_22p5_is_hadamard():
    # this one holds entrywise, not just up to phase
    assert np.abs(hwp(22.5).entries - HADAMARD.entries).max() < 1e-12


def test_distance_is_phase_blind():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(z)
    assert distance_up_to_global_phase(q, q) < 1e-13
    assert distance_up_to_global_phase(q, np.exp(1j * np.pi / 3) * q) < 1e-13


def test_distance_of_orthogonal_pair():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(distance_up_to_global_phase(np.eye(2), x) - 2.0) < 1e-12


def test_distance_rejects_shape_mismatch():
    with pytest.raises(ConfigError):
        distance_up_to_global_phase(np.eye(2), np.eye(4))

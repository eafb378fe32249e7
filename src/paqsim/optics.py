"""Jones calculus for wave plates acting on polarization qubits.

Convention: a retarder with retardance delta and fast axis at angle
theta (degrees from the H axis) has Jones matrix

    J(delta, theta) = R(theta) @ diag(1, e^{+i delta}) @ R(-theta)

with R the usual 2x2 rotation. The +i sign in the fast-axis frame is
what makes a QWP at theta=90 deg act as diag(1, -i) on (H, V), the
phase gate the CNOT decomposition needs; textbook conventions differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .qstate import GateOpMatrix

QUARTER_WAVE = np.pi / 2
HALF_WAVE = np.pi


@dataclass(frozen=True)
class WavePlate:
    retardance: float  # radians: pi/2 quarter-wave, pi half-wave
    fast_axis_deg: float  # degrees from the H-polarization axis


def jones_matrix(plate: WavePlate) -> GateOpMatrix:
    th = np.deg2rad(plate.fast_axis_deg)
    c, s = np.cos(th), np.sin(th)
    rot = np.array([[c, -s], [s, c]])
    ret = np.diag([1.0, np.exp(1j * plate.retardance)])
    return GateOpMatrix(rot @ ret @ rot.T)


def qwp(fast_axis_deg: float) -> GateOpMatrix:
    return jones_matrix(WavePlate(QUARTER_WAVE, fast_axis_deg))


def hwp(fast_axis_deg: float) -> GateOpMatrix:
    return jones_matrix(WavePlate(HALF_WAVE, fast_axis_deg))


# the wave-plate vocabulary of .qc gates and .qtl pmu statements
PLATES = {"qwp": qwp, "hwp": hwp}


def distance_up_to_global_phase(a, b) -> float:
    """min over phi of the Frobenius norm ||A - e^{i phi} B||.

    Computed by aligning the phase first and differencing directly;
    the expanded sqrt(|A|^2+|B|^2-2|tr|) form loses half the digits to
    cancellation when A and B agree.
    """
    ma = a.entries if isinstance(a, GateOpMatrix) else np.asarray(a, dtype=complex)
    mb = b.entries if isinstance(b, GateOpMatrix) else np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ConfigError(f"shape mismatch {ma.shape} vs {mb.shape}")
    t = np.trace(ma.conj().T @ mb)
    if abs(t) == 0.0:
        # orthogonal in the Frobenius sense: every phase is equally far
        return float(np.sqrt(np.linalg.norm(ma) ** 2 + np.linalg.norm(mb) ** 2))
    return float(np.linalg.norm(ma - (np.conj(t) / abs(t)) * mb))

"""Rabi pulse propagators, blockade models, and effective CP matrices.

All pulses are parameterized by area theta = Omega*t and dimensionless
detuning Delta/Omega, so Omega never appears explicitly. The two-level
Hamiltonian convention is

    H = (Omega/2) sigma_x + (Delta/2)(I - sigma_z)

on the (g2, r) pair, i.e. the ground state sits at zero energy. A
resonant pi pulse therefore maps g2 -> -i r, and two pi pulses give an
overall -1, the sign the CP protocols rely on. An infinite detuning
(perfect blockade) returns the identity: the blockaded limit. Propagators
are unitary by construction and skip the gate check, as plates do.

The 4x4 CP matrices are single post-selected branches on the photonic
basis (|00>, |01>, |10>, |11>): memory loss contributes sqrt(eta) per
stored photon and Rydberg leakage is discarded into the loss budget (a
population stranded in r cannot be read out as a V photon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .qstate import GateOpMatrix, _trusted

# blockade shift treated as operative for reach purposes once B/Omega
# reaches this value (pulse leakage <= 1e-4)
REACH_SHIFT_OVER_RABI = 100.0

# shifts per stacked eigh in `pair_propagators`
EIGH_BLOCK = 1 << 14


def _distance(distance_um) -> np.ndarray:
    """The one check on a blockade distance, or an array of them; NaN would
    silently mean no blockade and a negative one full blockade."""
    d = np.asarray(distance_um, dtype=float)
    ok = (d >= 0) & (d < math.inf)
    if not ok.all():
        bad = d[~ok][0]
        raise ConfigError(f"blockade distance must be finite and >= 0, got {bad}")
    return d


def _area(area: float) -> None:
    """The one check on a pulse area."""
    if not 0 <= area < math.inf:
        raise ConfigError(f"pulse area must be finite and >= 0, got {area}")


def _drive(detuning_over_rabi, phase: float) -> None:
    """The one check on a laser drive, with one detuning or an array of them;
    an infinite detuning means no drive."""
    if np.isnan(detuning_over_rabi).any():
        raise ConfigError("pulse detuning must not be NaN")
    if not math.isfinite(phase):
        raise ConfigError(f"pulse phase must be finite, got {phase}")


def _eta(eta: float) -> None:
    """The one check on a memory efficiency."""
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"eta must be in [0,1], got {eta}")


def _blockade_shift(b_over_rabi: float) -> None:
    """The one check on a blockade shift B/Omega."""
    if not b_over_rabi >= 0:
        raise ConfigError(f"blockade shift must be >= 0, got {b_over_rabi}")


@dataclass(frozen=True)
class PulseSpec:
    area: float  # radians, Omega*t
    detuning_over_rabi: float = 0.0
    phase: float = 0.0  # laser phase

    def __post_init__(self):
        _area(self.area)
        _drive(self.detuning_over_rabi, self.phase)


@dataclass(frozen=True)
class Perfect:
    """Unconditional blockade: any pair of excitations is fully suppressed."""

    def shift_over_rabi(self, distance_um):
        return np.full(_distance(distance_um).shape, math.inf)[()]

    def reach_um(self) -> float:
        return math.inf


@dataclass(frozen=True)
class HardSphere:
    """Full blockade inside `radius_um`, none beyond (<= is inside)."""

    radius_um: float = 40.0

    def __post_init__(self):
        if not self.radius_um > 0:
            raise ConfigError(f"blockade radius must be > 0, got {self.radius_um}")

    def shift_over_rabi(self, distance_um):
        return np.where(_distance(distance_um) <= self.radius_um, math.inf, 0.0)[()]

    def reach_um(self) -> float:
        return self.radius_um


@dataclass(frozen=True)
class PowerLaw:
    """Van der Waals shift B = C6 / r^6, in units of the reference Rabi."""

    c6_mhz_um6: float
    reference_rabi_mhz: float = 1.0

    def __post_init__(self):
        if not (self.c6_mhz_um6 > 0 and self.reference_rabi_mhz > 0):
            raise ConfigError("C6 and reference Rabi must be > 0")

    def shift_over_rabi(self, distance_um):
        d = _distance(distance_um)
        shifts = [self._shift(r) for r in d.ravel().tolist()]
        return np.array(shifts, dtype=float).reshape(d.shape)[()]

    def _shift(self, r: float) -> float:
        # r**6 on a Python float is libm pow, whose bits numpy's vectorised
        # power does not reproduce; it underflows to 0 or raises past the range
        try:
            r6 = r**6
        except OverflowError:
            return 0.0
        return self.c6_mhz_um6 / r6 / self.reference_rabi_mhz if r6 else math.inf

    def reach_um(self) -> float:
        # distance where B/Omega falls to the operative threshold
        return (self.c6_mhz_um6 / (self.reference_rabi_mhz * REACH_SHIFT_OVER_RABI)) ** (1 / 6)


# shift_over_rabi maps a distance, or an array of them, to B/Omega of that shape
BlockadeModel = Perfect | HardSphere | PowerLaw


def two_level_propagator(pulse: PulseSpec) -> GateOpMatrix:
    """Exact propagator for one pulse on the (g2, r) two-level system."""
    theta = pulse.area
    dt = pulse.detuning_over_rabi * theta  # Delta * t
    alpha = dt / 2.0
    vx = (theta / 2.0) * math.cos(pulse.phase)
    vy = (theta / 2.0) * math.sin(pulse.phase)
    vz = -dt / 2.0
    v = math.sqrt(vx * vx + vy * vy + vz * vz)
    if v == math.inf:  # the squares overflow; the norm may not
        v = math.hypot(vx, vy, vz)
    if not 0.0 < v < math.inf:  # no drive, or an infinite (or NaN: inf * 0) Delta * t
        return _trusted(np.eye(2, dtype=complex)[None])[0]
    c, s = math.cos(v), math.sin(v)
    sv = np.array(
        [[vz, vx - 1j * vy], [vx + 1j * vy, -vz]], dtype=complex
    ) / v
    u = np.exp(-1j * alpha) * (c * np.eye(2) - 1j * s * sv)
    return _trusted(u[None])[0]


def pair_propagators(area: float, shifts, detunings, phase: float = 0.0) -> np.ndarray:
    """3x3 propagators on {g2g2, symmetric single-r, rr}, one per
    (shift, detuning), as an (S, 3, 3) stack.

    The symmetric ladder couples with matrix element sqrt(2)*Omega/2
    (collective enhancement); rr carries the blockade shift on top of
    twice the laser detuning. An infinite shift reduces exactly to the
    two-level {g2g2, sym} system at effective area sqrt(2)*area, with
    rr frozen; an infinite detuning leaves every level alone (identity).
    `detunings` is one value or one per shift. Finite pairs come from
    stacked eigh calls, which give each the bits of a call on its own;
    each infinite shift is one closed-form call, so pass distinct pairs.
    """
    shifts, det = _pair_drive(area, shifts, detunings, phase)
    out = np.empty(shifts.shape + (3, 3), dtype=complex)
    idle, blocked = np.isinf(det), np.isinf(shifts)
    out[idle | blocked] = np.eye(3)
    for k in np.flatnonzero(blocked & ~idle):
        out[k, :2, :2] = two_level_propagator(
            PulseSpec(math.sqrt(2) * area, float(det[k]) / math.sqrt(2), phase)
        ).entries
    free = np.flatnonzero(~(idle | blocked))
    for lo in range(0, len(free), EIGH_BLOCK):  # blocks bound the temporaries
        k = free[lo : lo + EIGH_BLOCK]
        w, vecs = np.linalg.eigh(_pair_ladders(area, shifts[k], det[k], phase))
        out[k] = (vecs * np.exp(-1j * w)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    return out


def _pair_drive(area: float, shifts, detunings, phase: float):
    """Checked (shifts, detunings) arrays of one shape for the pair ladder."""
    _area(area)
    shifts = np.asarray(shifts, dtype=float)
    det = np.broadcast_to(np.asarray(detunings, dtype=float), shifts.shape)
    if np.isnan(shifts).any():
        raise ConfigError("pair blockade shift must not be NaN")
    _drive(det, phase)
    return shifts, det


def _pair_ladders(area: float, shifts, det, phase: float) -> np.ndarray:
    """H t on {g2g2, sym, rr}, one (3, 3) per (shift, detuning)."""
    g = (math.sqrt(2) / 2.0) * area * np.exp(-1j * phase)
    ht = np.zeros((len(shifts), 3, 3), dtype=complex)
    ht[:, 0, 1] = ht[:, 1, 2] = g
    ht[:, 1, 0] = ht[:, 2, 1] = np.conj(g)
    ht[:, 1, 1] = det * area
    ht[:, 2, 2] = (2.0 * det + shifts) * area
    return ht


def scheme1_cp_matrix(
    eta: float,
    blockade_shift_over_rabi: float = math.inf,
    pulse_area_errors: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> GateOpMatrix:
    """Three-pulse CP branch: pi on control, 2pi on target, pi on control.

    The |11> entry is the product of the control two-pi-pulse factor and
    the blockaded-target 2pi factor (shift B/Omega as detuning); exact
    pulses with perfect blockade give diag(1,-1,-1,-1), and B=0 gives the
    +eta gate failure (the target 2pi completes and cancels the sign).
    """
    _eta(eta)
    _blockade_shift(blockade_shift_over_rabi)
    e1, e2, e3 = pulse_area_errors
    s = math.sqrt(eta)
    u1 = two_level_propagator(PulseSpec(math.pi * e1)).entries
    u3 = two_level_propagator(PulseSpec(math.pi * e3)).entries
    a_ctrl = (u3 @ u1)[0, 0]
    a_free = two_level_propagator(PulseSpec(2.0 * math.pi * e2)).entries[0, 0]
    a_blocked = two_level_propagator(
        PulseSpec(2.0 * math.pi * e2, blockade_shift_over_rabi)
    ).entries[0, 0]
    return GateOpMatrix(
        np.diag([1.0, s * a_free, s * a_ctrl, eta * a_ctrl * a_blocked])
    )


def scheme2_cp_matrix(
    eta: float, area: float = 10.0 * math.pi, b_over_rabi: float = math.inf
) -> GateOpMatrix:
    """Single-pulse CP branch: one area-theta pulse on the shared ensemble.

    Single excitations return with cos(theta/2); the blockaded pair
    oscillates at sqrt(2)*Omega and returns with cos(sqrt(2)*theta/2)
    under perfect blockade, -0.97517 at the default theta = 10*pi.
    """
    _eta(eta)
    if not area > 0:
        raise ConfigError(f"pulse area must be > 0, got {area}")
    _blockade_shift(b_over_rabi)
    s = math.sqrt(eta)
    single = two_level_propagator(PulseSpec(area)).entries[0, 0]
    pair = complex(pair_propagators(area, [b_over_rabi], 0.0)[0, 0, 0])
    return GateOpMatrix(np.diag([1.0, s * single, s * single, eta * pair]))

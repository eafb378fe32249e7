"""Jones calculus for wave plates acting on polarization qubits.

Convention: a retarder with retardance delta and fast axis at angle
theta (degrees from the H axis) has Jones matrix

    J(delta, theta) = R(theta) @ diag(1, e^{+i delta}) @ R(-theta)

with R the usual 2x2 rotation. The +i sign in the fast-axis frame is
what makes a QWP at theta=90 deg act as diag(1, -i) on (H, V), the
phase gate the CNOT decomposition needs; textbook conventions differ.

There is one plate path: `plate_gates` builds a list of (kind, angle)
plates in one array pass, as stacked 2x2 products, and `PLATES[kind]`
(`qwp`, `hwp`) is a stack of one. Each plate gets the bits of the 2x2
product on its own. A plate is unitary by construction, so its
GateOpMatrix skips the singular-value check; a non-finite angle is a
ConfigError.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .qstate import GateOpMatrix, _trusted

QUARTER_WAVE = np.pi / 2
HALF_WAVE = np.pi


def _jones_stack(retardance, fast_axis_deg) -> list[GateOpMatrix]:
    """J(delta, theta) for each pair of equal-length sequences, built as
    stacked 2x2 arrays; each plate gets the bits of a stack of one."""
    delta = np.asarray(retardance, dtype=float)
    th = np.deg2rad(np.asarray(fast_axis_deg, dtype=float))
    if not (np.isfinite(delta).all() and np.isfinite(th).all()):
        raise ConfigError("wave-plate retardance and angle must be finite")
    c, s = np.cos(th), np.sin(th)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    ret = np.zeros(rot.shape, dtype=complex)
    ret[:, 0, 0] = 1.0
    ret[:, 1, 1] = np.exp(1j * delta)
    # unitary by construction, so GateOpMatrix's checks are skipped
    return _trusted(rot @ ret @ rot.swapaxes(1, 2))


# the wave-plate vocabulary of .qc gates and .qtl pmu statements
_RETARDANCE = {"qwp": QUARTER_WAVE, "hwp": HALF_WAVE}


def plate_gates(plates) -> list[GateOpMatrix]:
    """The gate of each (kind, fast-axis angle) plate, from one array pass;
    each has the bits `PLATES[kind](angle)` gives."""
    return _jones_stack([_RETARDANCE[k] for k, _ in plates], [a for _, a in plates])


# fast-axis angle -> gate, one builder per plate kind
PLATES = {kind: lambda a, kind=kind: plate_gates([(kind, a)])[0] for kind in _RETARDANCE}
qwp, hwp = PLATES["qwp"], PLATES["hwp"]

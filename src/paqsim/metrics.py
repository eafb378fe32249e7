"""Fidelity and efficiency definitions for post-selected lossy gates.

Three definitions are shipped, because a single headline "gate fidelity"
number is ambiguous once loss enters:

  basis_avg      mean post-selected fidelity over computational basis inputs
  haar_exact     mean post-selected fidelity over Haar-random pure inputs,
                 by quadrature of its exact one-dimensional integral
  process        |tr(U^dag M)|^2 / (d * tr(M^dag M))

All of them equal 1 whenever M is proportional to U, and the CLI reports
all three. The Haar mean weighted by success probability, which is
(d * process + 1) / (d + 1) for unitary U, is a test oracle only.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, PostSelectionError
from .qstate import GateOpMatrix

_ZERO_NORM = 1e-300


def basis_avg_gate_fidelity(m: GateOpMatrix, u: GateOpMatrix) -> float:
    """Mean post-selected fidelity of M|b> against U|b> over basis states."""
    a, b = m.entries, u.entries
    if a.shape != b.shape:
        raise ConfigError("gate matrices must share a dimension")
    total = 0.0
    for col in range(a.shape[1]):
        out = a[:, col]
        norm = float(np.vdot(out, out).real)
        if norm <= _ZERO_NORM:
            raise PostSelectionError(
                f"basis input {col} is annihilated; basis average undefined"
            )
        total += abs(np.vdot(b[:, col], out)) ** 2 / norm
    return total / a.shape[1]


def efficiency_basis_avg(m: GateOpMatrix) -> float:
    """Mean success probability over basis inputs, ||M||_F^2 / d."""
    a = m.entries
    return float(np.sum(np.abs(a) ** 2) / a.shape[1])


def _overlap(m: GateOpMatrix, u: GateOpMatrix, what: str):
    """A = U^dag M and tr(M^dag M), checked as both trace formulas need."""
    a, b = m.entries, u.entries
    if a.shape != b.shape:
        raise ConfigError("gate matrices must share a dimension")
    denom = float(np.sum(np.abs(a) ** 2))
    if denom <= _ZERO_NORM:
        raise PostSelectionError(f"null operation has no {what}")
    return b.conj().T @ a, denom


def process_fidelity_postselected(m: GateOpMatrix, u: GateOpMatrix) -> float:
    t, denom = _overlap(m, u, "process fidelity")
    return float(abs(np.trace(t)) ** 2 / (t.shape[0] * denom))


# double-exponential rule on [0, inf): x = exp(pi/2 sinh u), u = k/16, |u| <= 6
_DE_U = np.arange(-96, 97) / 16.0
_DE_X = np.exp(0.5 * np.pi * np.sinh(_DE_U))
_DE_W = _DE_X * np.cosh(_DE_U) * (0.5 * np.pi / 16.0)


def haar_exact_gate_fidelity(m: GateOpMatrix, u: GateOpMatrix) -> float:
    """Haar-average post-selected fidelity of M against U, by quadrature.

    With z = g/|g| for complex Gaussian g, 1/x = int_0^inf e^{-sx} ds and
    Wick's theorem (Magnus, Ann. Econ. Stat. 4, 95 (1986)):
    F = (1/d) int_0^inf det S [|tr(T S)|^2 + tr(T S T^dag S)] ds with
    T = U^dag M and S = (I + s M^dag M)^-1, diagonal in the eigenbasis of
    M^dag M. A fixed double-exponential rule (Takahasi & Mori, Publ. RIMS
    9, 721 (1974)) sums it, with s scaled by the largest eigenvalue and
    eigenvalues rounded below 0 clamped to 0, so every 1 + s w stays > 0.
    """
    t, _ = _overlap(m, u, "Haar average fidelity")
    w, v = np.linalg.eigh(m.entries.conj().T @ m.entries)
    top = w[-1]
    t = v.conj().T @ t @ v
    sigma = 1.0 / (1.0 + _DE_X[:, None] * np.maximum(w / top, 0.0))
    lin = np.abs(sigma @ np.diagonal(t)) ** 2
    quad = np.sum((sigma @ (np.abs(t) ** 2).T) * sigma, axis=1)
    integrand = np.prod(sigma, axis=1) * (lin + quad)
    return float(_DE_W @ integrand / (t.shape[0] * top))

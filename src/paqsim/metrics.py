"""Fidelity and efficiency definitions for post-selected lossy gates.

Five definitions are shipped, because a single headline "gate fidelity"
number is ambiguous once loss enters:

  basis_avg      mean post-selected fidelity over computational basis inputs
  haar_exact     mean post-selected fidelity over Haar-random pure inputs,
                 by quadrature of its exact one-dimensional integral
  haar_avg       Monte Carlo estimate of the same mean, kept as its oracle
  haar_weighted  Haar mean weighted by success probability, in closed form:
                 E|<Uz|Mz>|^2 / E<Mz|Mz> = (|tr A|^2 + tr(A A^dag))
                 / ((d+1) tr(M^dag M)) with A = U^dag M, which is
                 (d * process + 1) / (d + 1) for unitary U
  process        |tr(U^dag M)|^2 / (d * tr(M^dag M))

All of them equal 1 whenever M is proportional to U. The CLI reports
basis_avg, haar_exact and process.

The Monte Carlo average is evaluated in fixed-size chunks, each with its
own counter-derived generator seeded by (seed, chunk index), and the
chunk partial sums are combined in index order, so the result is
bit-identical for a given (samples, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PostSelectionError
from .qstate import GateOpMatrix, StateVector

HAAR_CHUNK = 8192

_ZERO_NORM = 1e-300


@dataclass(frozen=True)
class FidelityReport:
    definition: str
    value: float
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None


def state_fidelity_postselected(out: StateVector, ideal: StateVector) -> float:
    """|<ideal|out>|^2 / <out|out>: attenuation is invisible, phase is not."""
    if out.n_qubits != ideal.n_qubits:
        raise ConfigError("states must have the same qubit count")
    norm = out.norm_sq
    if norm <= _ZERO_NORM:
        raise PostSelectionError("output branch has zero norm; nothing survives")
    overlap = np.vdot(ideal.amplitudes, out.amplitudes)
    return float(abs(overlap) ** 2 / norm)


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


def haar_weighted_gate_fidelity(m: GateOpMatrix, u: GateOpMatrix) -> float:
    """Exact success-weighted Haar average of M against any U.

    Nielsen, Phys. Lett. A 303, 249 (2002): the Haar means of
    |<Uz|Mz>|^2 and <Mz|Mz> are (|tr A|^2 + tr(A A^dag)) / (d(d+1)) and
    tr(M^dag M) / d, with A = U^dag M.
    """
    t, denom = _overlap(m, u, "success-weighted fidelity")
    num = abs(np.trace(t)) ** 2 + float(np.sum(np.abs(t) ** 2))
    return float(num / ((t.shape[0] + 1) * denom))


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


def _haar_chunk(a, b, seed, index, count):
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    d = a.shape[0]
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    z /= np.linalg.norm(z, axis=1)[:, None]
    out = z @ a.T
    ref = z @ b.T
    num = np.abs(np.einsum("ij,ij->i", ref.conj(), out)) ** 2
    den = np.einsum("ij,ij->i", out.conj(), out).real
    ok = den > _ZERO_NORM
    f = num[ok] / den[ok]
    return float(f.sum()), float((f * f).sum()), int(ok.sum())


def haar_avg_gate_fidelity(
    m: GateOpMatrix,
    u: GateOpMatrix,
    samples: int = 100_000,
    seed: int = 0,
) -> FidelityReport:
    """Monte Carlo Haar-average post-selected fidelity of M against U.

    Every input's normalized output fidelity has equal weight; see
    haar_weighted_gate_fidelity for the success-weighted average.
    """
    a, b = m.entries, u.entries
    if a.shape != b.shape:
        raise ConfigError("gate matrices must share a dimension")
    if samples < 100:
        raise ConfigError(f"need at least 100 samples, got {samples}")
    stats = [
        _haar_chunk(a, b, seed, i, min(HAAR_CHUNK, samples - start))
        for i, start in enumerate(range(0, samples, HAAR_CHUNK))
    ]
    sum_f = sum_f2 = 0.0
    n_ok = 0
    for f, f2, k in stats:
        sum_f += f
        sum_f2 += f2
        n_ok += k
    if n_ok == 0:
        raise PostSelectionError("every sample was annihilated")
    value = sum_f / n_ok
    var = max(sum_f2 / n_ok - value**2, 0.0)
    stderr = math.sqrt(var / max(n_ok - 1, 1))
    return FidelityReport("haar_avg", float(value), float(stderr), samples, seed)

"""Fidelity and efficiency definitions for post-selected lossy gates.

Four definitions are shipped, because a single headline "gate fidelity"
number is ambiguous once loss enters:

  basis_avg      mean post-selected fidelity over computational basis inputs
  haar_avg       Monte Carlo mean over Haar-random pure inputs
  haar_weighted  Haar mean weighted by success probability, in closed form:
                 E|<Uz|Mz>|^2 / E<Mz|Mz> = (|tr A|^2 + tr(A A^dag))
                 / ((d+1) tr(M^dag M)) with A = U^dag M, which is
                 (d * process + 1) / (d + 1) for unitary U
  process        |tr(U^dag M)|^2 / (d * tr(M^dag M))

All of them equal 1 whenever M is proportional to U. The CLI reports all
but haar_weighted.

The Haar average is evaluated in fixed-size chunks, each with its own
counter-derived generator seeded by (seed, chunk index), and the chunk
partial sums are combined in index order. The result is therefore
bit-identical for a given (samples, seed) no matter how many worker
threads run the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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


def worker_count(n_threads: int | None = None, n_tasks: int | None = None) -> int:
    """Resolve the worker bound (PAQSIM_THREADS when unset), capped by CPUs and tasks."""
    if n_threads is None:
        raw = os.environ.get("PAQSIM_THREADS", "").strip()
        if not raw:
            return 1
        try:
            n_threads = int(raw)
        except ValueError:
            raise ConfigError(
                f"PAQSIM_THREADS must be an integer, got {raw!r}"
            ) from None
    bound = os.cpu_count() or 1
    if n_tasks is not None:
        bound = min(bound, n_tasks)
    return max(1, min(n_threads, bound))


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
    n_threads: int | None = None,
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
    counts = [
        min(HAAR_CHUNK, samples - start) for start in range(0, samples, HAAR_CHUNK)
    ]
    workers = worker_count(n_threads, len(counts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(
                pool.map(
                    lambda ic: _haar_chunk(a, b, seed, ic[0], ic[1]),
                    enumerate(counts),
                )
            )
    else:
        stats = [_haar_chunk(a, b, seed, i, c) for i, c in enumerate(counts)]

    # reduce in chunk order: identical result for any worker count
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

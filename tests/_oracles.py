"""Test oracles the package itself never runs.

The CLI reports `paqsim.metrics.haar_exact_gate_fidelity`, a quadrature
of an exact integral; the Monte Carlo average below is its independent
check. `haar_weighted_gate_fidelity` is the closed-form Haar average
weighted by success probability, which no command reports.
`fit_pair_frequency` measures the sqrt(2)-enhanced pair oscillation from
the ladder Hamiltonian that `paqsim.pulses.pair_propagators`
exponentiates, so the ladder is written once. `apply_gate` is a one-op `evolve`. `ghz_state`,
`state_fidelity_postselected` and `distance_up_to_global_phase` are the
plain definitions the gate and plate tests check against; `ghz_dense_eval`
computes its fidelity inline. `collective_state` builds an atom-engine
state from a {configuration: amplitude} dict, cleaned by the dict engine.

The Monte Carlo average is evaluated in fixed-size chunks, each with its
own counter-derived generator seeded by (seed, chunk index), and the
chunk partial sums are combined in index order, so the result is
bit-identical for a given (samples, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import _dict_memory
from paqsim.errors import ConfigError, PostSelectionError
from paqsim.gates import _ghz_amplitudes, _ghz_size
from paqsim.memory import LEVELS, CollectiveState
from paqsim.metrics import _ZERO_NORM, _overlap
from paqsim.pulses import _pair_drive, _pair_ladders
from paqsim.qstate import GateOpMatrix, StateVector, evolve

HAAR_CHUNK = 8192


def apply_gate(state: StateVector, gate: GateOpMatrix, targets) -> StateVector:
    return evolve(state, [(gate, targets)])


def ghz_state(n: int) -> StateVector:
    _ghz_size(n)
    return StateVector(n, _ghz_amplitudes(n))


def state_fidelity_postselected(out: StateVector, ideal: StateVector) -> float:
    """|<ideal|out>|^2 / <out|out>: attenuation is invisible, phase is not."""
    if out.n_qubits != ideal.n_qubits:
        raise ConfigError("states must have the same qubit count")
    norm = out.norm_sq
    if norm <= _ZERO_NORM:
        raise PostSelectionError("output branch has zero norm; nothing survives")
    overlap = np.vdot(ideal.amplitudes, out.amplitudes)
    return float(abs(overlap) ** 2 / norm)


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


def collective_state(mapping) -> CollectiveState:
    """The state a {configuration: amplitude} dict describes, as the dict
    engine cleans it (canonical configurations, pruned, at most two
    excitations); atoms and pairs take rows in first-seen order, and sums
    run in the dict's order."""
    clean = _dict_memory.CollectiveState(dict(mapping)).amplitudes
    one = {c[0]: a for c, a in clean.items() if len(c) == 1}
    two = {c: a for c, a in clean.items() if len(c) == 2}
    rows = {j: k for k, j in enumerate(dict.fromkeys(j for j, _ in one))}
    pairs = {p: k for k, p in enumerate(dict.fromkeys((i, j) for (i, _), (j, _) in two))}
    order = [2 * rows[j] + LEVELS.index(lvl) for j, lvl in one]
    single = np.zeros((len(rows), 2), dtype=complex)
    single.flat[order] = list(one.values())
    slots = [4 * pairs[i, j] + LEVELS.index(li) + 2 * LEVELS.index(lj)
             for (i, li), (j, lj) in two]
    pair = np.zeros((len(pairs), 4), dtype=complex)
    pair.flat[slots] = list(two.values())
    atoms = np.array(list(rows), dtype=np.intp)
    index = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
    return CollectiveState._of(clean.get((), 0j), atoms, single, index, pair,
                               np.array(order, dtype=np.intp))


@dataclass(frozen=True)
class FidelityReport:
    definition: str
    value: float
    stderr: float | None = None
    samples: int | None = None
    seed: int | None = None


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


def haar_weighted_gate_fidelity(m: GateOpMatrix, u: GateOpMatrix) -> float:
    """Exact success-weighted Haar average of M against any U.

    Nielsen, Phys. Lett. A 303, 249 (2002): the Haar means of
    |<Uz|Mz>|^2 and <Mz|Mz> are (|tr A|^2 + tr(A A^dag)) / (d(d+1)) and
    tr(M^dag M) / d, with A = U^dag M.
    """
    t, denom = _overlap(m, u, "success-weighted fidelity")
    num = abs(np.trace(t)) ** 2 + float(np.sum(np.abs(t) ** 2))
    return float(num / ((t.shape[0] + 1) * denom))


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


def fit_pair_frequency(b_over_rabi: float, n_samples: int = 3001) -> float:
    """Fit the pair oscillation frequency in units of Omega.

    Locates the first minimum of the pair ground population over a
    window slightly longer than half a sqrt(2)-enhanced cycle and
    refines it parabolically; a perfectly blockaded pair fits sqrt(2).
    H t is the area times the area-1 ladder of `pair_propagators`, so one
    eigh of that ladder gives every sample; an infinite shift freezes rr.
    """
    shifts, det = _pair_drive(1.0, [b_over_rabi], 0.0, 0.0)
    ladder = _pair_ladders(1.0, shifts, det, 0.0)[0]
    w, vecs = np.linalg.eigh(ladder[:2, :2] if math.isinf(b_over_rabi) else ladder)
    x_max = 1.5 * math.pi / math.sqrt(2)
    xs = np.linspace(0.0, x_max, n_samples)
    # <g2g2| V e^{-i w x} V^dag |g2g2> for every sample x at once
    pop = np.abs(np.exp(-1j * np.outer(xs, w)) @ np.abs(vecs[0]) ** 2) ** 2
    i = int(np.argmin(pop))
    if i == 0 or i == n_samples - 1:
        raise ConfigError("no interior population minimum in the fit window")
    # parabola through the three points around the sampled minimum
    y0, y1, y2 = pop[i - 1], pop[i], pop[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    x_min = xs[i] + shift * (xs[1] - xs[0])
    return math.pi / x_min

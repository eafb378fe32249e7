"""Single-atom-resolved simulation of ensemble quantum memories.

A stored photon is a collective spin wave: a superposition over which
atom sits in |g2>, with per-atom phases phi_j = k.r_j recording the
photon momentum. A configuration is a tuple of (atom_index, level)
pairs sorted by index, level "g2" or "r"; the empty tuple is the vacuum
(every atom in g1). At most two excitations are tracked, which covers
one or two stored photons and keeps the basis O(N^2).

A `CollectiveState` keeps the vacuum amplitude, K atoms (index array)
with a (K, 2) array of [g2, r] amplitudes, and P pairs i < j ((P, 2)
index array) with a (P, 4) array of [gg, rg, gr, rr] amplitudes, first
level on atom i; absent configurations are zeros. Each operation is one
array operation per sector with one propagator per distinct (shift,
detuning), and keeps the bits of the dict engine it replaced (now a test
oracle): complex products are formed from real parts (numpy's vector
complex multiply can fuse multiply-adds, its scalar one does not); sums run
left to right in the dict's insertion order (`np.cumsum`, `np.add.at`,
`CollectiveState.order`); |a|^2 is hypot squared by libm pow, as in
`abs(a) ** 2`; distances sum their squares in the order `np.linalg.norm`
does; propagators come from a stacked `eigh` and act by a stacked
`np.matmul(u, x[..., None])`.

Writes are ideal; the store-retrieve efficiency eta enters once, as
sqrt(eta) on the retrieval amplitude, and Rydberg pulses are exactly
unitary on this basis. Reading is post-selected on the photon leaving in
the phase-matched mode: components holding a Rydberg excitation cannot
emit and their weight belongs to the loss budget. For a doubly-excited
state the first retrieval returns the mode-annihilated remainder, whose
norm can exceed 1 when both photons share a collective mode (bosonic
stimulation); the protocols store them in distinct wavevector modes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .errors import (
    ConfigError,
    EmptyMemoryError,
    MemoryCapacityError,
)
from .pulses import BlockadeModel, PulseSpec, _eta, pair_propagators, two_level_propagator
from .qstate import GateOpMatrix, _as_index

Config = tuple[tuple[int, str], ...]
LEVELS = ("g2", "r")

# amplitudes below this are dropped when pruning a state
PRUNE_TOL = 1e-15

# a branch counts as Rydberg-occupied above this population
RYDBERG_PRESENCE_TOL = 1e-9

# largest C(N,2) a second write may build, so N <= 2000 atoms (80 B per
# pair); `micro write-write-pi-read-read --atoms 2000` peaks at 653 MiB RSS
# (2.2-3.0 s) under perfect blockade and 890 MiB (8-13 s) under c6:100, on a
# 2 vCPU x86-64 host
MAX_PAIRS = 1_999_000

# (atom, external atom) distances per block in `_farthest_external`
FAR_BLOCK = 1 << 16

INV_SQRT2 = 1.0 / math.sqrt(2.0)
_NO_PAIRS = np.zeros((0, 2), dtype=np.intp)
_NO_PAIR = np.zeros((0, 4), dtype=complex)


@dataclass(frozen=True)
class EnsembleConfig:
    """Atom positions (micrometers) and the photon wavevector (rad/um)."""

    positions: np.ndarray
    wavevector: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        k = np.asarray(self.wavevector, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ConfigError(
                f"positions must be an (N,3) array with N >= 1, got shape {pos.shape}"
            )
        if k.shape != (3,):
            raise ConfigError(f"wavevector must be a 3-vector, got shape {k.shape}")
        if not (np.isfinite(pos).all() and np.isfinite(k).all()):
            raise ConfigError("positions and wavevector must be finite")
        pos.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "wavevector", k)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def phases(self, wavevector: np.ndarray | None = None) -> np.ndarray:
        """phi_j = k.r_j for every atom, against the given or native k."""
        k = self.wavevector if wavevector is None else np.asarray(wavevector, float)
        return self.positions @ k


def gaussian_cloud(n_atoms: int, sigma_um: float, seed: int | None = None) -> np.ndarray:
    """Sample isotropic Gaussian atom positions, (N,3) in micrometers."""
    if _as_index(n_atoms, "atom count") < 1:
        raise ConfigError(f"need at least one atom, got {n_atoms}")
    if not 0 <= sigma_um < math.inf:
        raise ConfigError(f"cloud sigma must be finite and >= 0, got {sigma_um}")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, abs(sigma_um), size=(n_atoms, 3))  # numpy refuses -0.0


def _canonical(config) -> Config:
    out = tuple(sorted((_as_index(i, "atom index"), str(lvl)) for i, lvl in config))
    for k, (i, lvl) in enumerate(out):
        if lvl not in LEVELS:
            raise ConfigError(f"unknown level {lvl!r} in configuration")
        if i < 0:
            raise ConfigError(f"atom index {i} is negative")
        if k and out[k - 1][0] == i:
            raise ConfigError(f"atom {i} appears twice in one configuration")
    return out


def _cmul(a, b) -> np.ndarray:
    """a * b rounded as numpy's scalar complex product (no fused multiply-add)."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _square_sum(amps: np.ndarray) -> float:
    """sum(abs(a) ** 2 for a in amps), rounded as Python rounds it."""
    mags = np.hypot(amps.real, amps.imag).tolist()
    return float(sum(map(math.pow, mags, repeat(2.0))))


def _pruned(amps: np.ndarray) -> np.ndarray:
    """Zero, in place, what is at or below PRUNE_TOL; adding 0.0 makes a
    -0.0 part +0.0, as the dict's `get(c, 0.0) + a` did."""
    amps += 0.0
    amps[np.hypot(amps.real, amps.imag) <= PRUNE_TOL] = 0.0
    return amps


def _lengths(pos: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances |pos[i] - pos[j]| of (n, 3) positions, rounded as
    `np.linalg.norm(row)` is; a separation whose square overflows is refused."""
    with np.errstate(over="ignore"):
        v = pos[i] - pos[j]
        sq = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    if np.isinf(sq).any():
        raise ConfigError("atom separation too large: its square overflows")
    return np.sqrt(sq)


def _pick(values: np.ndarray, which: np.ndarray | None) -> np.ndarray:
    """values[which], skipping the gather where it is not needed: None
    means one value per row already, and a lone value is broadcast."""
    if which is None:
        return values
    if len(values) == 1:
        return values[:1]
    return values[which]


def _propagate(u: np.ndarray, which: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """Row k of x times the propagator u[which[k]]."""
    return np.matmul(_pick(u, which), x[..., None])[..., 0]


class CollectiveState:
    """Amplitudes over excitation configurations, one array per sector,
    built from a {configuration: amplitude} dict (`amplitudes` maps back),
    dropping amplitudes at or below PRUNE_TOL. `order` lists the flat
    indices of `single` in the order its sums run. Read-only."""

    def __init__(self, amplitudes: Mapping | None = None):
        clean: dict[Config, complex] = {}
        for config, amp in (amplitudes or {}).items():
            c = _canonical(config)
            if len(c) > 2:
                raise MemoryCapacityError(
                    f"configuration {c} exceeds the two-excitation cap"
                )
            if abs(amp) > PRUNE_TOL:
                clean[c] = clean.get(c, 0.0) + complex(amp)
        one = {c[0]: a for c, a in clean.items() if len(c) == 1}
        two = {c: a for c, a in clean.items() if len(c) == 2}
        rows = {j: k for k, j in enumerate(dict.fromkeys(j for j, _ in one))}
        ij = dict.fromkeys((i, j) for (i, _), (j, _) in two)
        pairs = {p: k for k, p in enumerate(ij)}
        order = [2 * rows[j] + LEVELS.index(lvl) for j, lvl in one]
        single = np.zeros((len(rows), 2), dtype=complex)
        single.flat[order] = list(one.values())
        slots = [4 * pairs[i, j] + LEVELS.index(li) + 2 * LEVELS.index(lj)
                 for (i, li), (j, lj) in two]
        pair = np.zeros((len(pairs), 4), dtype=complex)
        pair.flat[slots] = list(two.values())
        atoms = np.array(list(rows), dtype=np.intp)
        index = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
        order = np.array(order, dtype=np.intp)
        self._set(clean.get((), 0j), atoms, single, index, pair, order)

    @classmethod
    def _of(cls, *sectors, **kw) -> CollectiveState:
        return cls.__new__(cls)._set(*sectors, **kw)

    def _set(self, vacuum, atoms, single, pairs=_NO_PAIRS, pair=_NO_PAIR, order=None):
        order = np.arange(single.size) if order is None else order
        for a in (atoms, single, pairs, pair, order):
            a.setflags(write=False)
        self.vacuum, self.atoms, self.single = complex(vacuum), atoms, single
        self.pairs, self.pair, self.order = pairs, pair, order
        return self

    def __repr__(self) -> str:
        return f"CollectiveState({dict(self.amplitudes)!r})"

    @cached_property
    def amplitudes(self) -> Mapping[Config, complex]:
        """Read-only {configuration: amplitude}, nonzero entries, sorted."""
        q1, q2 = np.flatnonzero(self.single), np.flatnonzero(self.pair)
        vac = np.full(1 if self.vacuum else 0, -1)  # -1: no atom
        none = np.full(len(q1), -1)
        a1 = np.concatenate((vac, self.atoms[q1 // 2], self.pairs[q2 // 4, 0]))
        l1 = np.concatenate((vac, q1 % 2, q2 % 2))
        a2 = np.concatenate((vac, none, self.pairs[q2 // 4, 1]))
        l2 = np.concatenate((vac, none, q2 // 2 % 2))
        amp = np.concatenate(
            (np.full(len(vac), self.vacuum), self.single.flat[q1], self.pair.flat[q2])
        )
        rank = np.lexsort((l2, a2, l1, a1))
        out: dict[Config, complex] = {}
        for i, li, j, lj, a in zip(*(x[rank].tolist() for x in (a1, l1, a2, l2, amp))):
            if i < 0:
                out[()] = a
            elif j < 0:
                out[((i, LEVELS[li]),)] = a
            else:
                out[((i, LEVELS[li]), (j, LEVELS[lj]))] = a
        return MappingProxyType(out)

    def norm_sq(self) -> float:
        flat = ([self.vacuum], self.single.flat[self.order], self.pair.ravel())
        return _square_sum(np.concatenate(flat))

    def max_excitations(self) -> int:
        if self.pair.any():
            return 2
        return 1 if self.single.any() else 0

    def rydberg_population(self) -> float:
        r = self.order[self.order % 2 == 1]
        flat = (self.single.flat[r], self.pair[:, 1:].ravel())
        return _square_sum(np.concatenate(flat))


def vacuum_state() -> CollectiveState:
    return CollectiveState({(): 1.0})


def _check_atoms(state: CollectiveState, ensemble: EnsembleConfig) -> None:
    """Every atom a state holds must exist in the ensemble it is driven in."""
    n = ensemble.n_atoms
    for index in (state.atoms, state.pairs):
        if index.size and index.max() >= n:
            raise ConfigError(f"state holds atom {index.max()}, beyond n_atoms = {n}")


def _mode_amplitudes(ensemble: EnsembleConfig, wavevector=None) -> np.ndarray:
    ph = ensemble.phases(wavevector)
    return np.exp(1j * ph) / math.sqrt(ensemble.n_atoms)


def write_photon(
    ensemble: EnsembleConfig, existing: CollectiveState | None = None
) -> CollectiveState:
    """Store one photon as a collective g2 spin wave.

    Into vacuum this produces the uniform single-excitation state with
    amplitudes e^{i phi_j}/sqrt(N). Writing a second photon produces the
    symmetric pair state with amplitudes e^{i(phi_i - phi_j)}/sqrt(C(N,2)),
    scaled by the overlap of the existing state with the canonical
    single-excitation spin wave (mode mismatch shows up as attenuation).
    """
    n = ensemble.n_atoms
    mode = _mode_amplitudes(ensemble)
    if existing is None:
        existing = vacuum_state()
    _check_atoms(existing, ensemble)
    if existing.pair.any():
        raise MemoryCapacityError("memory already holds two excitations")
    if existing.single[:, 1].any():
        raise ConfigError("cannot store a photon while the memory is Rydberg-excited")

    kept = n if existing.vacuum else 0  # vacuum becomes a single excitation
    single = np.zeros((kept, 2), dtype=complex)
    single[:, 0] = _pruned(_cmul(existing.vacuum, mode[:kept]))
    g2 = existing.order  # its r entries are zero
    terms = _cmul(np.conj(mode[existing.atoms[g2 // 2]]), existing.single.flat[g2])
    overlap = np.cumsum(np.concatenate(([0j], terms)))[-1]
    if not abs(overlap) > 0.0:
        return CollectiveState._of(0j, np.arange(kept), single)
    if n < 2:
        raise MemoryCapacityError("single-atom memory cannot hold a second photon")
    count = math.comb(n, 2)
    if count > MAX_PAIRS:
        raise MemoryCapacityError(
            f"a second photon in {n} atoms needs C({n},2) = {count} pair "
            f"amplitudes, over the cap of {MAX_PAIRS}"
        )
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    ph = ensemble.phases()
    wave = np.exp(1j * (ph[pairs[:, 0]] - ph[pairs[:, 1]]))
    pair = np.zeros((count, 4), dtype=complex)
    pair[:, 0] = _pruned(_cmul(overlap, wave) / math.sqrt(count))
    return CollectiveState._of(0j, np.arange(kept), single, pairs, pair)


def read_photon(
    ensemble: EnsembleConfig,
    state: CollectiveState,
    eta: float,
    wavevector: np.ndarray | None = None,
) -> tuple[complex, CollectiveState]:
    """Retrieve one photon from the phase-matched mode.

    Returns (amplitude, remaining). For states with at most one
    excitation the amplitude is sqrt(eta) times the overlap with the
    mode spin wave and the remaining state is vacuum. For two-excitation
    states the amplitude is sqrt(eta) times the norm of the
    mode-annihilated state and the remaining state carries the phase.
    """
    _eta(eta)
    _check_atoms(state, ensemble)
    if not (state.single[:, 0].any() or state.pair[:, :3].any()):
        raise EmptyMemoryError("no g2 excitation to read out")
    m = np.conj(_mode_amplitudes(ensemble, wavevector))
    vac = 2 * ensemble.n_atoms  # slot 2j + level holds what is left on atom j

    # annihilate every g2 in the dict's order: a single leaves the vacuum,
    # gg loses atom i and then atom j, rg loses j, gr loses i
    g2 = state.order[state.order % 2 == 0]
    rest = np.zeros(vac + 1, dtype=complex)
    terms = _cmul(m[state.atoms[g2 // 2]], state.single.flat[g2])
    np.add.at(rest, np.full(len(g2), vac), terms)
    if state.max_excitations() <= 1:
        return math.sqrt(eta) * rest[vac], vacuum_state()
    (i, j), x = state.pairs.T, state.pair
    present = (x != 0)[:, [0, 0, 1, 2]]
    slots = np.stack([2 * j, 2 * i, 2 * i + 1, 2 * j + 1], axis=1)[present]
    terms = np.stack([_cmul(m[i], x[:, 0]), _cmul(m[j], x[:, 0]),
                      _cmul(m[j], x[:, 1]), _cmul(m[i], x[:, 2])], axis=1)
    np.add.at(rest, slots, terms[present])

    # the remainder, keyed in first-seen order
    keys, first = np.unique(slots, return_index=True)
    keys = [vac] * min(len(g2), 1) + keys[np.argsort(first)].tolist()
    left = CollectiveState(
        {((k // 2, LEVELS[k % 2]),) if k < vac else (): rest[k] for k in keys}
    )
    norm = math.sqrt(left.norm_sq())
    if norm <= PRUNE_TOL:
        return 0.0 + 0.0j, vacuum_state()
    single = (left.single.view(float) / norm).view(complex)  # as Python's a / norm
    remaining = CollectiveState._of(
        left.vacuum / norm, left.atoms, single, order=left.order
    )
    return math.sqrt(eta) * norm, remaining


def _farthest_external(
    ensemble: EnsembleConfig, external: EnsembleConfig
) -> np.ndarray:
    """Per atom, the distance to the farthest atom of the external ensemble,
    whose excitation is delocalized, so the branch-worst case governs (for
    HardSphere: blocked only if every external atom is within reach).
    Squares sum as in norm."""
    far = np.empty(ensemble.n_atoms)
    ext, own = external.positions.T[:, None, :], ensemble.positions.T[:, :, None]
    rows = max(1, FAR_BLOCK // external.n_atoms)
    with np.errstate(over="ignore"):  # an overflowing square is refused below
        for lo in range(0, len(far), rows):  # blocks bound the temporaries
            d = ext - own[:, lo : lo + rows]  # (3, rows, external atoms)
            d *= d
            far[lo : lo + rows] = (d[0] + d[1] + d[2]).max(axis=1)
    if np.isinf(far).any():
        raise ConfigError("atom separation too large: its square overflows")
    return np.sqrt(far)


def apply_collective_pulse(
    state: CollectiveState,
    pulse: PulseSpec,
    blockade: BlockadeModel,
    ensemble: EnsembleConfig,
    blocker: EnsembleConfig | None = None,
) -> CollectiveState:
    """Drive g2 <-> r on every atom of the ensemble for one pulse.

    Single excitations evolve under the two-level propagator, detuned by
    the blockade shift from a Rydberg excitation in `blocker`, if given.
    Pair configurations evolve in the {g2g2, symmetric, rr} ladder with
    the intra-pair shift on rr; the antisymmetric combination is
    decoupled from the drive and only accumulates its detuning phase.
    """
    _check_atoms(state, ensemble)
    area, phase = pulse.area, pulse.phase
    i, j = state.pairs.T
    det1 = np.full(len(state.atoms), pulse.detuning_over_rabi)
    det2 = np.full(len(i), pulse.detuning_over_rabi)
    if blocker is not None and (len(i) or len(det1)):
        far = _farthest_external(ensemble, blocker)
        det1 = det1 + blockade.shift_over_rabi(far[state.atoms])
        det2 = det2 + blockade.shift_over_rabi(np.maximum(far[i], far[j]))
    single, pair = state.single, state.pair

    if len(single):  # 2x2 blocks per atom
        dets, which = np.unique(det1, return_inverse=True)
        u = np.array([two_level_propagator(PulseSpec(area, d, phase)).entries
                      for d in dets.tolist()])
        single = _pruned(_propagate(u, which, single))

    if len(pair):  # {gg, sym, rr} ladder plus the dark antisymmetric state
        live = np.isfinite(det2)  # an infinite detuning leaves a block alone
        sel = slice(None) if live.all() else live
        x = pair[sel]
        key = np.empty(len(x), dtype=complex)  # (shift, detuning) per block
        key.real = blockade.shift_over_rabi(_lengths(ensemble.positions, i[sel], j[sel]))
        key.imag = det2[sel]
        keys, which = np.unique(key, return_inverse=True)
        if len(keys) == len(key):  # no two blocks share a propagator: keep block order
            keys, which = key, None
        u = pair_propagators(area, keys.real, keys.imag, phase)
        spin = _pick(np.exp(-1j * keys.imag * area), which)
        anti = _cmul((x[:, 1] - x[:, 2]) * INV_SQRT2, spin)
        sym = (x[:, 1] + x[:, 2]) * INV_SQRT2
        y = _propagate(u, which, np.stack([x[:, 0], sym, x[:, 3]], axis=1))
        new = _pruned(np.stack([y[:, 0], (y[:, 1] + anti) * INV_SQRT2,
                                (y[:, 1] - anti) * INV_SQRT2, y[:, 2]], axis=1))
        if isinstance(sel, slice):
            pair = new
        else:  # idle blocks stay as they are
            pair = pair.copy()
            pair[sel] = new
    return CollectiveState._of(state.vacuum, state.atoms, single, state.pairs, pair)


def scheme1_cp_micro(
    eta: float,
    blockade: BlockadeModel,
    control_ensemble: EnsembleConfig,
    target_ensemble: EnsembleConfig,
    pulse_area_errors: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> GateOpMatrix:
    """Run the three-pulse protocol atom-by-atom for all four basis inputs.

    Each memory is written once and each distinct pulse applied once: pi
    (control), then 2pi (target) and pi (control), free for inputs 01 and
    10 and, for 11, blocked by the other memory if it holds Rydberg
    population. The diagonal of the stored photons' retrieval amplitudes
    is the effective CP branch; ideal settings give diag(1,-1,-1,-1).
    """
    _eta(eta)
    e1, e2, e3 = pulse_area_errors
    pi1, pi2, pi3 = (PulseSpec(math.pi * e1), PulseSpec(2.0 * math.pi * e2),
                     PulseSpec(math.pi * e3))
    c_ens, t_ens = control_ensemble, target_ensemble

    def blocker(state: CollectiveState, ens: EnsembleConfig) -> EnsembleConfig | None:
        return ens if state.rydberg_population() > RYDBERG_PRESENCE_TOL else None

    one = 1.0 + 0.0j  # each entry is a product from here: signed zeros keep their bits
    tgt = write_photon(t_ens)
    t01 = apply_collective_pulse(tgt, pi2, blockade, t_ens)
    a01 = one * read_photon(t_ens, t01, eta)[0]
    ctrl = apply_collective_pulse(write_photon(c_ens), pi1, blockade, c_ens)
    c10 = apply_collective_pulse(ctrl, pi3, blockade, c_ens)
    a10 = one * read_photon(c_ens, c10, eta)[0]
    t11 = apply_collective_pulse(tgt, pi2, blockade, t_ens, blocker(ctrl, c_ens))
    c11 = apply_collective_pulse(ctrl, pi3, blockade, c_ens, blocker(t11, t_ens))
    a11 = one * read_photon(c_ens, c11, eta)[0] * read_photon(t_ens, t11, eta)[0]
    return GateOpMatrix(np.diag([one, a01, a10, a11]))

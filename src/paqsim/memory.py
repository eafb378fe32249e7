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
detuning). The engine answers to the few-atom oracle of the tests, an
explicit-basis simulation that shares no code with it, within 1e-12.

Writes are ideal; the store-retrieve efficiency eta enters once, as
sqrt(eta) on the retrieval amplitude, and Rydberg pulses are exactly
unitary on this basis. Reading is post-selected on the photon leaving in
the phase-matched mode: components holding a Rydberg excitation cannot
emit and their weight belongs to the loss budget. For a doubly-excited
state the first retrieval returns the mode-annihilated remainder, whose
norm can exceed 1 when both photons share a collective mode (bosonic
stimulation); the protocols store them in distinct wavevector modes.

Scheme 1's |11> input holds both memories in one state, over pairs (i, j)
of control atom i and target atom j. The target's 2pi leaves atom j free
where control atom i is in g2 and detunes it by the pair shift B(r_ij)
where atom i is in r. The control's last pi then acts where the target is
back in g2, the only branch a target read can see, and each read projects
one memory onto its own mode. The pairs are taken a block of control
atoms at a time, so the N_c x N_t pair work keeps bounded temporaries.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    ConfigError,
    EmptyMemoryError,
    MemoryCapacityError,
)
from .pulses import (
    BlockadeModel,
    PulseSpec,
    _eta,
    _ground_returns,
    pair_propagators,
    two_level_propagator,
)
from .qstate import GateOpMatrix, _as_index

Config = tuple[tuple[int, str], ...]
LEVELS = ("g2", "r")

# amplitudes below this are dropped when pruning a state
PRUNE_TOL = 1e-15

# largest C(N,2) a second write may build, so N <= 2000 atoms (80 B per
# pair); `micro write-write-pi-read-read --atoms 2000` peaks at 565 MiB RSS
# (1.2 s) under perfect blockade and 826 MiB (5.7 s) under c6:100, on a
# 2 vCPU x86-64 host
MAX_PAIRS = 1_999_000

# largest ensemble, 24 B of positions per atom and a few N-arrays per op;
# `micro write-2pi-read --atoms 14000000` peaks at 2,308 MiB RSS (7-9 s)
# under a 3 GB address-space limit, where 14,500,000 atoms run out
MAX_ATOMS = 14_000_000

# (control atom, target atom) pairs per block of scheme 1's joint |11>
PAIR_BLOCK = 1 << 14

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
        if not np.isfinite(k).all():  # a read may take k from outside the ensemble
            raise ConfigError(f"wavevector must be finite, got {k}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            return _finite_phases(self.positions @ k)


def _finite_phases(ph: np.ndarray) -> np.ndarray:
    """The one check on photon phases, k.r_j or a pair's difference."""
    if not np.isfinite(ph).all():
        raise ConfigError("photon phase overflows; use a smaller wavevector or cloud")
    return ph


def gaussian_cloud(n_atoms: int, sigma_um: float, seed: int | None = None) -> np.ndarray:
    """Sample isotropic Gaussian atom positions, (N,3) in micrometers."""
    if _as_index(n_atoms, "atom count") < 1:
        raise ConfigError(f"need at least one atom, got {n_atoms}")
    if n_atoms > MAX_ATOMS:
        raise ConfigError(f"a cloud holds at most {MAX_ATOMS} atoms, got {n_atoms}")
    if not 0 <= sigma_um < math.inf:
        raise ConfigError(f"cloud sigma must be finite and >= 0, got {sigma_um}")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, abs(sigma_um), size=(n_atoms, 3))  # numpy refuses -0.0


def _pruned(amps: np.ndarray) -> np.ndarray:
    """Zero, in place, what is at or below PRUNE_TOL; adding 0.0 makes a
    -0.0 part +0.0, so no signed zero reaches the output."""
    amps += 0.0
    amps[np.hypot(amps.real, amps.imag) <= PRUNE_TOL] = 0.0
    return amps


def _lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between broadcast points given as (3, ...) coordinate
    arrays; a separation whose square overflows is refused."""
    with np.errstate(over="ignore"):
        d = a - b
        d *= d
        sq = d[0] + d[1] + d[2]
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
    """Amplitudes over excitation configurations, one array per sector;
    `CollectiveState()` is the vacuum, and the engine builds every other
    state with `_of`. `amplitudes` maps back to configurations. Read-only."""

    def __init__(self):
        self._set(1.0, np.zeros(0, dtype=np.intp), np.zeros((0, 2), dtype=complex))

    @classmethod
    def _of(cls, *sectors) -> CollectiveState:
        return cls.__new__(cls)._set(*sectors)

    def _set(self, vacuum, atoms, single, pairs=_NO_PAIRS, pair=_NO_PAIR):
        for a in (atoms, single, pairs, pair):
            a.setflags(write=False)
        self.vacuum, self.atoms, self.single = complex(vacuum), atoms, single
        self.pairs, self.pair = pairs, pair
        return self

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
        flat = np.concatenate(([self.vacuum], self.single.ravel(), self.pair.ravel()))
        return float(np.vdot(flat, flat).real)

    def max_excitations(self) -> int:
        if self.pair.any():
            return 2
        return 1 if self.single.any() else 0

    def rydberg_population(self) -> float:
        flat = np.concatenate((self.single[:, 1], self.pair[:, 1:].ravel()))
        return float(np.vdot(flat, flat).real)


def vacuum_state() -> CollectiveState:
    return CollectiveState()


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
    single[:, 0] = _pruned(existing.vacuum * mode[:kept])
    overlap = np.vdot(mode[existing.atoms], existing.single[:, 0])
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
    with np.errstate(over="ignore"):  # refused below
        wave = np.exp(1j * _finite_phases(ph[pairs[:, 0]] - ph[pairs[:, 1]]))
    pair = np.zeros((count, 4), dtype=complex)
    pair[:, 0] = _pruned(overlap * wave / math.sqrt(count))
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
    vac = m[state.atoms] @ state.single[:, 0]  # each g2 single leaves the vacuum
    if state.max_excitations() <= 1:
        return math.sqrt(eta) * vac, vacuum_state()

    # what each pair leaves on one atom, in slot 2 * atom + level: gg loses
    # atom i or atom j, rg loses atom j, gr loses atom i; the vacuum goes last
    (i, j), x = state.pairs.T, state.pair
    slots = np.concatenate((2 * j, 2 * i, 2 * i + 1, 2 * j + 1))
    terms = np.concatenate((m[i] * x[:, 0], m[j] * x[:, 0], m[j] * x[:, 1], m[i] * x[:, 2]))
    size = 2 * ensemble.n_atoms
    left = np.bincount(slots, terms.real, size) + 1j * np.bincount(slots, terms.imag, size)
    rest = _pruned(np.append(left, vac))
    norm = math.sqrt(np.vdot(rest, rest).real)
    if norm <= PRUNE_TOL:
        return 0.0 + 0.0j, vacuum_state()
    single = rest[:-1].reshape(-1, 2)
    atoms = np.flatnonzero(single.any(axis=1))
    remaining = CollectiveState._of(rest[-1] / norm, atoms, single[atoms] / norm)
    return math.sqrt(eta) * norm, remaining


def apply_collective_pulse(
    state: CollectiveState,
    pulse: PulseSpec,
    blockade: BlockadeModel,
    ensemble: EnsembleConfig,
) -> CollectiveState:
    """Drive g2 <-> r on every atom of the ensemble for one pulse.

    Single excitations evolve under the two-level propagator. Pair
    configurations evolve in the {g2g2, symmetric, rr} ladder with the
    intra-pair shift on rr; the antisymmetric combination is decoupled
    from the drive and only accumulates its detuning phase.
    """
    _check_atoms(state, ensemble)
    area, det, phase = pulse.area, pulse.detuning_over_rabi, pulse.phase
    single, pair = state.single, state.pair

    if len(single):  # one 2x2 block per atom
        single = _pruned(single @ two_level_propagator(pulse).entries.T)

    if len(pair) and math.isfinite(det):  # an infinite detuning leaves a block alone
        i, j = state.pairs.T
        pos = ensemble.positions.T
        shifts = blockade.shift_over_rabi(_lengths(pos[:, i], pos[:, j]))
        keys, which = np.unique(shifts, return_inverse=True)
        if len(keys) == len(shifts):  # no two blocks share a propagator: keep block order
            keys, which = shifts, None
        u = pair_propagators(area, keys, det, phase)
        anti = (pair[:, 1] - pair[:, 2]) * INV_SQRT2 * np.exp(-1j * det * area)
        sym = (pair[:, 1] + pair[:, 2]) * INV_SQRT2
        y = _propagate(u, which, np.stack([pair[:, 0], sym, pair[:, 3]], axis=1))
        pair = _pruned(np.stack([y[:, 0], (y[:, 1] + anti) * INV_SQRT2,
                                 (y[:, 1] - anti) * INV_SQRT2, y[:, 2]], axis=1))
    return CollectiveState._of(state.vacuum, state.atoms, single, state.pairs, pair)


def scheme1_cp_micro(
    eta: float,
    blockade: BlockadeModel,
    control_ensemble: EnsembleConfig,
    target_ensemble: EnsembleConfig,
    pulse_area_errors: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> GateOpMatrix:
    """Run the three-pulse protocol atom-by-atom for all four basis inputs.

    Each memory is written once and each pulse applied once: pi (control),
    then 2pi (target) and pi (control). Inputs 01 and 10 drive one memory;
    11 drives both in one state, pair by pair (see the module docstring).
    The diagonal of the stored photons' retrieval amplitudes is the
    effective CP branch; ideal settings give diag(1,-1,-1,-1).
    """
    _eta(eta)
    e1, e2, e3 = pulse_area_errors
    pi1, pi2, pi3 = (PulseSpec(math.pi * e1), PulseSpec(2.0 * math.pi * e2),
                     PulseSpec(math.pi * e3))
    c_ens, t_ens = control_ensemble, target_ensemble
    tgt = write_photon(t_ens)
    t01 = apply_collective_pulse(tgt, pi2, blockade, t_ens)
    a01 = read_photon(t_ens, t01, eta)[0]
    ctrl = apply_collective_pulse(write_photon(c_ens), pi1, blockade, c_ens)
    a10 = read_photon(c_ens, apply_collective_pulse(ctrl, pi3, blockade, c_ens), eta)[0]

    # |11>: pair (i, j) holds control atom i and target atom j. Where atom i
    # is in g2 the target's 2pi ran free, as in t01; where it is in r, the
    # 2pi on atom j was detuned by B(r_ij). The control's pi3 brings both
    # branches to g2, and the control read leaves `rest` on the target's g2
    # (both reads' sqrt(eta) enter at the end).
    m = np.conj(_mode_amplitudes(c_ens))
    u3 = two_level_propagator(pi3).entries[0]
    w = m * ctrl.single[:, 1]  # control atoms in r, as the read weighs them
    detuned = np.zeros(t_ens.n_atoms, dtype=complex)  # sum_i w_i v(B(r_ij))
    # contiguous coordinate rows: a broadcast difference of strided views is slower
    c_pos = np.ascontiguousarray(c_ens.positions.T)[:, :, None]
    t_pos = np.ascontiguousarray(t_ens.positions.T)[:, None, :]
    rows = max(1, PAIR_BLOCK // t_ens.n_atoms)
    for lo in range(0, c_ens.n_atoms, rows):  # blocks bound the temporaries
        shifts = blockade.shift_over_rabi(_lengths(c_pos[:, lo : lo + rows], t_pos))
        if (shifts == shifts.flat[0]).all():  # one shift, as under perfect blockade
            detuned += w[lo : lo + rows].sum() * _ground_returns(pi2.area, shifts.flat[0])
        else:  # a sum, not a matmul: a threaded BLAS gemv here can stall for ms
            detuned += (w[lo : lo + rows, None] * _ground_returns(pi2.area, shifts)).sum(axis=0)
    rest = (u3[0] * (m @ ctrl.single[:, 0]) * t01.single[:, 0]
            + u3[1] * detuned * tgt.single[:, 0])
    a11 = eta * (np.conj(_mode_amplitudes(t_ens)) @ rest)
    return GateOpMatrix(np.diag([1.0, a01, a10, a11]))

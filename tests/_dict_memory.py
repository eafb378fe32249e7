"""The dictionary-backed atom-level memory engine, kept as a test oracle.

`paqsim.memory` keeps its states as arrays, one per sector. This is the
engine it replaced, copied verbatim together with the one-pair-at-a-time
`pair_propagator` it called: states are sparse dictionaries mapping an
excitation configuration to a complex amplitude, and every operation
loops over configurations in Python. The tests run both on the same
protocols and compare amplitudes, reads and norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from paqsim.errors import (
    ConfigError,
    EmptyMemoryError,
    MemoryCapacityError,
)
from paqsim.memory import (
    LEVELS,
    MAX_PAIRS,
    PRUNE_TOL,
    RYDBERG_PRESENCE_TOL,
    Config,
    EnsembleConfig,
)
from paqsim.pulses import BlockadeModel, PulseSpec, _drive, two_level_propagator
from paqsim.qstate import GateOpMatrix, _as_index


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


def pair_propagator(
    area: float,
    pair_shift_over_rabi: float,
    detuning_over_rabi: float = 0.0,
    phase: float = 0.0,
) -> np.ndarray:
    """3x3 propagator on {g2g2, symmetric single-r, rr}.

    The symmetric ladder couples with matrix element sqrt(2)*Omega/2
    (collective enhancement); rr carries the blockade shift on top of
    twice the laser detuning. An infinite shift reduces exactly to the
    two-level {g2g2, sym} system at effective area sqrt(2)*area, with
    rr frozen.
    """
    if not area >= 0:
        raise ConfigError(f"pulse area must be >= 0, got {area}")
    if math.isnan(pair_shift_over_rabi):
        raise ConfigError("pair blockade shift must not be NaN")
    _drive(detuning_over_rabi, phase)
    if not math.isfinite(pair_shift_over_rabi):
        u2 = two_level_propagator(
            PulseSpec(math.sqrt(2) * area, detuning_over_rabi / math.sqrt(2), phase)
        ).entries
        out = np.eye(3, dtype=complex)
        out[:2, :2] = u2
        return out
    g = (math.sqrt(2) / 2.0) * area * np.exp(-1j * phase)
    ht = np.array(
        [
            [0.0, g, 0.0],
            [np.conj(g), detuning_over_rabi * area, g],
            [0.0, np.conj(g), (2.0 * detuning_over_rabi + pair_shift_over_rabi) * area],
        ],
        dtype=complex,
    )
    w, vecs = np.linalg.eigh(ht)
    return (vecs * np.exp(-1j * w)) @ vecs.conj().T


@dataclass
class CollectiveState:
    """Sparse amplitude map over excitation configurations."""

    amplitudes: dict[Config, complex] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[Config, complex] = {}
        for config, amp in self.amplitudes.items():
            c = _canonical(config)
            if len(c) > 2:
                raise MemoryCapacityError(
                    f"configuration {c} exceeds the two-excitation cap"
                )
            if abs(amp) > PRUNE_TOL:
                clean[c] = clean.get(c, 0.0) + complex(amp)
        self.amplitudes = clean

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def max_excitations(self) -> int:
        return max((len(c) for c in self.amplitudes), default=0)

    def rydberg_population(self) -> float:
        return float(
            sum(
                abs(a) ** 2
                for c, a in self.amplitudes.items()
                if any(lvl == "r" for _, lvl in c)
            )
        )

    def has_rydberg(self) -> bool:
        return self.rydberg_population() > RYDBERG_PRESENCE_TOL


def vacuum_state() -> CollectiveState:
    return CollectiveState({(): 1.0})


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
    out: dict[Config, complex] = {}

    vac_amp = existing.amplitudes.get((), 0.0)
    if vac_amp:
        for j in range(n):
            out[((j, "g2"),)] = vac_amp * mode[j]

    single_overlap = 0.0 + 0.0j
    for config, amp in existing.amplitudes.items():
        if len(config) == 0:
            continue
        if len(config) >= 2:
            raise MemoryCapacityError("memory already holds two excitations")
        (j, lvl), = config
        if lvl != "g2":
            raise ConfigError("cannot store a photon while the memory is Rydberg-excited")
        single_overlap += np.conj(mode[j]) * amp
    if abs(single_overlap) > 0.0:
        if n < 2:
            raise MemoryCapacityError("single-atom memory cannot hold a second photon")
        pairs = math.comb(n, 2)
        if pairs > MAX_PAIRS:
            raise MemoryCapacityError(
                f"a second photon in {n} atoms needs C({n},2) = {pairs} pair "
                f"amplitudes, over the cap of {MAX_PAIRS}"
            )
        ph = ensemble.phases()
        pair_norm = math.sqrt(pairs)
        for i in range(n):
            for j in range(i + 1, n):
                c = ((i, "g2"), (j, "g2"))
                out[c] = out.get(c, 0.0) + single_overlap * np.exp(
                    1j * (ph[i] - ph[j])
                ) / pair_norm
    return CollectiveState(out)


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
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"eta must be in [0,1], got {eta}")
    if not any(
        any(lvl == "g2" for _, lvl in c) for c in state.amplitudes
    ):
        raise EmptyMemoryError("no g2 excitation to read out")
    mode = _mode_amplitudes(ensemble, wavevector)

    annihilated: dict[Config, complex] = {}
    for config, amp in state.amplitudes.items():
        for idx, (j, lvl) in enumerate(config):
            if lvl != "g2":
                continue
            rest = config[:idx] + config[idx + 1 :]
            annihilated[rest] = annihilated.get(rest, 0.0) + np.conj(mode[j]) * amp

    if state.max_excitations() <= 1:
        return math.sqrt(eta) * annihilated.get((), 0.0), vacuum_state()

    remaining = CollectiveState(annihilated)
    norm = math.sqrt(remaining.norm_sq())
    if norm <= PRUNE_TOL:
        return 0.0 + 0.0j, vacuum_state()
    remaining.amplitudes = {c: a / norm for c, a in remaining.amplitudes.items()}
    return math.sqrt(eta) * norm, remaining


def _pairwise_distance(ensemble: EnsembleConfig, i: int, j: int) -> float:
    return float(np.linalg.norm(ensemble.positions[i] - ensemble.positions[j]))


def _external_shift(
    blockade: BlockadeModel,
    ensemble: EnsembleConfig,
    atoms: tuple[int, ...],
    external_ensemble: EnsembleConfig | None,
) -> float:
    """Blockade shift projected by an external Rydberg excitation.

    The external excitation is delocalized over its ensemble, so the
    branch-worst case governs: the shift of the farthest external atom
    (for HardSphere this means blocked only if every external atom is
    within reach). Without explicit external geometry the shift is taken
    from the model at zero distance, i.e. fully blocked.
    """
    if external_ensemble is None:
        return blockade.shift_over_rabi(0.0)
    d_max = 0.0
    for i in atoms:
        d = np.linalg.norm(
            external_ensemble.positions - ensemble.positions[i], axis=1
        )
        d_max = max(d_max, float(np.max(d)))
    return blockade.shift_over_rabi(d_max)


def apply_collective_pulse(
    state: CollectiveState,
    pulse: PulseSpec,
    blockade: BlockadeModel,
    ensemble: EnsembleConfig,
    external_ensemble: EnsembleConfig | None = None,
    external_rydberg_present: bool = False,
) -> CollectiveState:
    """Drive g2 <-> r on every atom of the ensemble for one pulse.

    Single excitations evolve under the two-level propagator, detuned by
    the blockade shift when an external Rydberg excitation is flagged.
    Pair configurations evolve in the {g2g2, symmetric, rr} ladder with
    the intra-pair shift on rr; the antisymmetric combination is
    decoupled from the drive and only accumulates its detuning phase.
    """
    amps = dict(state.amplitudes)
    out: dict[Config, complex] = {}

    vac = amps.get((), 0.0)
    if vac:
        out[()] = vac

    # single-excitation sector: 2x2 blocks per atom
    singles: dict[int, np.ndarray] = {}
    for config, amp in amps.items():
        if len(config) != 1:
            continue
        (j, lvl), = config
        vec = singles.setdefault(j, np.zeros(2, dtype=complex))
        vec[0 if lvl == "g2" else 1] += amp
    for j, vec in singles.items():
        det = pulse.detuning_over_rabi
        if external_rydberg_present:
            det = det + _external_shift(blockade, ensemble, (j,), external_ensemble)
        u = two_level_propagator(PulseSpec(pulse.area, det, pulse.phase)).entries
        new = u @ vec
        for lvl, a in zip(("g2", "r"), new):
            if abs(a) > PRUNE_TOL:
                c = ((j, lvl),)
                out[c] = out.get(c, 0.0) + a

    # pair sector: {gg, rg, gr, rr} per atom pair, sym/antisym split
    pairs: dict[tuple[int, int], np.ndarray] = {}
    for config, amp in amps.items():
        if len(config) != 2:
            continue
        (i, li), (j, lj) = config
        vec = pairs.setdefault((i, j), np.zeros(4, dtype=complex))
        vec[{("g2", "g2"): 0, ("r", "g2"): 1, ("g2", "r"): 2, ("r", "r"): 3}[li, lj]] += amp
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for (i, j), vec in pairs.items():
        det = pulse.detuning_over_rabi
        if external_rydberg_present:
            det = det + _external_shift(blockade, ensemble, (i, j), external_ensemble)
        if not math.isfinite(det):
            # every level of the block is shifted out of resonance
            for idx, c in enumerate(
                (((i, "g2"), (j, "g2")), ((i, "r"), (j, "g2")),
                 ((i, "g2"), (j, "r")), ((i, "r"), (j, "r")))
            ):
                if abs(vec[idx]) > PRUNE_TOL:
                    out[c] = out.get(c, 0.0) + vec[idx]
            continue
        shift = blockade.shift_over_rabi(_pairwise_distance(ensemble, i, j))
        sym = (vec[1] + vec[2]) * inv_sqrt2
        anti = (vec[1] - vec[2]) * inv_sqrt2
        u3 = pair_propagator(pulse.area, shift, det, pulse.phase)
        gg, sym, rr = u3 @ np.array([vec[0], sym, vec[3]])
        anti = anti * np.exp(-1j * det * pulse.area)
        new = {
            ((i, "g2"), (j, "g2")): gg,
            ((i, "r"), (j, "g2")): (sym + anti) * inv_sqrt2,
            ((i, "g2"), (j, "r")): (sym - anti) * inv_sqrt2,
            ((i, "r"), (j, "r")): rr,
        }
        for c, a in new.items():
            if abs(a) > PRUNE_TOL:
                out[c] = out.get(c, 0.0) + a

    return CollectiveState(out)


def scheme1_cp_micro(
    eta: float,
    blockade: BlockadeModel,
    control_ensemble: EnsembleConfig,
    target_ensemble: EnsembleConfig,
    pulse_area_errors: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> GateOpMatrix:
    """Run the three-pulse protocol atom-by-atom for all four basis inputs.

    Per input |ct>: V components are written into their memories, then
    pi (control), 2pi (target), pi (control) pulses are applied with the
    cross-ensemble blockade projected whenever the other memory actually
    holds Rydberg population, and finally each stored photon is read
    back. The diagonal of retrieval amplitudes is the effective CP
    branch; ideal settings give diag(1,-1,-1,-1).
    """
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"eta must be in [0,1], got {eta}")
    e1, e2, e3 = pulse_area_errors
    diag = []
    for c_bit, t_bit in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ctrl = write_photon(control_ensemble) if c_bit else vacuum_state()
        tgt = write_photon(target_ensemble) if t_bit else vacuum_state()

        ctrl = apply_collective_pulse(
            ctrl, PulseSpec(math.pi * e1), blockade, control_ensemble,
            target_ensemble, tgt.has_rydberg(),
        )
        tgt = apply_collective_pulse(
            tgt, PulseSpec(2.0 * math.pi * e2), blockade, target_ensemble,
            control_ensemble, ctrl.has_rydberg(),
        )
        ctrl = apply_collective_pulse(
            ctrl, PulseSpec(math.pi * e3), blockade, control_ensemble,
            target_ensemble, tgt.has_rydberg(),
        )

        amp = 1.0 + 0.0j
        if c_bit:
            a, _ = read_photon(control_ensemble, ctrl, eta)
            amp *= a
        if t_bit:
            a, _ = read_photon(target_ensemble, tgt, eta)
            amp *= a
        diag.append(amp)
    return GateOpMatrix(np.diag(diag))

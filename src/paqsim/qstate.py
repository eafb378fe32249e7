"""Dense unnormalized multi-qubit state vectors and gate application.

States are stored as flat complex arrays over the computational basis
|b0 b1 ... b_{n-1}> with qubit 0 the MOST significant bit and 0=H, 1=V.
This ordering makes the 4x4 two-qubit matrices act with the first target
as the control, so printed matrices can be read off literally.

Amplitudes are generally unnormalized: a lossy gate is a single
post-selected Kraus branch, and the squared norm of the state is the
probability that no photon was lost (coincidence-detection success).

`evolve` applies a whole op list on two private buffers and wraps the
last one in a StateVector once. Each op writes from one buffer into the
other along one of two paths:

- strided: a 2x2 gate, or a 4x4 that never flips its control (every CP
  model and every CNOT here), is one np.matmul per control value on a
  reshaped view, when at least STRIDED_MIN amplitudes follow the highest
  target;
- gathered: any other op does np.tensordot's own arithmetic: gather the
  target axes to the front, one BLAS complex matrix multiply (zgemm),
  scatter back.

Byte identity: both paths give the bits np.tensordot gives, so output
does not depend on the path. On OpenBLAS these change the bits: in-place
complex `*=` for diagonal gates, einsum, an F-ordered `out=`, and strided
matmul over too few trailing amplitudes (2 do; 4 and 8 did not in 600
random circuits; STRIDED_MIN = 16 keeps a margin).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError

ATOL = 1e-12
NORM_CAP = 1.0 + 1e-9  # loss never amplifies
STRIDED_MIN = 16  # trailing amplitudes a strided matmul needs to keep the bits


@dataclass(frozen=True, eq=False)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if self.n_qubits < 1:
            raise ConfigError(f"need at least one qubit, got {self.n_qubits}")
        if amps.size != 2**self.n_qubits:
            raise ConfigError(
                f"amplitude length {amps.size} != 2^{self.n_qubits}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True, eq=False)
class GateOpMatrix:
    """A 2x2 or 4x4 complex operator, possibly a non-unitary loss branch."""

    entries: np.ndarray
    unitary_flag: bool = field(init=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ConfigError(f"gate must be 2x2 or 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ConfigError("gate entries must be finite")
        gram = m.conj().T @ m
        # physical post-selected branch: largest singular value <= 1
        if m.shape == (2, 2):
            # largest eigenvalue of the Gram matrix [[p, q], [q*, r]] in closed
            # form; ((p-r)/2)^2 + |q|^2 equals (f^2 - 4|det M|^2)/4 with
            # f = p + r, but sums squares where that form cancels
            p, r, q = gram[0, 0].real, gram[1, 1].real, gram[0, 1]
            smax = math.sqrt((p + r) / 2.0 + math.hypot((p - r) / 2.0, abs(q)))
        else:
            smax = float(np.linalg.norm(m, 2))
        if smax > NORM_CAP:
            raise ConfigError(f"largest singular value {smax:.3e} exceeds 1")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        dev = np.abs(gram - np.eye(m.shape[0])).max()
        object.__setattr__(self, "unitary_flag", bool(dev <= ATOL))

    @property
    def arity(self) -> int:
        return 1 if self.entries.shape[0] == 2 else 2

    @cached_property
    def control_blocks(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The target's 2x2 blocks for control 0 and 1 of a 4x4 gate that
        never flips its control; None for any other gate."""
        m = self.entries
        if m.shape != (4, 4) or m[:2, 2:].any() or m[2:, :2].any():
            return None
        return m[:2, :2].copy(), m[2:, 2:].copy()


def init_basis(n_qubits: int, bits: str) -> StateVector:
    """Computational basis state |bits>, e.g. init_basis(2, "10")."""
    if n_qubits < 1:
        raise ConfigError(f"need at least one qubit, got {n_qubits}")
    if len(bits) != n_qubits:
        raise ConfigError(f"bitstring {bits!r} length != {n_qubits} qubits")
    if any(b not in "01" for b in bits):
        raise ConfigError(f"bitstring {bits!r} must contain only 0/1")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return _frozen(n_qubits, amps)


def _frozen(n_qubits: int, amps: np.ndarray) -> StateVector:
    """Wrap a private buffer in a StateVector without copying it."""
    amps.flags.writeable = False
    state = object.__new__(StateVector)
    object.__setattr__(state, "n_qubits", n_qubits)
    object.__setattr__(state, "amplitudes", amps)
    return state


def _targets(gate: GateOpMatrix, targets, n: int) -> tuple[int, ...]:
    targets = tuple(targets)
    k = gate.arity
    if len(targets) != k:
        raise ConfigError(f"gate arity {k} but {len(targets)} targets given")
    if len(set(targets)) != k:
        raise ConfigError(f"duplicate targets {list(targets)}")
    for q in targets:
        if not 0 <= q < n:
            raise ConfigError(f"target {q} out of range for {n} qubits")
    return targets


def _step(src: np.ndarray, dst: np.ndarray, n: int, gate: GateOpMatrix,
          targets: tuple[int, ...]) -> None:
    """Write the gate applied to src into dst; src may be overwritten."""
    m = gate.entries
    below = 1 << (n - 1 - max(targets))
    if below >= STRIDED_MIN:
        if len(targets) == 1:
            shape = (-1, 2, below)
            np.matmul(m, src.reshape(shape), out=dst.reshape(shape))
            return
        blocks = gate.control_blocks
        if blocks is not None:
            c, t = targets
            lo, hi = sorted(targets)
            shape = (1 << lo, 2, 1 << (hi - lo - 1), 2, below)
            a, b = src.reshape(shape), dst.reshape(shape)
            if c > t:  # control axis first, target axis next to the trailing one
                a, b = a.swapaxes(1, 3), b.swapaxes(1, 3)
            for v, block in enumerate(blocks):
                np.matmul(block, a[:, v], out=b[:, v])
            return
    k = len(targets)
    shape = (2,) * n
    order = targets + tuple(q for q in range(n) if q not in targets)
    np.copyto(dst.reshape(shape), src.reshape(shape).transpose(order))
    np.dot(m, dst.reshape(1 << k, -1), out=src.reshape(1 << k, -1))
    np.copyto(dst.reshape(shape), src.reshape(shape).transpose(np.argsort(order)))


def evolve(
    state: StateVector, ops: Iterable[tuple[GateOpMatrix, Sequence[int]]]
) -> StateVector:
    """Apply (gate, targets) pairs in order; `state` itself is untouched.

    For a two-qubit gate, targets[0] is the gate's most significant
    (control) index. Non-unitary gates shrink the norm; nothing here
    renormalizes.
    """
    n = state.n_qubits
    cur = state.amplitudes.copy()
    spare = np.empty_like(cur)
    for gate, targets in ops:
        _step(cur, spare, n, gate, _targets(gate, targets, n))
        cur, spare = spare, cur
    return _frozen(n, cur)


def apply_gate(state: StateVector, gate: GateOpMatrix, targets: list[int]) -> StateVector:
    """Apply `gate` to the target qubits, identity elsewhere (see evolve)."""
    return evolve(state, [(gate, targets)])


def success_probability(state: StateVector) -> float:
    """Squared norm: probability that no photon was lost."""
    return state.norm_sq

"""Dense unnormalized multi-qubit state vectors and gate application.

States are stored as flat complex arrays over the computational basis
|b0 b1 ... b_{n-1}> with qubit 0 the MOST significant bit and 0=H, 1=V.
This ordering makes the 4x4 two-qubit matrices act with the first target
as the control, so printed matrices can be read off literally.

Amplitudes are generally unnormalized: a lossy gate is a single
post-selected Kraus branch, and the squared norm of the state is the
probability that no photon was lost (coincidence-detection success).
A GateOpMatrix is checked once, by its 2-norm; unitaries by construction
(plates, pulse propagators, the CNOT sandwich) skip it via `_trusted`.

`evolve` applies a whole op list on two private buffers and wraps the
last one in a StateVector once. Between ops it keeps the qubits in an
axis order of its own (`order[a]` is the qubit stored along axis a), and
one transpose at the end restores the basis order. Each op makes at most
one copy, along one of two paths:

- strided: a 2x2 gate, or a 4x4 that never flips its control (every CP
  model and every CNOT here), is one np.matmul per control value on a
  reshaped view, with no copy. It runs when at least STRIDED_MIN
  amplitudes follow the highest target's axis and the stacked matmuls
  are few (at most STRIDED_STACKS) or long (STRIDED_BLOCK trailing
  amplitudes): many short stacks cost one small BLAS call each.
- gathered: any other op does np.tensordot's own arithmetic. Unless its
  targets already lead the order, one copy of an (A,2,B) or (A,2,M,2,B)
  view moves them to the front, where they stay; then one BLAS complex
  matrix multiply (zgemm) of the gate with the (2^k, rest) matrix.

Byte identity: both paths give the bits np.tensordot gives, so output
does not depend on the path. The tracked order adds one assumption: zgemm
gives a column the same bits wherever it sits among the (2^k, rest)
columns, so the order of the other axes does not matter either. Both are
measured, not proven, and only on OpenBLAS (0.3.31): the tests check
them bit for bit over random op sequences up to 14 qubits. On OpenBLAS
these change the bits: in-place complex `*=` for diagonal gates, einsum,
an F-ordered `out=`, and strided matmul over too few trailing amplitudes
(2 do; 4 and 8 did not in 600 random circuits; STRIDED_MIN = 16 keeps a
margin).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

NORM_CAP = 1.0 + 1e-9  # loss never amplifies
STRIDED_MIN = 16  # trailing amplitudes a strided matmul needs to keep the bits
STRIDED_STACKS = 64  # up to this many stacked matmuls, strided beats a gather
# trailing amplitudes from which strided wins at any stack count; it only
# matters from 2^15 amplitudes on, where a gather's copy leaves the L2 cache
STRIDED_BLOCK = 128


@dataclass(frozen=True, eq=False)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if _as_index(self.n_qubits, "qubit count") < 1:
            raise ConfigError(f"need at least one qubit, got {self.n_qubits}")
        if amps.size != 2**self.n_qubits:
            raise ConfigError(f"amplitude length {amps.size} != 2^{self.n_qubits}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True, eq=False)
class GateOpMatrix:
    """A 2x2 or 4x4 complex operator, possibly a non-unitary loss branch."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape not in ((2, 2), (4, 4)):
            raise ConfigError(f"gate must be 2x2 or 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise ConfigError("gate entries must be finite")
        # physical post-selected branch: largest singular value <= 1
        smax = float(np.linalg.norm(m, 2))
        if smax > NORM_CAP:
            raise ConfigError(f"largest singular value {smax:.3e} exceeds 1")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

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
    if _as_index(n_qubits, "qubit count") < 1:
        raise ConfigError(f"need at least one qubit, got {n_qubits}")
    if len(bits) != n_qubits:
        raise ConfigError(f"bitstring {bits!r} length != {n_qubits} qubits")
    if any(b not in "01" for b in bits):
        raise ConfigError(f"bitstring {bits!r} must contain only 0/1")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return _frozen(n_qubits, amps)


def _trusted(stack: np.ndarray) -> list[GateOpMatrix]:
    """Wrap each matrix of a complex (S, d, d) stack, d = 2 or 4, without the
    checks: for unitaries built as such and products of checked gates and
    unitaries, which are finite with singular values <= 1."""
    stack.flags.writeable = False
    gates = []
    for m in stack:
        gate = object.__new__(GateOpMatrix)
        object.__setattr__(gate, "entries", m)
        gates.append(gate)
    return gates


def _frozen(n_qubits: int, amps: np.ndarray) -> StateVector:
    """Wrap a private buffer in a StateVector without copying it."""
    amps.flags.writeable = False
    state = object.__new__(StateVector)
    object.__setattr__(state, "n_qubits", n_qubits)
    object.__setattr__(state, "amplitudes", amps)
    return state


def _as_index(value, what: str) -> int:
    """operator.index(value): numpy integers pass, and 0.5 is not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _targets(gate: GateOpMatrix, targets, n: int) -> tuple[int, ...]:
    targets = tuple([_as_index(q, "target") for q in targets])
    k = gate.arity
    if len(targets) != k:
        raise ConfigError(f"gate arity {k} but {len(targets)} targets given")
    if len(set(targets)) != k:
        raise ConfigError(f"duplicate targets {list(targets)}")
    for q in targets:
        if not 0 <= q < n:
            raise ConfigError(f"target {q} out of range for {n} qubits")
    return targets


def _gather(src: np.ndarray, dst: np.ndarray, axes: list[int]) -> None:
    """Copy src into dst with the physical axes `axes` moved, in that order,
    to the front; the other axes keep their order."""
    if len(axes) == 1:
        a = 1 << axes[0]
        np.copyto(dst.reshape(2, a, -1), src.reshape(a, 2, -1).transpose(1, 0, 2))
        return
    lo, hi = sorted(axes)
    shape = (1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    front = (1, 3) if axes[0] < axes[1] else (3, 1)
    np.copyto(dst.reshape((2, 2) + shape[::2]), src.reshape(shape).transpose(front + (0, 2, 4)))


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
    basis = list(range(n))
    order = basis  # order[a] is the qubit stored along axis a
    for gate, targets in ops:
        targets = _targets(gate, targets, n)
        axes = [order.index(q) for q in targets]
        m = gate.entries
        below = 1 << (n - 1 - max(axes))
        stacks = cur.size // (2 * below)
        if below >= STRIDED_MIN and (stacks <= STRIDED_STACKS or below >= STRIDED_BLOCK):
            if len(axes) == 1:
                shape = (-1, 2, below)
                np.matmul(m, cur.reshape(shape), out=spare.reshape(shape))
                cur, spare = spare, cur
                continue
            blocks = gate.control_blocks
            if blocks is not None:
                c, t = axes
                lo, hi = sorted(axes)
                shape = (1 << lo, 2, 1 << (hi - lo - 1), 2, below)
                a, b = cur.reshape(shape), spare.reshape(shape)
                if c > t:  # control axis first, target axis next to the trailing one
                    a, b = a.swapaxes(1, 3), b.swapaxes(1, 3)
                for v, block in enumerate(blocks):
                    np.matmul(block, a[:, v], out=b[:, v])
                cur, spare = spare, cur
                continue
        k = len(axes)
        if axes != basis[:k]:
            _gather(cur, spare, axes)
            cur, spare = spare, cur
            order = list(targets) + [q for q in order if q not in targets]
        np.dot(m, cur.reshape(1 << k, -1), out=spare.reshape(1 << k, -1))
        cur, spare = spare, cur
    if order != basis:
        shape = (2,) * n
        back = sorted(basis, key=order.__getitem__)  # the axis holding each qubit
        np.copyto(spare.reshape(shape), cur.reshape(shape).transpose(back))
        cur = spare
    return _frozen(n, cur)

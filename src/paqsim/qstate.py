"""Dense unnormalized multi-qubit state vectors and gate application.

States are stored as flat complex arrays over the computational basis
|b0 b1 ... b_{n-1}> with qubit 0 the MOST significant bit and 0=H, 1=V.
This ordering makes the 4x4 two-qubit matrices act with the first target
as the control, so printed matrices can be read off literally.

Amplitudes are generally unnormalized: a lossy gate is a single
post-selected Kraus branch, and the squared norm of the state is the
probability that no photon was lost (coincidence-detection success).
A GateOpMatrix is checked once, by its 2-norm; unitaries by construction
(plates, pulse propagators, the CNOT sandwich) and the ideal lossy CP,
a diagonal that a checked eta bounds, skip it via `_trusted`.

`evolve` applies a whole op list on two private buffers and wraps the
result in a StateVector once. From an init_basis state of at least
SUPPORT_MIN qubits it works on the support of its input: init_basis
marks its state with the basis index, so evolve knows every qubit's
value without reading the amplitudes, and a qubit stays out of the
buffers until an op touches it. Then the buffers grow by two: a fresh
zeroed buffer takes the old values in the half of the qubit's value, a
fresh spare comes with it, and the new axis goes just after the largest
buffered qubit below it, so the qubits of a GHZ cascade stay in
ascending runs. (Two buffers sized once for the final support fault in
half as many fresh pages, but glibc then keeps more freed heap resident
between calls: 193 against 169 MiB peak RSS on the dense benchmark.)
Any other input (every timeline step after the first) is evolved on
full buffers. Between ops `evolve` keeps the buffered qubits in an axis
order of its own (`order[a]` is the qubit stored along axis a); one
transposed copy at the end writes them, in basis order, into the
fixed-index view of a zeroed 2^n array (or into the spare buffer if no
qubit stayed out). numpy walks a copy in the destination's order, so a
whole permuted buffer is read at long strides (2^10 amplitudes in the
order a 22-qubit GHZ star leaves); above END_BLOCK amplitudes the copy
therefore runs block by block, each block a contiguous source run that
fits in L2. Each op makes at most one copy besides its growth, along
one of two paths:

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
them bit for bit over random op sequences up to 14 qubits, and up to 16
from basis inputs. On OpenBLAS these change the bits: in-place complex
`*=` for diagonal gates, einsum, an F-ordered `out=`, and strided matmul
over too few trailing amplitudes (2 do; 4 and 8 did not in 600 random
circuits; STRIDED_MIN = 16 keeps a margin).

The floor: the buffers never hold fewer than 2^LIVE_FLOOR = 64
amplitudes; the qubits the op list touches first fill them up to it. On
smaller buffers OpenBLAS picks other kernels and the bits move. Over
random basis-input circuits (n 2-16; plates, H, P, X90, and CP and CNOT
from all three CP models) a floor of 1, 4 or 8 amplitudes differed from
the full-buffer bits on 122, 130 and 89 of 400; floors of 16 and 64
matched on all 400, and 64 on 1,500 more. Taking the floor qubits from
the last qubits instead of the first-touched ones makes later growth
costly (GHZ n = 22: 0.49 s against 0.23 s).

SUPPORT_MIN = 11: below it the growths cost more than the smaller
buffers save. Median time on the support path over the full-buffer
path, in process, from an init_basis state whose ops touch every qubit
(a plate on each, then n/4 CPs) and for ghz_dense_eval: 1.17 and 1.16 at
n = 8, 0.95-0.98 and 1.02 at n = 10, 0.86-0.88 and 0.94-0.97 at n = 11.
"""

from __future__ import annotations

import itertools
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
LIVE_FLOOR = 6  # the evolved buffers hold at least 2^LIVE_FLOOR amplitudes (module docstring)
SUPPORT_MIN = 11  # qubits from which an init_basis input is evolved on its support
# largest source block of the end copy into basis order (1 MiB). At n = 22,
# in the order the GHZ star leaves, one copy takes 106 ms and blocks of
# 2^10, 2^14, 2^16 and 2^18 amplitudes 227, 57, 43 and 72 ms; for the chain,
# 103 against 42-44 ms at 2^15-2^16 (a plain 64 MiB copy: 9 ms)
END_BLOCK = 1 << 16
# largest dense state, measured end to end: `paqsim run` and `timeline` with
# 2^n output amplitudes peak at 1.7 GB RSS for n = 22 and 3.4 GB for n = 23,
# mostly the JSON, so n = 23 runs out under a 3 GB address-space limit
MAX_QUBITS = 22


@dataclass(frozen=True, eq=False)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        _qubit_count(self.n_qubits)
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
    _qubit_count(n_qubits)
    if len(bits) != n_qubits:
        raise ConfigError(f"bitstring {bits!r} length != {n_qubits} qubits")
    if any(b not in "01" for b in bits):
        raise ConfigError(f"bitstring {bits!r} must contain only 0/1")
    index = int(bits, 2)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    state = _frozen(n_qubits, amps)
    object.__setattr__(state, "_basis_index", index)  # evolve need not scan it
    return state


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


def _qubit_count(n_qubits) -> int:
    """The one check on a dense state's qubit count; it runs before any
    2^n array or n-character bit string is formed."""
    n = _as_index(n_qubits, "qubit count")
    if n < 1:
        raise ConfigError(f"need at least one qubit, got {n_qubits}")
    if n > MAX_QUBITS:
        raise ConfigError(f"dense states hold at most {MAX_QUBITS} qubits, got {n_qubits}")
    return n


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


def _fixed_view(amps: np.ndarray, n: int, fixed: dict[int, int]) -> np.ndarray:
    """The amplitudes with each fixed qubit at its value: a view whose axes
    are the other qubits in ascending order."""
    return amps.reshape((2,) * n)[tuple(fixed.get(q, slice(None)) for q in range(n))]


def evolve(
    state: StateVector, ops: Iterable[tuple[GateOpMatrix, Sequence[int]]]
) -> StateVector:
    """Apply (gate, targets) pairs in order; `state` itself is untouched.

    For a two-qubit gate, targets[0] is the gate's most significant
    (control) index. Non-unitary gates shrink the norm; nothing here
    renormalizes.
    """
    n = state.n_qubits
    ops = [(gate, _targets(gate, targets, n)) for gate, targets in ops]
    order = basis = list(range(n))  # order[a]: the qubit stored along axis a
    index = getattr(state, "_basis_index", None)
    fixed = {}  # {qubit: value} kept out of the buffers
    if index is not None and ops and n >= SUPPORT_MIN:
        # the floor: the qubits the ops touch first start in the buffers
        first = dict.fromkeys([q for _, targets in ops for q in targets] + basis)
        fixed = {q: index >> (n - 1 - q) & 1 for q in list(first)[LIVE_FLOOR:]}
        order = [q for q in basis if q not in fixed]
        cur = _fixed_view(state.amplitudes, n, fixed).copy().reshape(-1)
    else:  # copied as it is, -0.0 amplitudes included
        cur = state.amplitudes.copy()
    spare = np.empty_like(cur)
    for gate, targets in ops:
        if fixed:
            for q in targets:
                if q in fixed:  # grow: the old values go in half fixed[q]
                    spare = None
                    lower = [r for r in order if r < q]  # q goes just after the largest of these
                    at = order.index(max(lower)) + 1 if lower else 0
                    grown = np.zeros(2 * cur.size, dtype=complex)
                    half = grown.reshape(1 << at, 2, -1)[:, fixed.pop(q)]
                    np.copyto(half, cur.reshape(1 << at, -1))
                    cur = grown  # the old buffer goes before the new spare comes
                    spare = np.empty_like(grown)
                    order.insert(at, q)
        axes = [order.index(q) for q in targets]
        m = gate.entries
        below = cur.size >> (max(axes) + 1)
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
                a = b = None  # views would keep both buffers alive through a growth
                cur, spare = spare, cur
                continue
        k = len(axes)
        if axes != basis[:k]:
            _gather(cur, spare, axes)
            cur, spare = spare, cur
            order = list(targets) + [q for q in order if q not in targets]
        np.dot(m, cur.reshape(1 << k, -1), out=spare.reshape(1 << k, -1))
        cur, spare = spare, cur
    if fixed or order != basis:  # one copy into basis order, block by block
        if fixed:  # around the qubits no op touched
            out = np.zeros(1 << n, dtype=complex)
            dst = _fixed_view(out, n, fixed)
        else:
            out = spare
            dst = out.reshape((2,) * n)
        live = sorted(order)
        dst = dst.transpose([live.index(q) for q in order])  # axis a holds qubit order[a]
        src = cur.reshape((2,) * len(order))
        # fixing the k leading axes leaves contiguous source blocks of END_BLOCK
        k = max(cur.size // END_BLOCK, 1).bit_length() - 1
        for lead in itertools.product((0, 1), repeat=k):
            np.copyto(dst[lead], src[lead])
        cur = out
    return _frozen(n, cur)

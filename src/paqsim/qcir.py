"""Parsers for the .qc circuit and .qtl timeline formats.

Both formats are flat and line-oriented: '#' starts a comment, tokens
are whitespace-separated, gate names are case-insensitive, angles are in
degrees, numbers are finite. Parse errors carry the 1-based line and
column of the offending token and never return a partial program.

.qc grammar:
    qubits <n>                 # n >= 1; `paqsim run` takes n <= qstate.MAX_QUBITS (22)
    <name> <q> [<angle>]       # one-qubit gates, e.g. `h 0`, `qwp 1 45`
    <name> <control> <target>  # two-qubit gates, e.g. `cp 0 1`

.qtl grammar:
    qms <n>                    # 1 <= n <= qstate.MAX_QUBITS (22)
    pos <i> <x> [y]            # micrometers, y defaults to 0
    step:
        pmu <i> <plate> <angle>  # e.g. `pmu 0 hwp 22.5`
        cp <i> <j>             # pairs of one step share no memory

The gate table paqsim.gates.GATES is the one source of .qc gate names,
their qubit counts and which take an angle; paqsim.optics.PLATES is the
one source of .qtl plate names. Both parsers read them, and both emit
gates.CircuitOp: a .qtl step is a tuple of a step's plate ops in file
order, then its cp ops in file order.

Blockade reach for cp pairs is checked at run time: a pair is placed
where its B/Omega is >= pulses.REACH_SHIFT_OVER_RABI.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError
from .gates import GATES, CircuitIR, CircuitOp
from .optics import PLATES
from .qstate import MAX_QUBITS
from .timeline import TimelineProgram

_TOKEN = re.compile(r"\S+")


def _token_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(body)]
        if tokens:
            yield lineno, tokens


def _need(tokens, count, line, form):
    if len(tokens) != count:
        tok, col = tokens[min(count, len(tokens) - 1)]
        raise ParseError(f"expected `{form}`", line, col)


def _int(tok, col, line, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {tok!r}", line, col) from None


def _float(tok, col, line, what):
    try:
        x = float(tok)
    except ValueError:
        raise ParseError(f"{what} must be a number, got {tok!r}", line, col) from None
    if not math.isfinite(x):
        raise ParseError(f"{what} must be finite, got {tok!r}", line, col)
    return x


def _index(tok, col, line, n, what):
    q = _int(tok, col, line, what)
    if not 0 <= q < n:
        raise ParseError(f"{what} {q} out of range (have {n})", line, col)
    return q


def _header(text, keyword, what, most=math.inf):
    """Read the `<keyword> <n>` first statement, 1 <= n <= most; returns the rest and n."""
    lines = _token_lines(text)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError(f"missing `{keyword} <n>` header", 1, 1) from None
    if tokens[0][0].lower() != keyword:
        raise ParseError(f"first statement must be `{keyword} <n>`", lineno, tokens[0][1])
    _need(tokens, 2, lineno, f"{keyword} <n>")
    n = _int(tokens[1][0], tokens[1][1], lineno, what)
    if n < 1:
        raise ParseError(f"{what} must be >= 1, got {n}", lineno, tokens[1][1])
    if n > most:
        raise ParseError(f"{what} must be <= {most}, got {n}", lineno, tokens[1][1])
    return lines, n


def parse_circuit(text: str) -> CircuitIR:
    lines, n = _header(text, "qubits", "qubit count")
    ops: list[CircuitOp] = []
    for lineno, tokens in lines:
        name, col = tokens[0][0].lower(), tokens[0][1]
        spec = GATES.get(name)
        if spec is None:
            raise ParseError(f"unknown gate {name!r}", lineno, col)
        k = spec.arity
        form = " <q>" if k == 1 else " <control> <target>"
        form += " <angle>" if spec.takes_angle else ""
        _need(tokens, 1 + k + spec.takes_angle, lineno, name + form)
        qs = tuple(_index(t, c, lineno, n, "qubit index") for t, c in tokens[1:1 + k])
        if len(set(qs)) < k:
            raise ParseError(f"{name} needs two distinct qubits", lineno, tokens[k][1])
        angle = _float(*tokens[k + 1], lineno, "angle") if spec.takes_angle else None
        ops.append(CircuitOp(name, qs, angle_deg=angle))
    return CircuitIR(n, tuple(ops))


def parse_timeline(text: str) -> TimelineProgram:
    lines, n = _header(text, "qms", "memory count", MAX_QUBITS)  # one position per memory
    positions: dict[int, tuple[float, float]] = {}
    steps: list[tuple[CircuitOp, ...]] = []
    pmu: list[CircuitOp] = []
    cps: list[CircuitOp] = []
    used: set[int] = set()
    in_step = False

    def flush():
        if in_step:
            steps.append((*pmu, *cps))  # a step's plates, then its cp pairs
            pmu.clear()
            cps.clear()
            used.clear()

    for lineno, tokens in lines:
        name, col = tokens[0][0].lower(), tokens[0][1]
        if name == "pos":
            if in_step:
                raise ParseError("pos must come before the first step", lineno, col)
            if len(tokens) not in (3, 4):
                raise ParseError("expected `pos <i> <x> [y]`", lineno, col)
            i = _index(tokens[1][0], tokens[1][1], lineno, n, "memory index")
            if i in positions:
                raise ParseError(f"position of memory {i} set twice", lineno, tokens[1][1])
            x = _float(tokens[2][0], tokens[2][1], lineno, "x coordinate")
            y = 0.0
            if len(tokens) == 4:
                y = _float(tokens[3][0], tokens[3][1], lineno, "y coordinate")
            positions[i] = (x, y)
        elif name == "step:":
            flush()
            in_step = True
        elif name == "pmu":
            if not in_step:
                raise ParseError("pmu outside a step block", lineno, col)
            _need(tokens, 4, lineno, f"pmu <i> <{'|'.join(PLATES)}> <angle>")
            i = _index(tokens[1][0], tokens[1][1], lineno, n, "memory index")
            plate = tokens[2][0].lower()
            if plate not in PLATES:
                raise ParseError(
                    f"unknown wave plate {plate!r}", lineno, tokens[2][1]
                )
            angle = _float(tokens[3][0], tokens[3][1], lineno, "angle")
            pmu.append(CircuitOp(plate, (i,), angle))
        elif name == "cp":
            if not in_step:
                raise ParseError("cp outside a step block", lineno, col)
            _need(tokens, 3, lineno, "cp <i> <j>")
            a = _index(tokens[1][0], tokens[1][1], lineno, n, "memory index")
            b = _index(tokens[2][0], tokens[2][1], lineno, n, "memory index")
            if a == b:
                raise ParseError("cp needs two distinct memories", lineno, tokens[2][1])
            if a in used or b in used:
                raise ParseError(
                    f"memory {a if a in used else b} already used by a cp "
                    "pair in this step", lineno, col,
                )
            used.update((a, b))
            cps.append(CircuitOp("cp", (a, b)))
        else:
            raise ParseError(f"unknown statement {name!r}", lineno, col)
    flush()

    pos = tuple(positions.get(i, (0.0, 0.0)) for i in range(n))
    return TimelineProgram(n, pos, tuple(steps))

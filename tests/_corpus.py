"""Seeded random program builders and the serializers that write them out,
shared by the parser and acceptance tests."""

import random

from paqsim import CircuitIR, CircuitOp, TimelineProgram

_ANGLES = (0.0, 22.5, 45.0, 90.0, -17.25, 123.456789, 359.999, 1e-3)


def random_circuit(seed: int) -> CircuitIR:
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    ops = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(("h", "p", "x90", "qwp", "hwp", "cp", "cnot"))
        if kind in ("cp", "cnot"):
            if n < 2:
                kind = "h"
            else:
                a, b = rng.sample(range(n), 2)
                ops.append(CircuitOp(kind, (a, b)))
                continue
        q = rng.randrange(n)
        if kind in ("qwp", "hwp"):
            angle = rng.choice(_ANGLES) + rng.random() * rng.choice((0.0, 1.0))
            ops.append(CircuitOp(kind, (q,), angle_deg=angle))
        else:
            ops.append(CircuitOp(kind, (q,)))
    return CircuitIR(n, tuple(ops))


def random_timeline(seed: int) -> TimelineProgram:
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    positions = tuple(
        (rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)
    )
    steps = []
    for _ in range(rng.randint(0, 5)):
        step = []
        for _ in range(rng.randint(0, 4)):
            q = rng.randrange(n)
            step.append(CircuitOp(rng.choice(("qwp", "hwp")), (q,), rng.uniform(-360, 360)))
        order = list(range(n))
        rng.shuffle(order)
        while len(order) >= 2 and rng.random() < 0.6:
            step.append(CircuitOp("cp", (order.pop(), order.pop())))
        steps.append(tuple(step))
    return TimelineProgram(n, positions, tuple(steps))


def serialize_circuit(circuit: CircuitIR) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    for op in circuit.ops:
        angle = "" if op.angle_deg is None else f" {op.angle_deg:.17g}"
        lines.append(" ".join([op.kind, *map(str, op.targets)]) + angle)
    return "\n".join(lines) + "\n"


def serialize_timeline(program: TimelineProgram) -> str:
    lines = [f"qms {program.n_qms}"]
    for i, (x, y) in enumerate(program.positions):
        lines.append(f"pos {i} {x:.17g} {y:.17g}")
    for step in program.steps:
        lines.append("step:")
        for op in step:
            if op.kind == "cp":
                lines.append(f"cp {op.targets[0]} {op.targets[1]}")
            else:
                lines.append(f"pmu {op.targets[0]} {op.kind} {op.angle_deg:.17g}")
    return "\n".join(lines) + "\n"

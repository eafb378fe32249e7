"""Bit pins for the dense executor, recorded before `evolve`'s end copy was
blocked, and memory guards for the same change; and bit pins for the
timeline, recorded before each CP pair took its gate from its distance.

Each pin is the SHA-256 of output bytes: `run_circuit` amplitudes and the
two floats of `ghz_dense_eval` for GHZ star and chain at n = 11..18 under
the three CP models, and the amplitudes of 40 seeded random circuits of
12..18 qubits from random basis inputs, each with every gate kind. A
change to how amplitudes are moved must leave every bit where it was.
The pins hold for OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernels), the
build the qstate docstring measured.

The guards bound the tracemalloc peak of 20-qubit dense runs by the
recorded peak of the same runs, so an extra full-size buffer cannot
appear unnoticed.
"""

import hashlib
import math
import random
import struct
import tracemalloc

import pytest

from paqsim import (
    CircuitIR,
    CircuitOp,
    CpScheme,
    GhzTopology,
    HardSphere,
    Perfect,
    PowerLaw,
    TimelineProgram,
    build_ghz_circuit,
    ghz_dense_eval,
    init_basis,
    run_circuit,
    run_timeline,
)
from paqsim.gates import GATES

GHZ_ETA = 0.9
CP_MODELS = {
    "ideal": CpScheme(),
    "scheme1": CpScheme("scheme1", 3.0, (1.02, 0.97, 1.01)),
    "scheme2": CpScheme("scheme2", 4.0, area=7.0 * math.pi),
}
CIRCUIT_GROUPS = 4  # of 10 seeded circuits each

PINS = {
    ("star", "ideal"): "f59d0ef504319107141db3ae5c8256b9e0268422bec90635eca53e5263d756d0",
    ("star", "scheme1"): "10d52d2d1f5549905dcf45a38ef73b929c2528ec690c1b0c15a3848e65f0b1ed",
    ("star", "scheme2"): "dcf6c46b8874e29fe0a671d9da8896dff45194e76babc43d99f82a93675d88d8",
    ("chain", "ideal"): "ee477d3b0ef27d62e576ffdbc9aac54c11f19932be52c45b99c44afedee3826a",
    ("chain", "scheme1"): "565364149e854508a85cea35b845ad2d53154c8d379523ee64867c7d2c3e8474",
    ("chain", "scheme2"): "de1ba1cb957622ab52c9a65dc8bd6b159ec7efd97edaec3f76c4c5a743c4ca03",
    ("circuits", 0): "575e7611292e389ed6f4aa235d36eec2ba32a7dd2e607ae2c65b1410caa21301",
    ("circuits", 1): "6f690877dc1f9ede6c83ccc0d2b6bbd2b789d7022d4d5d214c0f94bb6084b9a7",
    ("circuits", 2): "c1aca695b87056c1023adaad1ba63dc70fc5b0678e48412237a915fa57239095",
    ("circuits", 3): "99b6cc8da992ac4b0cafe7e0b87db7eff2983b25e65f9827bd93ac93d6b71cbc",
}


def ghz_bytes(topology: str, model: str):
    topo = GhzTopology(topology)
    for n in range(11, 19):
        out = run_circuit(build_ghz_circuit(n, topo), GHZ_ETA, CP_MODELS[model])
        yield out.amplitudes.tobytes()
        yield struct.pack("<2d", *ghz_dense_eval(n, GHZ_ETA, topo, CP_MODELS[model]))


def random_circuit(seed: int):
    """12..18 qubits, every gate kind at least once, targets drawn from a
    random subset so that some qubits may stay at their input value."""
    rng = random.Random(seed)
    n = rng.randint(12, 18)
    live = rng.sample(range(n), rng.randint(7, n))
    kinds = list(GATES)
    rng.shuffle(kinds)
    kinds += [rng.choice(list(GATES)) for _ in range(rng.randint(10, 30))]
    ops = []
    for kind in kinds:
        spec = GATES[kind]
        angle = rng.uniform(-180.0, 180.0) if spec.takes_angle else None
        ops.append(CircuitOp(kind, tuple(rng.sample(live, spec.arity)), angle))
    bits = "".join(rng.choice("01") for _ in range(n))
    model = CP_MODELS[rng.choice(list(CP_MODELS))]
    return CircuitIR(n, tuple(ops)), init_basis(n, bits), rng.uniform(0.05, 1.0), model


def circuit_bytes(group: int):
    for seed in range(10 * group, 10 * group + 10):
        circuit, initial, eta, model = random_circuit(seed)
        yield run_circuit(circuit, eta, model, initial).amplitudes.tobytes()


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def test_random_circuits_use_every_gate_kind_and_size():
    circuits = [random_circuit(seed)[0] for seed in range(10 * CIRCUIT_GROUPS)]
    for circuit in circuits:
        assert {op.kind for op in circuit.ops} == set(GATES)
    assert {c.n_qubits for c in circuits} == set(range(12, 19))


@pytest.mark.parametrize("topology", ["star", "chain"])
@pytest.mark.parametrize("model", list(CP_MODELS))
def test_ghz_dense_bits_are_pinned(topology, model):
    assert digest(ghz_bytes(topology, model)) == PINS[topology, model]


@pytest.mark.parametrize("group", range(CIRCUIT_GROUPS))
def test_random_circuit_bits_are_pinned(group):
    assert digest(circuit_bytes(group)) == PINS["circuits", group]


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def circuit_20() -> CircuitIR:
    """Every gate kind on qubits 0..18 of 20; qubit 19 stays at its input
    value, so the end copy writes into a zeroed 2^20 array."""
    rng = random.Random(20)
    ops = [CircuitOp("h", (q,)) for q in rng.sample(range(19), 19)]
    for kind in list(GATES) * 3:
        spec = GATES[kind]
        angle = rng.uniform(-180.0, 180.0) if spec.takes_angle else None
        ops.append(CircuitOp(kind, tuple(rng.sample(range(19), spec.arity)), angle))
    return CircuitIR(20, tuple(ops))


# the largest of nine peaks, in bytes: 48 MiB of arrays (three 2^20-amplitude
# buffers) plus a few KiB of objects. The GHZ peak was 64 MiB (67,118,747)
# while a growth kept the previous level's buffers alive; it was re-recorded
# when `evolve` let them go. Peaks vary by a few hundred bytes between runs,
# so the guard allows PEAK_SLACK over them: a sixteenth of one end-copy
# block (1 MiB), and a 2^20-amplitude buffer is 16 MiB
PEAKS = {"ghz_dense_eval": 50_347_272, "run_circuit": 50_351_113}
PEAK_SLACK = 1 << 16


@pytest.mark.parametrize("name, run", [
    ("ghz_dense_eval", lambda: ghz_dense_eval(20, GHZ_ETA)),
    ("run_circuit", lambda: run_circuit(circuit_20(), GHZ_ETA)),
])
def test_dense_runs_hold_no_extra_buffer(name, run):
    assert traced_peak(run) <= PEAKS[name] + PEAK_SLACK


# Timeline pins: seeded programs shaped like the benchmark's timeline tasks
# (memories in a 20 um box, a plate on every memory and one CP per four
# memories each step) at 6, 10 and 14 memories, under the three CP models
# and three blockade models: two place every pair at B/Omega = inf, and
# under `c6` each pair runs its own gate at the B/Omega of its distance
# (every pair of the 20 um box has B/Omega >= 1,950, so every pair is
# placed). Each pin hashes the final amplitude bytes and the per-step
# survival floats, so a change to how a pair's gate is found must leave
# both where they were.
TIMELINE_MODELS = {
    "ideal": CpScheme(),
    "scheme1": CpScheme("scheme1", area_errors=(1.02, 0.97, 1.01)),
    "scheme2": CpScheme("scheme2", area=7.0 * math.pi),
}
TIMELINE_BLOCKADES = {"hard40": HardSphere(40.0), "perfect": Perfect(), "c6": PowerLaw(1e12)}
TIMELINE_SIZES = (6, 10, 14)
TIMELINE_STEPS = 30

TIMELINE_PINS = {
    ("hard40", "ideal"): "f7d9b2e70457d0144cde249bad999d192eebde418b5dcd2b5f26ef4e3c806934",
    ("hard40", "scheme1"): "5a3cc8f36f587588762cce2288a925fb20353ad1a79982606b53c751761333a6",
    ("hard40", "scheme2"): "4756637df47fd53787074b2c18b2562eb8af921eb84b976a9dc70fa91846cf96",
    ("perfect", "ideal"): "f7d9b2e70457d0144cde249bad999d192eebde418b5dcd2b5f26ef4e3c806934",
    ("perfect", "scheme1"): "5a3cc8f36f587588762cce2288a925fb20353ad1a79982606b53c751761333a6",
    ("perfect", "scheme2"): "4756637df47fd53787074b2c18b2562eb8af921eb84b976a9dc70fa91846cf96",
    ("c6", "ideal"): "f7d9b2e70457d0144cde249bad999d192eebde418b5dcd2b5f26ef4e3c806934",
    ("c6", "scheme1"): "471a6af173908ec3d2b5ac595849f312ff69098077fbc05983a5bd13405df959",
    ("c6", "scheme2"): "66f0d6017c8d18e58a586ecb59831ddf68c07677c7b1a5711a7c28a55c12460b",
}


def timeline_program(seed: int, n: int):
    rng = random.Random(seed)
    positions = tuple((round(rng.uniform(0, 20), 3), round(rng.uniform(0, 20), 3))
                      for _ in range(n))
    steps = []
    for _ in range(TIMELINE_STEPS):
        plates = tuple(CircuitOp(rng.choice(("qwp", "hwp")), (q,), round(rng.uniform(0, 180), 3))
                       for q in range(n))
        perm = rng.sample(range(n), n)
        pairs = tuple(CircuitOp("cp", (perm[2 * k], perm[2 * k + 1])) for k in range(n // 4))
        steps.append(plates + pairs)
    return TimelineProgram(n, positions, tuple(steps)), rng.uniform(0.9995, 0.99999)


def timeline_bytes(blockade: str, model: str):
    for n in TIMELINE_SIZES:
        program, eta = timeline_program(n, n)
        trace = run_timeline(program, eta, TIMELINE_MODELS[model], 0.01,
                             TIMELINE_BLOCKADES[blockade])
        yield trace.final_state.amplitudes.tobytes()
        yield struct.pack(f"<{len(trace.per_step_survival)}d", *trace.per_step_survival)


@pytest.mark.parametrize("blockade", list(TIMELINE_BLOCKADES))
@pytest.mark.parametrize("model", list(TIMELINE_MODELS))
def test_timeline_bits_are_pinned(blockade, model):
    assert digest(timeline_bytes(blockade, model)) == TIMELINE_PINS[blockade, model]

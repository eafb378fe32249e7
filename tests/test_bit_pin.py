"""Bit pins for the dense executor, recorded before `evolve`'s end copy was
blocked, and memory guards for the same change; bit pins for the
timeline, recorded before each CP pair took its gate from its distance;
and bit and message pins for the CP gate, recorded before `CpScheme`
moved next to the pulse-level formulas it selects. Every pin that runs
scheme 1 was re-recorded once, when its |11> entry took the two-branch
form u3_00 u1_00 v(0) + u3_01 u1_10 v(B).

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
    ConfigError,
    CpScheme,
    GhzTopology,
    HardSphere,
    Perfect,
    PowerLaw,
    TimelineProgram,
    build_ghz_circuit,
    cp_ideal_with_loss,
    ghz_dense_eval,
    init_basis,
    run_circuit,
    run_timeline,
    scheme1_cp_matrix,
    scheme2_cp_matrix,
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
    ("star", "scheme1"): "77a649c966f3c0ae1ec4702a37fe213888628e8adef2811956f5d4adbeb7d8a3",
    ("star", "scheme2"): "dcf6c46b8874e29fe0a671d9da8896dff45194e76babc43d99f82a93675d88d8",
    ("chain", "ideal"): "ee477d3b0ef27d62e576ffdbc9aac54c11f19932be52c45b99c44afedee3826a",
    ("chain", "scheme1"): "d9ea37d289902159a1bd914a46c6de7093aa4fde1af569b2490a187520857e94",
    ("chain", "scheme2"): "de1ba1cb957622ab52c9a65dc8bd6b159ec7efd97edaec3f76c4c5a743c4ca03",
    ("circuits", 0): "1b330c2a4a5c2a1fe82ceedab76a9f122e513c6f3f096f274cb1cf861d024268",
    ("circuits", 1): "c5d1e7f40439979001fec81693a2529e42ee83ea5a41c1b33ba3bdf2b538a0a9",
    ("circuits", 2): "3f9eded2f816e3ca4a4c99eace0963e2eab5571b3f41d042a97ea4078bc53619",
    ("circuits", 3): "6317c8eb1b39c1f6c8ad79d9a786055048a7f84ed797f2016d81b64befc8a9ee",
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
    ("hard40", "scheme1"): "d90a2627b2816a3e3b926b2c7c6c993cf89358bfd74a919ddbf9bdc678ff214a",
    ("hard40", "scheme2"): "4756637df47fd53787074b2c18b2562eb8af921eb84b976a9dc70fa91846cf96",
    ("perfect", "ideal"): "f7d9b2e70457d0144cde249bad999d192eebde418b5dcd2b5f26ef4e3c806934",
    ("perfect", "scheme1"): "d90a2627b2816a3e3b926b2c7c6c993cf89358bfd74a919ddbf9bdc678ff214a",
    ("perfect", "scheme2"): "4756637df47fd53787074b2c18b2562eb8af921eb84b976a9dc70fa91846cf96",
    ("c6", "ideal"): "f7d9b2e70457d0144cde249bad999d192eebde418b5dcd2b5f26ef4e3c806934",
    ("c6", "scheme1"): "02776f01c16c79ee68330125fa20ce93c9e5e7e6195fd8589b3c0ddb3c856663",
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


# CP gate pins: every kind of `CpScheme` over a seeded grid of B/Omega (0,
# log-uniform from 1e-3 to 1e6, and inf), nominal and random area errors
# and scheme-2 areas in [0.8, 1.2] x nominal, at eta 0, 1 and a random
# value. The pin hashes each gate's entry bytes, so a change to where the
# scheme's formulas live must leave every bit of every gate where it was.
CP_KINDS = ("ideal", "scheme1", "scheme2")
CP_SHIFTS = 30  # finite B/Omega values per kind
CP_PIN = "cf67e32796c820ca872f110f2b6e5ab1f057e6eb541067f456efb22b325e2e02"


def cp_gate_bytes():
    rng = random.Random(38)
    for kind in CP_KINDS:
        shifts = [0.0, math.inf] + [10.0 ** rng.uniform(-3.0, 6.0) for _ in range(CP_SHIFTS)]
        for b in shifts:
            errors = tuple(rng.uniform(0.8, 1.2) for _ in range(3))
            area = rng.uniform(0.8, 1.2) * 10.0 * math.pi
            for scheme in (CpScheme(kind, b), CpScheme(kind, b, errors, area)):
                for eta in (0.0, 1.0, rng.random()):
                    yield scheme.gate(eta).entries.tobytes()


def test_cp_gate_bits_are_pinned():
    assert digest(cp_gate_bytes()) == CP_PIN


# the message of every refused CP gate: the scheme checks its fields when
# built and the gate its eta; the builders check eta first
CP_REFUSALS = [
    (lambda: CpScheme("scheme3"), "unknown cp model 'scheme3'; use ideal, scheme1, scheme2"),
    (lambda: CpScheme("scheme1", math.nan), "blockade shift must be >= 0, got nan"),
    (lambda: CpScheme("scheme1", -1.0), "blockade shift must be >= 0, got -1.0"),
    (lambda: CpScheme("scheme2", math.nan), "blockade shift must be >= 0, got nan"),
    (lambda: CpScheme("scheme2", -2.0), "blockade shift must be >= 0, got -2.0"),
    (lambda: CpScheme("scheme1", 3.0, (math.inf, 1.0, 1.0)),
     "pulse area must be finite and >= 0, got inf"),
    (lambda: CpScheme("scheme1", 3.0, (1.0, math.nan, 1.0)),
     "pulse area must be finite and >= 0, got nan"),
    (lambda: CpScheme("scheme1", 3.0, (1.0, 1.0, -0.5)),
     "pulse area must be finite and >= 0, got -1.5707963267948966"),
    (lambda: CpScheme("scheme1", -1.0, (-1.0, 1.0, 1.0)), "blockade shift must be >= 0, got -1.0"),
    (lambda: CpScheme("scheme2", area=math.inf), "pulse area must be finite and >= 0, got inf"),
    (lambda: CpScheme("scheme2", area=math.nan), "pulse area must be > 0, got nan"),
    (lambda: CpScheme("scheme2", area=-1.0), "pulse area must be > 0, got -1.0"),
    (lambda: CpScheme("scheme2", area=0.0), "pulse area must be > 0, got 0.0"),
    (lambda: CpScheme("scheme2", math.nan, area=-1.0), "pulse area must be > 0, got -1.0"),
    (lambda: CpScheme("scheme2", -1.0, area=math.inf), "blockade shift must be >= 0, got -1.0"),
    (lambda: CpScheme("scheme3", math.nan), "unknown cp model 'scheme3'; use ideal, scheme1, scheme2"),
    (lambda: CpScheme().gate(1.5), "eta must be in [0,1], got 1.5"),
    (lambda: CpScheme("ideal", math.nan).gate(math.nan), "eta must be in [0,1], got nan"),
    (lambda: CpScheme("scheme1").gate(-0.1), "eta must be in [0,1], got -0.1"),
    (lambda: CpScheme("scheme2", 3.0).gate(math.inf), "eta must be in [0,1], got inf"),
    (lambda: CpScheme("scheme1", math.nan).gate(2.0), "blockade shift must be >= 0, got nan"),
    (lambda: scheme1_cp_matrix(2.0, math.nan), "eta must be in [0,1], got 2.0"),
    (lambda: scheme1_cp_matrix(math.nan, 3.0, (math.inf, 1.0, 1.0)), "eta must be in [0,1], got nan"),
    (lambda: scheme1_cp_matrix(1.0, -1.0, (math.inf, 1.0, 1.0)),
     "blockade shift must be >= 0, got -1.0"),
    (lambda: scheme2_cp_matrix(-1.0, -1.0, math.nan), "eta must be in [0,1], got -1.0"),
    (lambda: scheme2_cp_matrix(1.0, -1.0, math.nan), "pulse area must be > 0, got -1.0"),
    (lambda: scheme2_cp_matrix(1.0, math.inf, -3.0), "blockade shift must be >= 0, got -3.0"),
    (lambda: cp_ideal_with_loss(1.5), "eta must be in [0,1], got 1.5"),
]


@pytest.mark.parametrize("build, message", CP_REFUSALS)
def test_cp_gate_refusals_keep_their_messages(build, message):
    with pytest.raises(ConfigError) as info:
        build()
    assert str(info.value) == message

"""Seeded workloads for the paqsim benchmark: inputs, tasks, checks, work.

A workload is a list of cycles; a cycle is a list of tasks whose sizes are
fixed by the workload and whose contents (eta grids, circuits, programs,
atom clouds, blockade parameters) are drawn from the workload seed. Every
cycle of a workload costs about the same, so a run made of whole cycles
has the same task mix on every seed.

A task is either a CLI call, ``paqsim.cli.main(argv)`` with stdout
captured, or a library call from ``paqsim.__all__``. Each task carries
its domain work (the unit is fixed per workload) and an output check that
runs after the task, outside the timed region. Known-defect inputs stay
in the mix and count as failures: the first cnot-sweep of every run
starts its grid at eta = 0, and every dense cycle asks for a 3e4-qubit
transfer-matrix GHZ.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import paqsim

# cnot-sweep tasks use the CLI's default sample count
SWEEP_STEPS = 11
SWEEP_SAMPLES = 20_000

GHZ_DENSE_QUBITS = range(16, 23)
CIRCUIT_QUBITS = range(18, 23)
GATE_KINDS = ("h", "p", "x90", "qwp", "hwp", "cp", "cnot")  # one op of each per circuit
CP_MODELS = ("ideal", "scheme1", "scheme2")
# 3e4 raises ZeroDivisionError today. Four sizes make the successful tasks
# of a cycle odd in number, so the median lands inside one task size.
TRANSFER_QUBITS = (100, 1_000, 10_000, 30_000)
TRANSFER_ETA = 0.9

# (memories, steps): more memories get fewer steps, so programs cost alike
TIMELINE_SIZES = ((6, 400), (8, 325), (10, 250), (12, 175), (14, 100))
TIMELINE_BOX_UM = 20.0  # every pair sits within the default hard:40 reach
TIMELINE_THRESHOLD = 0.01
# one CP pair per this many memories in every step, so a program's cost
# does not depend on the seed
TIMELINE_MEMORIES_PER_CP = 4

MICRO_PROTOCOLS = (
    "write-pi-2pi-pi-read",
    "write-write-pi-read-read",
    "write-write-2pi-read-read",
    "write-write-0.5pi-read",
)
BLOCKADE_KINDS = ("perfect", "hard", "c6")
TWO_PHOTON_ATOMS = (30, 80, 130)  # ladders are jittered by up to ATOM_JITTER
ATOM_JITTER = 10
# (control, target) atoms of the three scheme1_cp_micro calls per cycle
CP_MICRO_ATOMS = ((60, 390), (225, 225), (390, 60))
KVEC = np.array([8.0, 0.0, 0.0])

WORK_UNITS = {
    "sweep": "Haar samples",
    "dense": "amplitude updates (2^n x ops)",
    "timeline": "executed steps x memories",
    "atom": "pair blocks driven",
}


@dataclass
class Task:
    """One unit of timed work and the check applied to its output.

    ``check(outcome)`` returns a failure reason or None; it may add fields
    to ``outcome``: the cnot-sweep check stores the RMS Haar stderr, and
    the timeline check stores ``work``, which only the output tells.
    """

    kind: str
    work: float
    check: Callable[[dict], str | None]
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None
    call_desc: str = ""


@dataclass
class Workload:
    name: str
    cycles: list[list[Task]]
    warmup: list[Task]
    inputs_sha256: str
    work_unit: str


# ------------------------------------------------------------ work units


def amplitude_updates(n_qubits: int, n_ops: int) -> float:
    """Dense state-vector work: every op touches all 2^n amplitudes."""
    return float(2**n_qubits * n_ops)


def micro_pair_blocks(ops: str, n_atoms: int) -> float:
    """Blocks a `micro` protocol drives: C(N,2) per pulse on a two-photon
    state, N per pulse on a one-photon state, nothing on vacuum."""
    photons = 0
    blocks = 0
    for token in ops.lower().split("-"):
        if token == "write":
            photons += 1
        elif token == "read":
            photons -= 1
        elif token.endswith("pi"):
            if photons == 2:
                blocks += math.comb(n_atoms, 2)
            elif photons == 1:
                blocks += n_atoms
    return float(blocks)


def cp_micro_pair_blocks(n_control: int, n_target: int) -> float:
    """scheme1_cp_micro drives pi, 2pi, pi per basis input; the control
    pulses hold one photon for inputs 10 and 11, the target pulse for 01
    and 11."""
    return float(2 * 2 * n_control + 2 * n_target)


# ---------------------------------------------------------------- checks


def _json(outcome: dict) -> dict:
    return json.loads(outcome["stdout"])


def _in_unit(x: float) -> bool:
    return math.isfinite(x) and -1e-9 <= x <= 1.0 + 1e-9


def _check_sweep(eta_min: float, eta_max: float, seed: int):
    grid = np.linspace(eta_min, eta_max, SWEEP_STEPS)

    def check(outcome: dict) -> str | None:
        lines = outcome["stdout"].splitlines()
        if lines[0] != "eta,fidelity_basis,fidelity_haar,haar_stderr,efficiency,samples,seed":
            return "unexpected CSV header"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != SWEEP_STEPS:
            return f"expected {SWEEP_STEPS} rows, got {len(rows)}"
        stderrs = []
        for eta, row in zip(grid, rows):
            eff = float(row[4])
            if abs(eff - (1.0 + eta) ** 2 / 4.0) > 1e-12:
                return f"efficiency {eff!r} != (1+eta)^2/4 at eta={eta!r}"
            if not (_in_unit(float(row[1])) and _in_unit(float(row[2]))):
                return f"fidelity out of [0,1] at eta={eta!r}"
            if int(row[5]) != SWEEP_SAMPLES or int(row[6]) != seed:
                return "samples/seed columns do not echo the flags"
            if float(row[3]) > 0.0:
                stderrs.append(float(row[3]))
        if stderrs:
            outcome["haar_rms_stderr"] = math.sqrt(sum(s * s for s in stderrs) / len(stderrs))
        return None

    return check


def _check_pulse(outcome: dict) -> str | None:
    rec = _json(outcome)
    for key in ("fidelity_basis", "fidelity_haar", "fidelity_process"):
        if not _in_unit(rec[key]):
            return f"{key} = {rec[key]!r} out of [0,1]"
    if not _in_unit(rec["leakage"]):
        return f"leakage {rec['leakage']!r} out of [0,1]"
    if np.array(rec["matrix"]).shape != (4, 4, 2):
        return "matrix is not 4x4"
    return None


def _check_ghz_dense(n: int, eta: float, topology: str):
    def check(outcome: dict) -> str | None:
        rec = _json(outcome)
        ref_f, ref_e = paqsim.ghz_transfer_eval(n, eta, paqsim.GhzTopology(topology))
        gap = max(abs(rec["fidelity"] - ref_f), abs(rec["efficiency"] - ref_e))
        if not gap <= 1e-10:
            return f"dense GHZ differs from transfer by {gap:.3e} (> 1e-10)"
        return None

    return check


def _check_ghz_transfer(outcome: dict) -> str | None:
    rec = _json(outcome)
    if not (_in_unit(rec["fidelity"]) and _in_unit(rec["efficiency"])):
        return "transfer GHZ fidelity/efficiency out of [0,1]"
    return None


def _check_run(n: int):
    def check(outcome: dict) -> str | None:
        rec = _json(outcome)
        p = rec["success_probability"]
        if rec["n_qubits"] != n or not _in_unit(p):
            return f"bad n_qubits or success probability {p!r}"
        total = sum(re * re + im * im for re, im in rec["amplitudes"].values())
        if abs(total - p) > 1e-9:
            return f"amplitudes carry {total!r}, success probability says {p!r}"
        return None

    return check


def _check_timeline(n: int, steps: int):
    def check(outcome: dict) -> str | None:
        rec = _json(outcome)
        survival = rec["per_step_survival"]
        if rec["n_qms"] != n or len(survival) != rec["executed_steps"] or len(survival) > steps:
            return "memory count or executed steps inconsistent with the program"
        product = 1.0
        for s in survival:
            product *= s
        cum = rec["cumulative_success"]
        if abs(cum - product) > 1e-12 * max(abs(product), 1e-300):
            return f"cumulative_success {cum!r} != product of per_step_survival {product!r}"
        outcome["work"] = float(rec["executed_steps"] * n)
        return None

    return check


def _check_micro(ops: str, n_atoms: int, eta: float):
    def check(outcome: dict) -> str | None:
        rec = _json(outcome)
        reads = rec["reads"]
        if rec["n_atoms"] != n_atoms or len(reads) != ops.split("-").count("read"):
            return "atom count or read count inconsistent with the protocol"
        if not all(math.isfinite(x) for r in reads for x in r) or not math.isfinite(rec["norm_sq"]):
            return "non-finite read amplitude or norm"
        if ops == "write-pi-2pi-pi-read":
            # pi, 2pi, pi on one photon multiply to +1; retrieval adds sqrt(eta)
            re, im = reads[0]
            if abs(re - math.sqrt(eta)) > 1e-9 or abs(im) > 1e-9:
                return f"sandwiched read {reads[0]!r} != +sqrt(eta)"
        return None

    return check


def _check_cp_micro(eta: float):
    def check(outcome: dict) -> str | None:
        micro = outcome["result"].entries
        macro = paqsim.scheme1_cp_matrix(eta).entries
        gap = float(np.max(np.abs(micro - macro)))
        if not gap <= 1e-12:
            return f"scheme1_cp_micro differs from scheme1_cp_matrix by {gap:.3e} (> 1e-12)"
        return None

    return check


# ------------------------------------------------------------ generation


class _Inputs:
    """Writes input files and hashes every input so equal seeds can be
    shown to give equal bytes. Paths are hashed relative to the work
    directory, which differs between processes."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.sha = hashlib.sha256()

    def file(self, name: str, text: str) -> str:
        data = text.encode("utf-8")
        (self.workdir / name).write_bytes(data)
        self.sha.update(name.encode() + b"\0" + data + b"\0")
        return str(self.workdir / name)

    def argv(self, argv: list[str]) -> list[str]:
        rel = [a.replace(str(self.workdir), "<work>") for a in argv]
        self.sha.update("\0".join(rel).encode() + b"\1")
        return argv

    def arrays(self, desc: str, *arrays: np.ndarray) -> str:
        self.sha.update(desc.encode() + b"\0")
        for a in arrays:
            self.sha.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return desc


def _cli(inputs: _Inputs, kind: str, argv: list[str], work: float, check) -> Task:
    return Task(kind, work, check, argv=inputs.argv(argv))


def _u(rng: np.random.Generator, lo: float, hi: float, digits: int) -> float:
    return round(float(rng.uniform(lo, hi)), digits)


def _sweep_cycle(inputs: _Inputs, rng: np.random.Generator, cycle: int) -> list[Task]:
    tasks = []
    for j in range(5):
        eta_min = _u(rng, 0.05, 0.45, 3)
        if cycle == 0 and j == 0:
            eta_min = 0.0  # the README's own grid start; exits 4 today
        eta_max = _u(rng, 0.6, 1.0, 3)
        seed = int(rng.integers(2**31))
        argv = ["cnot-sweep", "--eta-min", repr(eta_min), "--eta-max", repr(eta_max),
                "--steps", str(SWEEP_STEPS), "--samples", str(SWEEP_SAMPLES), "--seed", str(seed)]
        tasks.append(_cli(inputs, "cnot-sweep", argv, float(SWEEP_STEPS * SWEEP_SAMPLES),
                          _check_sweep(eta_min, eta_max, seed)))
    for j, kind in enumerate(BLOCKADE_KINDS):
        scheme = 1 + (cycle + j) % 2
        argv = ["pulse", "--scheme", str(scheme), "--eta", repr(_u(rng, 0.3, 1.0, 4)),
                "--seed", str(int(rng.integers(2**31)))]
        if kind == "hard":
            argv += ["--blockade", f"hard:{_u(rng, 10.0, 40.0, 2)!r}",
                     "--distance-um", repr(_u(rng, 5.0, 50.0, 2))]
        elif kind == "c6":
            argv += ["--blockade", f"c6:{_u(rng, 1e3, 1e5, 1)!r}",
                     "--distance-um", repr(_u(rng, 5.0, 20.0, 2))]
        tasks.append(_cli(inputs, "pulse", argv, float(SWEEP_SAMPLES), _check_pulse))
    order = rng.permutation(len(tasks))
    if cycle == 0:
        order = [0] + [i for i in order if i != 0]  # the eta = 0 task runs first
    return [tasks[i] for i in order]


def _circuit_text(rng: np.random.Generator, n: int) -> str:
    lines = [f"qubits {n}"]
    for i in rng.permutation(len(GATE_KINDS)):
        kind = GATE_KINDS[i]
        if kind in ("cp", "cnot"):
            a, b = rng.choice(n, 2, replace=False)
            lines.append(f"{kind} {a} {b}")
        elif kind in ("qwp", "hwp"):
            lines.append(f"{kind} {rng.integers(n)} {_u(rng, 0.0, 180.0, 3)!r}")
        else:
            lines.append(f"{kind} {rng.integers(n)}")
    return "\n".join(lines) + "\n"


def _dense_cycle(inputs: _Inputs, rng: np.random.Generator, cycle: int) -> list[Task]:
    tasks = []
    for n in GHZ_DENSE_QUBITS:
        topology = ("star", "chain")[(n + cycle) % 2]
        eta = _u(rng, 0.3, 1.0, 4)
        argv = ["ghz", "--n", str(n), "--eta", repr(eta), "--topology", topology, "--method", "dense"]
        tasks.append(_cli(inputs, "ghz-dense", argv, amplitude_updates(n, n),
                          _check_ghz_dense(n, eta, topology)))
    for n in CIRCUIT_QUBITS:
        path = inputs.file(f"c{cycle}-q{n}.qc", _circuit_text(rng, n))
        bits = "".join(str(b) for b in rng.integers(0, 2, n))
        argv = ["run", path, "--eta", repr(_u(rng, 0.5, 1.0, 4)),
                "--cp-model", str(rng.choice(CP_MODELS)), "--input", bits]
        tasks.append(_cli(inputs, "run", argv, amplitude_updates(n, len(GATE_KINDS)), _check_run(n)))
    for n in TRANSFER_QUBITS:
        argv = ["ghz", "--n", str(n), "--eta", repr(TRANSFER_ETA),
                "--topology", str(rng.choice(("star", "chain"))), "--method", "transfer"]
        tasks.append(_cli(inputs, "ghz-transfer", argv, 0.0, _check_ghz_transfer))
    return [tasks[i] for i in rng.permutation(len(tasks))]


def _timeline_text(rng: np.random.Generator, n: int, steps: int) -> str:
    pos = np.round(rng.uniform(0.0, TIMELINE_BOX_UM, (n, 2)), 3).tolist()
    plates = np.where(rng.random((steps, n)) < 0.5, "qwp", "hwp").tolist()
    angles = np.round(rng.uniform(0.0, 180.0, (steps, n)), 3).tolist()
    lines = [f"qms {n}"] + [f"pos {i} {x!r} {y!r}" for i, (x, y) in enumerate(pos)]
    for step in range(steps):
        lines.append("step:")
        lines += [f"    pmu {q} {p} {a!r}" for q, (p, a) in enumerate(zip(plates[step], angles[step]))]
        perm = rng.permutation(n)
        lines += [f"    cp {perm[2 * k]} {perm[2 * k + 1]}" for k in range(n // TIMELINE_MEMORIES_PER_CP)]
    return "\n".join(lines) + "\n"


def _timeline_cycle(inputs: _Inputs, rng: np.random.Generator, cycle: int) -> list[Task]:
    tasks = []
    for n, steps in TIMELINE_SIZES:
        path = inputs.file(f"t{cycle}-m{n}.qtl", _timeline_text(rng, n, steps))
        argv = ["timeline", path, "--eta", repr(_u(rng, 0.9995, 0.99999, 6)),
                "--threshold", repr(TIMELINE_THRESHOLD)]
        # work comes from the output: executed steps x memories
        tasks.append(_cli(inputs, "timeline", argv, 0.0, _check_timeline(n, steps)))
    return [tasks[i] for i in rng.permutation(len(tasks))]


def _blockade_spec(rng: np.random.Generator, kind: str, sigma: float) -> str:
    if kind == "perfect":
        return "perfect"
    if kind == "hard":
        # median pair distance in a Gaussian cloud is about 2.2 sigma
        return f"hard:{round(sigma * float(rng.uniform(1.8, 2.6)), 3)!r}"
    return f"c6:{round(sigma**6 * float(rng.uniform(10.0, 1000.0)), 3)!r}"


def _atom_cycle(inputs: _Inputs, rng: np.random.Generator, cycle: int) -> list[Task]:
    tasks = []
    for p, ops in enumerate(MICRO_PROTOCOLS):
        if p == 0:
            n = int(rng.integers(20, 151))
        else:
            n = TWO_PHOTON_ATOMS[(p + 2 * cycle) % 3] + int(rng.integers(-ATOM_JITTER, ATOM_JITTER + 1))
        sigma = _u(rng, 1.0, 3.0, 3)
        eta = _u(rng, 0.8, 1.0, 4)
        blockade = _blockade_spec(rng, BLOCKADE_KINDS[(p + cycle) % 3], sigma)
        argv = ["micro", ops, "--atoms", str(n), "--sigma-um", repr(sigma),
                "--seed", str(int(rng.integers(2**31))), "--eta", repr(eta), "--blockade", blockade]
        tasks.append(_cli(inputs, "micro", argv, micro_pair_blocks(ops, n), _check_micro(ops, n, eta)))
    for base_c, base_t in CP_MICRO_ATOMS:
        n_c, n_t = (b + int(rng.integers(-ATOM_JITTER, ATOM_JITTER + 1)) for b in (base_c, base_t))
        sigma = _u(rng, 1.0, 3.0, 3)
        eta = _u(rng, 0.5, 1.0, 4)
        ctrl = rng.normal(0.0, sigma, (n_c, 3))
        tgt = rng.normal(0.0, sigma, (n_t, 3)) + np.array([_u(rng, 5.0, 15.0, 3), 0.0, 0.0])
        desc = inputs.arrays(f"scheme1_cp_micro(eta={eta!r}, Perfect(), N={n_c}/{n_t})", ctrl, tgt, KVEC)
        tasks.append(Task("scheme1_cp_micro", cp_micro_pair_blocks(n_c, n_t), _check_cp_micro(eta),
                          call=_cp_micro_call(eta, ctrl, tgt), call_desc=desc))
    return [tasks[i] for i in rng.permutation(len(tasks))]


def _cp_micro_call(eta: float, ctrl: np.ndarray, tgt: np.ndarray):
    control = paqsim.EnsembleConfig(ctrl, KVEC)
    target = paqsim.EnsembleConfig(tgt, KVEC)

    def call():
        # looked up at call time so a traced run sees the wrapped function
        return paqsim.scheme1_cp_micro(eta, paqsim.Perfect(), control, target)

    return call


def _warmup(inputs: _Inputs, name: str) -> list[Task]:
    """Tasks like the timed ones, at smaller sizes where those are costly,
    run once during set-up so lazy imports and first-call allocations land
    before the first timed task."""
    ok = lambda outcome: None  # noqa: E731
    if name == "sweep":
        argvs = [["cnot-sweep", "--eta-min", "0.3", "--eta-max", "0.9", "--steps", str(SWEEP_STEPS),
                  "--samples", str(SWEEP_SAMPLES)],
                 ["pulse", "--scheme", "2", "--eta", "0.9", "--blockade", "c6:5000"]]
    elif name == "dense":
        text = "qubits 12\nh 0\np 1\nx90 2\nqwp 3 10\nhwp 4 20\ncp 5 6\ncnot 7 11\n"
        # 16 MiB states at n = 20 raise malloc's mmap threshold, which the
        # first timed task of each size up to n = 20 would otherwise pay for
        argvs = [["ghz", "--n", "20", "--eta", "0.9", "--method", "dense"],
                 ["run", inputs.file("warm.qc", text), "--eta", "0.9", "--cp-model", "scheme1"],
                 ["ghz", "--n", "100", "--eta", "0.9"]]
    elif name == "timeline":
        text = _timeline_text(np.random.default_rng(0), 6, 50)
        argvs = [["timeline", inputs.file("warm.qtl", text), "--eta", "0.9999"]]
    else:
        argvs = [["micro", "write-write-pi-read-read", "--atoms", "40", "--blockade", "c6:100"],
                 ["micro", "write-write-2pi-read-read", "--atoms", "40"],
                 ["micro", "write-pi-2pi-pi-read", "--atoms", "40", "--blockade", "hard:2"]]
    tasks = [Task("warmup", 0.0, ok, argv=argv) for argv in argvs]
    if name == "atom":
        cloud = np.random.default_rng(0).normal(0.0, 2.0, (50, 3))
        tasks.append(Task("warmup", 0.0, ok, call=_cp_micro_call(0.9, cloud, cloud + 8.0)))
    return tasks


_CYCLES = {"sweep": _sweep_cycle, "dense": _dense_cycle, "timeline": _timeline_cycle, "atom": _atom_cycle}
_SALT = {"sweep": 1, "dense": 2, "timeline": 3, "atom": 4}
NAMES = tuple(_CYCLES)


def build(name: str, seed: int, n_cycles: int, workdir: Path) -> Workload:
    """Generate every input of a run. Cycle c draws from its own stream
    (seed, workload, c), so a cycle's inputs do not depend on n_cycles."""
    inputs = _Inputs(workdir)
    cycles = [
        _CYCLES[name](inputs, np.random.default_rng([seed % 2**64, _SALT[name], c]), c)
        for c in range(n_cycles)
    ]
    warmup = _warmup(inputs, name)
    return Workload(name, cycles, warmup, inputs.sha.hexdigest(), WORK_UNITS[name])

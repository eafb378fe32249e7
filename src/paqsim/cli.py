"""Command-line interface.

Subcommands map one-to-one onto the engines:

    cnot-sweep   CSV of CNOT fidelity/efficiency over an eta grid
    ghz          GHZ fidelity/efficiency, dense or transfer-matrix
    pulse        effective 4x4 CP matrix of either scheme, with fidelities
    run          execute a .qc circuit file
    timeline     execute a .qtl recycling program
    micro        atom-level memory protocol driver

pulse, run and timeline read their CP gate from one pulses.CpScheme.
pulse and run take its B/Omega from --b-over-omega (pulse defaults to the
blockade's shift at --distance-um); timeline has no such flag, since
run_timeline takes each CP pair's shift from its distance under --blockade.
Everything is deterministic given the flags and seed; repeated runs emit
byte-identical CSV/JSON on stdout. The Haar-average fidelity is the
exact quadrature (metrics.haar_exact_gate_fidelity), so its stderr
column is 0 and --samples/--seed are only echoed, once checked to be
>= 1 and >= 0. Anchor checks against the ANCHORS reference values are
printed to stderr so stdout stays machine-parseable. Exit codes: 0 ok, 2 parse
error, 3 config error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import ConfigError, PaqsimError
from .gates import (
    CNOT,
    CP,
    GhzTopology,
    ghz_dense_eval,
    ghz_transfer_eval,
    lossy_cnot,
    run_circuit,
)
from .memory import (
    EnsembleConfig,
    apply_collective_pulse,
    gaussian_cloud,
    read_photon,
    vacuum_state,
    write_photon,
)
from .metrics import (
    basis_avg_gate_fidelity,
    efficiency_basis_avg,
    haar_exact_gate_fidelity,
    process_fidelity_postselected,
)
from .pulses import (
    CP_KINDS,
    CpScheme,
    HardSphere,
    Perfect,
    PowerLaw,
    PulseSpec,
    _eta,
)
from .qcir import _header, parse_circuit, parse_timeline
from .qstate import MAX_QUBITS, init_basis
from .timeline import max_depth, run_timeline


# The one table of headline numbers, label -> (reference, bound); the
# acceptance tests assert the same entries. A line reads PASS when
# |computed - reference| <= bound.
ANCHORS: dict[str, tuple[float, float]] = {
    "eta=0.33 efficiency": (0.4422, 1e-4),
    "eta=0.33 fidelity_basis": (0.9319, 1e-4),
    "ghz3 eta=0.58 efficiency": (0.4170, 5e-4),
    "ghz3 eta=0.58 fidelity": (0.901, 2e-3),
    "ghz100 eta=0.9 fidelity": (0.4721, 5e-3),
    "scheme2 pair return": (-0.97517, 1e-5),
    "scheme2 leakage": (0.049025, 1e-5),
    "scheme1 ideal CP": (0.0, 1e-12),  # largest |entry - CP entry|
}

# largest cnot-sweep grid, about 430 B of text and records per point: 1,000,000
# points peak at 578 MiB of address space (140 s), 5,000,000 at 2,204 MiB
# (11 min), and about 6,800,000 run out under a 3 GB address-space limit
MAX_STEPS = 5_000_000


def _anchor(label: str, computed: float) -> None:
    reference, bound = ANCHORS[label]
    verdict = "PASS" if abs(computed - reference) <= bound else "FAIL"
    print(f"anchor {label}: computed {computed:.6g}, expected {reference:.6g} -> {verdict}",
          file=sys.stderr)


def _parse_blockade(spec: str):
    s = spec.strip().lower()
    if s == "perfect":
        return Perfect()
    kind, sep, value = s.partition(":")
    models = {"hard": HardSphere, "c6": PowerLaw}
    if sep and kind in models:
        try:
            return models[kind](float(value))
        except ValueError:
            pass
    raise ConfigError(
        f"bad blockade spec {spec!r}; use perfect, hard:<radius_um>, or c6:<Omega.um6>"
    )


def _parse_three(spec: str, what: str) -> tuple[float, float, float]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{what} need three comma-separated values, got {spec!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{what} must be numbers, got {spec!r}") from None


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _amplitudes_json(state) -> dict:
    amps = state.amplitudes
    idx = np.flatnonzero(np.abs(amps) > 1e-12)
    picked = amps[idx]
    return {
        format(i, f"0{state.n_qubits}b"): [re, im]
        for i, re, im in zip(idx.tolist(), picked.real.tolist(), picked.imag.tolist())
    }


def _echo_flags(args) -> None:
    """The one check on the echo-only --samples and --seed."""
    if args.samples < 1:
        raise ConfigError(f"need at least one sample, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")


def _cp_scheme(args, kind: str, blockade=None) -> CpScheme:
    """The one reader of the scheme flags; pulse's B/Omega defaults to the
    blockade's, and timeline's is inf, for run_timeline to fill in per pair."""
    b_over = args.b_over_omega
    if b_over is None:
        b_over = float(blockade.shift_over_rabi(args.distance_um))
    errors = _parse_three(args.area_errors, "area errors")
    return CpScheme(kind, b_over, errors, args.area_pi * math.pi)


def _cmd_cnot_sweep(args) -> int:
    _echo_flags(args)
    if not (0.0 <= args.eta_min <= 1.0 and 0.0 <= args.eta_max <= 1.0):
        raise ConfigError("eta bounds must lie in [0,1]")
    if args.eta_min >= args.eta_max:
        raise ConfigError("--eta-min must be strictly below --eta-max")
    if not 1 <= args.steps <= MAX_STEPS:  # before a grid array is formed
        raise ConfigError(f"need 1 to {MAX_STEPS} grid points, got {args.steps}")
    grid = np.linspace(args.eta_min, args.eta_max, args.steps)
    results = []
    lines = ["eta,fidelity_basis,fidelity_haar,haar_stderr,efficiency,samples,seed"]
    for eta in grid:
        gate = lossy_cnot(eta)
        basis = basis_avg_gate_fidelity(gate, CNOT)
        haar = haar_exact_gate_fidelity(gate, CNOT)
        eff = efficiency_basis_avg(gate)
        results.append((basis, eff))
        lines.append(
            f"{eta:.12g},{basis:.12g},{haar:.12g},0,"
            f"{eff:.12g},{args.samples},{args.seed}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)

    for eta, (basis, eff) in zip(grid, results):
        if abs(eta - 0.33) < 1e-9:
            _anchor("eta=0.33 efficiency", eff)
            _anchor("eta=0.33 fidelity_basis", basis)
    return 0


def _cmd_ghz(args) -> int:
    topology = GhzTopology(args.topology)
    if args.method == "dense":
        fidelity, efficiency = ghz_dense_eval(args.n, args.eta, topology)
    else:
        fidelity, efficiency = ghz_transfer_eval(args.n, args.eta, topology)
    record = {
        "n": args.n,
        "eta": args.eta,
        "topology": topology.value,
        "fidelity": fidelity,
        "efficiency": efficiency,
        "method": args.method,
    }
    print(json.dumps(record))
    star = topology is GhzTopology.STAR  # the GHZ references are star values
    if star and args.n == 3 and abs(args.eta - 0.58) < 1e-9:
        _anchor("ghz3 eta=0.58 efficiency", efficiency)
        _anchor("ghz3 eta=0.58 fidelity", fidelity)
    if star and args.n == 100 and abs(args.eta - 0.9) < 1e-9:
        _anchor("ghz100 eta=0.9 fidelity", fidelity)
    return 0


def _cmd_pulse(args) -> int:
    _echo_flags(args)
    if not math.isfinite(args.area_pi):  # scheme 1 only echoes it
        raise ConfigError(f"--area-pi must be finite, got {args.area_pi}")
    blockade = _parse_blockade(args.blockade)
    scheme = _cp_scheme(args, f"scheme{args.scheme}", blockade)
    b_over = scheme.b_over_rabi
    gate, ideal_ref = scheme.gate(args.eta), scheme.gate(1.0)
    leakage = 1.0 - abs(ideal_ref.entries[3, 3]) ** 2

    basis = basis_avg_gate_fidelity(gate, CP)
    haar = haar_exact_gate_fidelity(gate, CP)
    process = process_fidelity_postselected(gate, CP)
    record = {
        "scheme": args.scheme,
        "eta": args.eta,
        "area_pi": args.area_pi,
        "b_over_omega": None if math.isinf(b_over) else b_over,
        "matrix": _matrix_json(gate.entries),
        "leakage": leakage,
        "fidelity_basis": basis,
        "fidelity_haar": haar,
        "haar_stderr": 0.0,
        "fidelity_process": process,
        "samples": args.samples,
        "seed": args.seed,
    }
    print(json.dumps(record))

    if args.scheme == 2 and args.eta == 1.0 and args.area_pi == 10.0 \
            and math.isinf(b_over):
        _anchor("scheme2 pair return", gate.entries[3, 3].real)
        _anchor("scheme2 leakage", leakage)
    if args.scheme == 1 and args.eta == 1.0 and math.isinf(b_over) \
            and scheme.area_errors == (1.0, 1.0, 1.0):
        _anchor("scheme1 ideal CP", float(np.max(np.abs(gate.entries - CP.entries))))
    return 0


def _cmd_run(args) -> int:
    _eta(args.eta)
    text = _read_text(args.circuit)
    _header(text, "qubits", "qubit count", MAX_QUBITS)  # a run forms the 2^n state
    circuit = parse_circuit(text)
    scheme = _cp_scheme(args, args.cp_model)
    initial = None
    if args.input is not None:
        initial = init_basis(circuit.n_qubits, args.input)
    state = run_circuit(circuit, args.eta, scheme, initial)
    record = {
        "n_qubits": circuit.n_qubits,
        "success_probability": state.norm_sq,
        "amplitudes": _amplitudes_json(state),
    }
    print(json.dumps(record))
    return 0


def _cmd_timeline(args) -> int:
    program = parse_timeline(_read_text(args.program))
    blockade = _parse_blockade(args.blockade)
    scheme = _cp_scheme(args, args.cp_model)
    trace = run_timeline(program, args.eta, scheme, args.threshold, blockade)
    depth = max_depth(args.eta, args.threshold, program.n_qms)
    record = {
        "n_qms": program.n_qms,
        "executed_steps": trace.executed_steps,
        "per_step_survival": [float(s) for s in trace.per_step_survival],
        "cumulative_success": trace.cumulative_success,
        "max_depth": depth,
        "final_amplitudes": _amplitudes_json(trace.final_state),
    }
    print(json.dumps(record))
    return 0


def _cmd_micro(args) -> int:
    _eta(args.eta)
    kvec = _parse_three(args.kvec, "wavevector components")
    positions = gaussian_cloud(args.atoms, args.sigma_um, args.seed)
    ensemble = EnsembleConfig(positions, kvec)
    blockade = _parse_blockade(args.blockade)
    state = vacuum_state()
    reads = []
    tokens = [t for t in args.ops.split("-") if t]
    if not tokens:
        raise ConfigError("empty protocol; give ops like write-pi-read")
    for token in tokens:
        t = token.lower()
        if t == "write":
            state = write_photon(ensemble, state)
        elif t == "read":
            amp, state = read_photon(ensemble, state, args.eta)
            reads.append([float(np.real(amp)), float(np.imag(amp))])
        elif t.endswith("pi"):
            mult = t[:-2]
            try:
                area = math.pi * (float(mult) if mult else 1.0)
            except ValueError:
                raise ConfigError(f"bad pulse token {token!r}") from None
            state = apply_collective_pulse(
                state, PulseSpec(area), blockade, ensemble
            )
        else:
            raise ConfigError(
                f"unknown op {token!r}; use write, read, or <mult>pi"
            )
    amps = {  # state.amplitudes iterates in sorted configuration order
        ";".join(f"{lvl}@{i}" for i, lvl in config) or "vac": [a.real, a.imag]
        for config, a in state.amplitudes.items()
    }
    record = {
        "n_atoms": args.atoms,
        "ops": tokens,
        "reads": reads,
        "norm_sq": state.norm_sq(),
        "rydberg_population": state.rydberg_population(),
        "amplitudes": amps,
    }
    print(json.dumps(record))
    return 0


def _add_blockade_options(sub, default, with_distance=False):
    sub.add_argument("--blockade", default=default,
                     help="perfect | hard:<radius_um> | c6:<Omega.um6>")
    if with_distance:
        sub.add_argument("--distance-um", type=float, default=10.0,
                         help="atom separation for finite-range blockade models")


def _add_scheme_options(sub, with_model=True, with_shift=True):
    if with_model:
        sub.add_argument("--cp-model", choices=CP_KINDS,
                         default="ideal", help="CP gate realization")
    sub.add_argument("--area-pi", type=float, default=10.0,
                     help="scheme 2 pulse area in units of pi")
    sub.add_argument("--area-errors", default="1,1,1",
                     help="scheme 1 per-pulse area multipliers e1,e2,e3")
    if with_shift:
        sub.add_argument("--b-over-omega", type=float, default=math.inf,
                         help="blockade shift over Rabi frequency")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paqsim",
        description="Photon-atom quantum gate and memory-timeline simulator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("cnot-sweep", help="CNOT fidelity/efficiency vs eta")
    sweep.add_argument("--eta-min", type=float, default=0.0)
    sweep.add_argument("--eta-max", type=float, default=1.0)
    sweep.add_argument("--steps", type=int, default=101)
    sweep.add_argument("--samples", type=int, default=20_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", help="CSV path (default stdout)")
    sweep.set_defaults(func=_cmd_cnot_sweep)

    ghz = subs.add_parser("ghz", help="GHZ state fidelity/efficiency")
    ghz.add_argument("--n", type=int, required=True)
    ghz.add_argument("--eta", type=float, required=True)
    ghz.add_argument("--topology", default="star", choices=("star", "chain"))
    ghz.add_argument("--method", default="transfer", choices=("dense", "transfer"))
    ghz.set_defaults(func=_cmd_ghz)

    pulse = subs.add_parser("pulse", help="effective CP matrix of a scheme")
    pulse.add_argument("--scheme", type=int, required=True, choices=(1, 2))
    pulse.add_argument("--eta", type=float, default=1.0)
    _add_blockade_options(pulse, "perfect", with_distance=True)
    pulse.add_argument("--samples", type=int, default=20_000)
    pulse.add_argument("--seed", type=int, default=0)
    _add_scheme_options(pulse, with_model=False)
    pulse.set_defaults(func=_cmd_pulse, b_over_omega=None)

    run = subs.add_parser("run", help="execute a .qc circuit file")
    run.add_argument("circuit", help=".qc file")
    run.add_argument("--eta", type=float, default=1.0)
    run.add_argument("--input", help="basis input bits, default all zeros")
    _add_scheme_options(run)
    run.set_defaults(func=_cmd_run)

    timeline = subs.add_parser("timeline", help="execute a .qtl program")
    timeline.add_argument("program", help=".qtl file")
    timeline.add_argument("--eta", type=float, default=1.0)
    timeline.add_argument("--threshold", type=float, default=1e-6)
    _add_blockade_options(timeline, "hard:40")
    _add_scheme_options(timeline, with_shift=False)
    timeline.set_defaults(func=_cmd_timeline, b_over_omega=math.inf)

    micro = subs.add_parser("micro", help="atom-level memory protocol")
    micro.add_argument("ops", help="dash-separated ops, e.g. write-pi-2pi-pi-read")
    micro.add_argument("--atoms", type=int, default=3)
    micro.add_argument("--sigma-um", type=float, default=1.0)
    micro.add_argument("--seed", type=int, default=0)
    micro.add_argument("--kvec", default="8.0,0,0",
                       help="photon wavevector, rad/um, comma-separated")
    micro.add_argument("--eta", type=float, default=1.0)
    _add_blockade_options(micro, "perfect")
    micro.set_defaults(func=_cmd_micro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PaqsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code

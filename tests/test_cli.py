"""End-to-end CLI tests: output formats, anchors, determinism, exit codes."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paqsim
from paqsim import (
    CNOT,
    CP,
    ConfigError,
    EmptyMemoryError,
    GatePlacementError,
    MemoryCapacityError,
    NumericError,
    PaqsimError,
    ParseError,
    PostSelectionError,
    basis_avg_gate_fidelity,
    ghz_transfer_eval,
    GhzTopology,
    PowerLaw,
    haar_exact_gate_fidelity,
    lossy_cnot,
    parse_circuit,
    run_circuit,
    scheme1_cp_matrix,
    scheme2_cp_matrix,
)
from paqsim.cli import main

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- cnot-sweep

SWEEP_ARGS = (
    "cnot-sweep",
    "--eta-min", "0.33",
    "--eta-max", "1.0",
    "--steps", "2",
    "--samples", "2000",
)


def test_cnot_sweep_csv(capsys):
    code, out, err = cli(capsys, *SWEEP_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eta,fidelity_basis,fidelity_haar,haar_stderr,efficiency,samples,seed"
    assert len(lines) == 3

    low = lines[1].split(",")
    assert float(low[0]) == 0.33
    assert float(low[1]) == pytest.approx(
        basis_avg_gate_fidelity(lossy_cnot(0.33), CNOT)
    )
    assert low[2] == "0.893125639776"  # the exact Haar average
    assert low[3] == "0"
    assert float(low[4]) == pytest.approx(0.442225)
    assert low[5] == "2000" and low[6] == "0"

    top = lines[2].split(",")
    assert float(top[0]) == 1.0
    assert float(top[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(top[2]) == pytest.approx(1.0, abs=1e-12)
    assert float(top[4]) == pytest.approx(1.0, abs=1e-12)

    anchors = err.splitlines()
    assert len(anchors) == 2
    assert anchors[0].startswith("anchor eta=0.33 efficiency:")
    assert anchors[1].startswith("anchor eta=0.33 fidelity_basis:")
    assert all(a.endswith("-> PASS") for a in anchors)


def test_cnot_sweep_is_deterministic(capsys):
    first = cli(capsys, *SWEEP_ARGS)
    second = cli(capsys, *SWEEP_ARGS)
    assert first == second


def test_cnot_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, err = cli(capsys, *SWEEP_ARGS, "--out", str(out_path))
    assert code == 0
    assert out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("eta,")
    assert len(lines) == 3
    assert "anchor" in err  # anchors still go to stderr


def test_cnot_sweep_bad_arguments(capsys):
    assert cli(capsys, "cnot-sweep", "--steps", "0")[0] == 3
    assert cli(capsys, "cnot-sweep", "--eta-min", "0.5", "--eta-max", "0.4")[0] == 3
    assert cli(capsys, "cnot-sweep", "--eta-max", "1.5")[0] == 3
    _, _, err = cli(capsys, "cnot-sweep", "--steps", "0")
    assert err.startswith("error:")


# ----------------------------------------------------------------------- ghz


def test_ghz_json_record(capsys):
    code, out, err = cli(capsys, "ghz", "--n", "3", "--eta", "0.58")
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["n", "eta", "topology", "fidelity", "efficiency", "method"]
    fid, eff = ghz_transfer_eval(3, 0.58, GhzTopology.STAR)
    assert record["fidelity"] == fid
    assert record["efficiency"] == eff
    assert record["topology"] == "star" and record["method"] == "transfer"
    anchors = err.splitlines()
    assert len(anchors) == 2
    assert all(a.endswith("-> PASS") for a in anchors)


def test_ghz_large_star(capsys):
    code, out, err = cli(capsys, "ghz", "--n", "100", "--eta", "0.9")
    assert code == 0
    record = json.loads(out)
    assert record["fidelity"] == pytest.approx(0.4719076960060601, rel=1e-12)
    assert "ghz100" in err and "PASS" in err


def test_ghz_dense_agrees_with_transfer(capsys):
    _, out_d, _ = cli(capsys, "ghz", "--n", "3", "--eta", "0.7", "--method", "dense")
    _, out_t, _ = cli(capsys, "ghz", "--n", "3", "--eta", "0.7", "--method", "transfer")
    dense, transfer = json.loads(out_d), json.loads(out_t)
    assert dense["fidelity"] == pytest.approx(transfer["fidelity"], abs=1e-10)
    assert dense["efficiency"] == pytest.approx(transfer["efficiency"], abs=1e-10)


@pytest.mark.parametrize("topology", ["star", "chain"])
def test_ghz_transfer_past_underflow(capsys, topology):
    code, out, err = cli(capsys, "ghz", "--n", "30000", "--eta", "0.9",
                         "--topology", topology)
    assert code == 0 and err == ""
    record = json.loads(out)
    assert 0.0 < record["fidelity"] <= 1.0
    assert 0.0 <= record["efficiency"] <= 1.0


def test_ghz_bad_sizes(capsys):
    assert cli(capsys, "ghz", "--n", "1", "--eta", "0.9")[0] == 3
    assert cli(capsys, "ghz", "--n", "23", "--eta", "0.9", "--method", "dense")[0] == 3


def test_bad_choice_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ghz", "--n", "3", "--eta", "0.5", "--topology", "ring"])
    assert info.value.code == 2
    capsys.readouterr()


# --------------------------------------------------------------------- pulse


def test_pulse_scheme2_defaults(capsys):
    code, out, err = cli(capsys, "pulse", "--scheme", "2", "--samples", "200")
    assert code == 0
    record = json.loads(out)
    re, im = record["matrix"][3][3]
    assert re == pytest.approx(-0.9751794822136869, abs=1e-12)
    assert abs(im) < 1e-12
    assert record["leakage"] == pytest.approx(
        1.0 - math.cos(5.0 * math.sqrt(2.0) * math.pi) ** 2, abs=1e-12
    )
    assert record["b_over_omega"] is None
    assert record["fidelity_basis"] == pytest.approx(1.0, abs=1e-12)
    assert err.splitlines() == [
        "anchor scheme2 pair return: computed -0.975179, expected -0.97517 -> PASS",
        "anchor scheme2 leakage: computed 0.049025, expected 0.049025 -> PASS",
    ]


def test_pulse_scheme1_ideal_anchor(capsys):
    code, out, err = cli(capsys, "pulse", "--scheme", "1", "--samples", "200")
    assert code == 0
    record = json.loads(out)
    expect = [1.0, -1.0, -1.0, -1.0]
    for k in range(4):
        re, im = record["matrix"][k][k]
        assert re == pytest.approx(expect[k], abs=1e-12)
        assert abs(im) < 1e-12
    lines = err.splitlines()
    assert len(lines) == 1
    assert "scheme1 ideal CP" in lines[0] and lines[0].endswith("-> PASS")


def test_pulse_blockade_off_flips_sign(capsys):
    code, out, err = cli(
        capsys, "pulse", "--scheme", "1", "--samples", "200", "--b-over-omega", "0"
    )
    assert code == 0
    record = json.loads(out)
    re, im = record["matrix"][3][3]
    assert re == pytest.approx(1.0, abs=1e-12)
    assert abs(im) < 1e-12
    assert err == ""  # anchors only fire on the ideal operating point

    _, out, _ = cli(
        capsys, "pulse", "--scheme", "1", "--samples", "200",
        "--b-over-omega", "0", "--eta", "0.33",
    )
    assert json.loads(out)["matrix"][3][3][0] == pytest.approx(0.33, abs=1e-12)


def test_pulse_dead_input_is_numeric_failure(capsys):
    code, _, err = cli(capsys, "pulse", "--scheme", "1", "--eta", "0", "--samples", "200")
    assert code == 4
    assert err.startswith("error:")


# Output of three commands with the two Haar fields as placeholders. Every
# other byte equals what the earlier Monte Carlo estimator's CLI printed.
FROZEN_SWEEP = (
    "eta,fidelity_basis,fidelity_haar,haar_stderr,efficiency,samples,seed\n"
    "0.33,0.931922003499,<haar>,<stderr>,0.442225,2000,0\n"
    "0.665,0.989774967877,<haar>,<stderr>,0.69305625,2000,0\n"
    "1,1,<haar>,<stderr>,1,2000,0\n"
)
FROZEN_PULSES = {
    ("--scheme", "2", "--eta", "0.9", "--blockade", "c6:5000", "--seed", "3"): (
        '{"scheme": 2, "eta": 0.9, "area_pi": 10.0, "b_over_omega": 0.005, "matrix": '
        '[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], '
        '[-0.9486832980505138, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], '
        '[-0.9486832980505138, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[0.8982658777260545, -0.05297330350272549]]], "leakage": 0.00038548398648030613, '
        '"fidelity_basis": 1.0, "fidelity_haar": <haar>, "haar_stderr": <stderr>, '
        '"fidelity_process": 0.2769775477297328, "samples": 2000, "seed": 3}\n'
    ),
    ("--scheme", "1", "--eta", "0.5", "--b-over-omega", "3",
     "--area-errors", "1.05,0.97,1.0", "--seed", "1"): (
        '{"scheme": 1, "eta": 0.5, "area_pi": 10.0, "b_over_omega": 3.0, "matrix": '
        '[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], '
        '[-0.7039686162622395, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], '
        '[-0.7049270069651074, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
        '[-0.4402426029890545, -0.23140821498919711]]], "leakage": 0.010546754195741137, '
        '"fidelity_basis": 1.0, "fidelity_haar": <haar>, "haar_stderr": <stderr>, '
        '"fidelity_process": 0.9120155472624146, "samples": 2000, "seed": 1}\n'
    ),
}


def _fill(template: str, haars: list[str], stderr: str) -> str:
    for haar in haars:
        template = template.replace("<haar>", haar, 1).replace("<stderr>", stderr, 1)
    return template


def test_cnot_sweep_prints_the_exact_haar_average_and_nothing_else_new(capsys):
    code, out, _ = cli(capsys, "cnot-sweep", "--eta-min", "0.33", "--eta-max", "1.0",
                       "--steps", "3", "--samples", "2000", "--seed", "0")
    assert code == 0
    haars = [format(haar_exact_gate_fidelity(lossy_cnot(eta), CNOT), ".12g")
             for eta in np.linspace(0.33, 1.0, 3)]
    assert haars[0] == "0.893125639776" and haars[2] == "1"
    assert out == _fill(FROZEN_SWEEP, haars, "0")


@pytest.mark.parametrize("flags", list(FROZEN_PULSES))
def test_pulse_prints_the_exact_haar_average_and_nothing_else_new(capsys, flags):
    code, out, _ = cli(capsys, "pulse", "--samples", "2000", *flags)
    assert code == 0
    record = json.loads(out)
    if flags[1] == "2":
        b_over = PowerLaw(5000.0, 1.0).shift_over_rabi(10.0)
        gate = scheme2_cp_matrix(0.9, 10.0 * math.pi, b_over)
    else:
        gate = scheme1_cp_matrix(0.5, 3.0, (1.05, 0.97, 1.0))
    assert record["fidelity_haar"] == haar_exact_gate_fidelity(gate, CP)
    assert record["haar_stderr"] == 0
    assert out == _fill(FROZEN_PULSES[flags], [repr(record["fidelity_haar"])], "0.0")


# ----------------------------------------------------------------------- run


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text("qubits 2\nh 0\ncnot 0 1\n")
    return str(path)


def test_run_matches_library(bell_file, capsys):
    code, out, _ = cli(capsys, "run", bell_file)
    assert code == 0
    record = json.loads(out)
    assert record["n_qubits"] == 2
    assert set(record["amplitudes"]) == {"00", "11"}
    for re, im in record["amplitudes"].values():
        assert re == pytest.approx(INV_SQRT2, abs=1e-12)
        assert im == 0.0
    expect = run_circuit(parse_circuit("qubits 2\nh 0\ncnot 0 1\n"))
    assert record["success_probability"] == expect.norm_sq


def test_run_with_basis_input(bell_file, capsys):
    code, out, _ = cli(capsys, "run", bell_file, "--input", "11")
    assert code == 0
    amps = json.loads(out)["amplitudes"]
    assert amps["01"][0] == pytest.approx(INV_SQRT2, abs=1e-12)
    assert amps["10"][0] == pytest.approx(-INV_SQRT2, abs=1e-12)
    assert cli(capsys, "run", bell_file, "--input", "012")[0] == 3


def test_run_lossy_success_probability(bell_file, capsys):
    code, out, _ = cli(capsys, "run", bell_file, "--eta", "0.33")
    assert code == 0
    record = json.loads(out)
    expect = run_circuit(parse_circuit("qubits 2\nh 0\ncnot 0 1\n"), eta=0.33)
    assert record["success_probability"] == expect.norm_sq


def test_run_scheme_models(tmp_path, capsys):
    path = tmp_path / "cp.qc"
    path.write_text("qubits 2\ncp 0 1\n")
    _, out, _ = cli(
        capsys, "run", str(path), "--cp-model", "scheme2", "--input", "11"
    )
    amps = json.loads(out)["amplitudes"]
    assert amps["11"][0] == pytest.approx(-0.9751794822136869, abs=1e-12)
    _, out, _ = cli(
        capsys, "run", str(path),
        "--cp-model", "scheme1", "--b-over-omega", "0", "--input", "11",
    )
    amps = json.loads(out)["amplitudes"]
    assert amps["11"][0] == pytest.approx(1.0, abs=1e-12)


def test_run_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits x\n")
    code, _, err = cli(capsys, "run", str(bad))
    assert code == 2
    assert "line 1, column 8" in err
    code, _, err = cli(capsys, "run", str(tmp_path / "missing.qc"))
    assert code == 3
    assert "cannot read" in err


def test_amplitudes_json_keeps_the_old_selection():
    from paqsim import StateVector
    from paqsim.cli import _amplitudes_json

    amps = np.array([1e-12, np.nextafter(1e-12, 1.0), complex(0.5, -0.0), complex(-0.0, 2e-12),
                     0.0, 1e-12j, complex(7e-13, 7.2e-13), -0.25 + 0.125j])
    state = StateVector(3, amps)
    old = {}
    for idx, amp in enumerate(state.amplitudes):
        if abs(amp) > 1e-12:
            old[format(idx, "03b")] = [float(amp.real), float(amp.imag)]
    new = _amplitudes_json(state)
    assert json.dumps(new) == json.dumps(old)
    assert list(new) == ["001", "010", "011", "110", "111"]
    assert new["010"] == [0.5, -0.0] and math.copysign(1.0, new["010"][1]) == -1.0


# ------------------------------------------------------------------ timeline


@pytest.fixture
def idle_file(tmp_path):
    path = tmp_path / "idle.qtl"
    path.write_text("qms 1\n" + "step:\n" * 30)
    return str(path)


def test_timeline_json_record(idle_file, capsys):
    code, out, _ = cli(
        capsys, "timeline", idle_file, "--eta", "0.9", "--threshold", "0.1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["n_qms"] == 1
    assert record["executed_steps"] == 21
    assert record["max_depth"] == 21
    assert len(record["per_step_survival"]) == 21
    assert all(s == pytest.approx(0.9, rel=1e-12) for s in record["per_step_survival"])
    assert record["cumulative_success"] == pytest.approx(0.10941898913151243, abs=1e-15)
    assert record["final_amplitudes"] == {"0": [1.0, 0.0]}


def test_timeline_unit_efficiency_depth_is_null(idle_file, capsys):
    code, out, _ = cli(capsys, "timeline", idle_file)
    assert code == 0
    record = json.loads(out)
    assert record["max_depth"] is None
    assert record["executed_steps"] == 30
    assert record["cumulative_success"] == 1.0


def test_timeline_reach_and_blockade_flags(tmp_path, capsys):
    path = tmp_path / "far.qtl"
    path.write_text("qms 2\npos 0 0\npos 1 50\nstep:\ncp 0 1\n")
    code, _, err = cli(capsys, "timeline", str(path), "--eta", "0.9")
    assert code == 3
    assert "exceeds blockade reach" in err
    code, out, _ = cli(
        capsys, "timeline", str(path), "--eta", "0.9", "--blockade", "hard:60"
    )
    assert code == 0
    assert json.loads(out)["executed_steps"] == 1
    assert cli(capsys, "timeline", str(path), "--blockade", "weird")[0] == 3


# --------------------------------------------------------------------- micro


def test_micro_read_signs(capsys):
    for ops, sign in (
        ("write-pi-pi-read", -1.0),
        ("write-2pi-read", -1.0),
        ("write-pi-2pi-pi-read", 1.0),
    ):
        code, out, _ = cli(capsys, "micro", ops)
        assert code == 0
        record = json.loads(out)
        assert record["ops"] == ops.split("-")
        (re, im), = record["reads"]
        assert re == pytest.approx(sign, abs=1e-9)
        assert abs(im) < 1e-9
        assert record["rydberg_population"] == pytest.approx(0.0, abs=1e-12)
        assert record["amplitudes"] == {"vac": [1.0, 0.0]}


def test_micro_double_write_pairs(capsys):
    code, out, _ = cli(capsys, "micro", "write-write")
    assert code == 0
    record = json.loads(out)
    assert record["reads"] == []
    assert set(record["amplitudes"]) == {"g2@0;g2@1", "g2@0;g2@2", "g2@1;g2@2"}
    for re, im in record["amplitudes"].values():
        assert math.hypot(re, im) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert record["norm_sq"] == pytest.approx(1.0, abs=1e-12)


def test_micro_bad_protocols(capsys):
    assert cli(capsys, "micro", "write-florp")[0] == 3
    assert cli(capsys, "micro", "-")[0] == 3


def test_micro_second_photon_over_pair_cap(capsys):
    code, out, err = cli(capsys, "micro", "write-write", "--atoms", "2001")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: a second photon in 2001 atoms needs C(2001,2) = 2001000 pair "
        "amplitudes, over the cap of 1999000"
    ]


# ---------------------------------------------------------- error handling


NON_FINITE_ARGV = [
    ["pulse", "--scheme", "2", "--area-pi", "nan"],
    ["pulse", "--scheme", "2", "--area-pi", "inf"],
    ["pulse", "--scheme", "1", "--b-over-omega", "nan"],
    ["pulse", "--scheme", "2", "--b-over-omega", "nan"],
    ["pulse", "--scheme", "1", "--area-errors", "nan,1,1"],
    ["pulse", "--scheme", "1", "--blockade", "hard:nan"],
    ["pulse", "--scheme", "1", "--blockade", "c6:nan"],
    ["pulse", "--scheme", "1", "--blockade", "hard:40", "--distance-um", "nan"],
    ["pulse", "--scheme", "1", "--blockade", "c6:1e6", "--distance-um", "inf"],
    ["micro", "write-write-pi", "--blockade", "hard:nan"],
    ["micro", "write-write-pi", "--blockade", "c6:nan"],
    ["micro", "write-pi-read", "--sigma-um", "nan"],
    ["micro", "write-pi-read", "--kvec", "nan,0,0"],
    ["micro", "write-nanpi-read"],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGV, ids=" ".join)
def test_non_finite_numbers_are_config_errors(capsys, argv):
    code, out, err = cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "no g2 excitation" not in err


def test_negative_distance_is_a_config_error(capsys):
    argv = ["pulse", "--scheme", "1", "--blockade", "hard:40", "--distance-um", "-5"]
    code, out, err = cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: blockade distance must be finite and >= 0, got -5.0"]


def test_infinite_shift_is_still_perfect_blockade(capsys):
    code, out, _ = cli(capsys, "pulse", "--scheme", "1", "--b-over-omega", "inf")
    assert code == 0
    assert json.loads(out)["fidelity_basis"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "command, name, text, where",
    [
        ("run", "bad.qc", "qubits 1\nqwp 0 nan\n", "line 2, column 7"),
        ("timeline", "bad.qtl", "qms 1\nstep:\npmu 0 qwp inf\n", "line 3, column 11"),
    ],
)
def test_non_finite_file_numbers_are_parse_errors(tmp_path, capsys, command, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {where}: angle must be finite")


@pytest.mark.parametrize(
    "exc",
    [
        PaqsimError("base"),
        ParseError("bad token", 4, 2),
        ConfigError("bad flag"),
        NumericError("zero norm"),
        MemoryCapacityError("full"),
        EmptyMemoryError("empty"),
        GatePlacementError("too far"),
        PostSelectionError("all lost"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_every_error_class_exits_with_its_code(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(paqsim.cli, "_cmd_ghz", fail)
    code, out, err = cli(capsys, "ghz", "--n", "3", "--eta", "0.5")
    assert code == exc.exit_code
    assert out == ""
    assert err.splitlines() == [f"error: {exc}"]


# ------------------------------------------------------ cross-process checks


def _launcher():
    """Argv prefix and environment that run the CLI of the imported package.

    The installed ``paqsim`` executable is used when it is on PATH, and
    ``python -m paqsim`` otherwise. Either way the directory that holds the
    imported package goes first on the child's PYTHONPATH, so the child runs
    the code under test from any working directory and a stale installed
    copy cannot stand in for it.
    """
    exe = shutil.which("paqsim")
    prefix = [exe] if exe else [sys.executable, "-m", "paqsim"]
    env = dict(os.environ)
    src = str(Path(paqsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return prefix, env


def test_console_script_byte_identical():
    prefix, env = _launcher()
    argv = prefix + ["ghz", "--n", "3", "--eta", "0.58", "--method", "dense"]
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert b"PASS" in first.stderr


def test_console_script_passes_exit_code_through():
    prefix, env = _launcher()
    done = subprocess.run(
        prefix + ["micro", "write-florp"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 3
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr
    assert done.stdout == ""

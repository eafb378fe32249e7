"""End-to-end CLI tests: output formats, anchors, determinism, exit codes."""

import hashlib
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


def test_cnot_sweep_unwritable_out_is_a_config_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "sweep.csv", tmp_path):  # no parent; a directory
        code, out, err = cli(capsys, *SWEEP_ARGS, "--out", str(path))
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err


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


# (flags, SHA-256 of stdout) under a finite blockade with area errors or a
# non-default area, at eta < 1
PINNED_PULSES = [
    (("--scheme", "1", "--blockade", "c6:5000", "--distance-um", "6",
      "--area-errors", "1.05,0.97,0.95", "--eta", "0.7"),
     "2454e7c5b5e82ef794ed6cbf9f86f7421d50e69dc7a1c039335c8cf3d887409d"),
    (("--scheme", "2", "--area-pi", "7", "--b-over-omega", "3", "--eta", "0.8"),
     "99cd2dcef3577c00becd7a04ec744e2e5abd8380e2685c556c109914002e768a"),
]


@pytest.mark.parametrize("flags, digest", PINNED_PULSES,
                         ids=[" ".join(f) for f, _ in PINNED_PULSES])
def test_pulse_stdout_is_pinned(capsys, flags, digest):
    code, out, err = cli(capsys, "pulse", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


# Dense engine output, pinned byte for byte: evolve keeps the qubits still in
# their input value out of its buffers, and the text must not move.
PINNED_GHZ = [
    (("6", "0.9", "star"), '{"n": 6, "eta": 0.9, "topology": "star", "fidelity": '
     '0.9797407225858307, "efficiency": 0.6153454216421861, "method": "dense"}\n'),
    (("9", "0.71", "chain"), '{"n": 9, "eta": 0.71, "topology": "chain", "fidelity": '
     '0.7111785169998183, "efficiency": 0.14897417112255223, "method": "dense"}\n'),
    (("11", "0.55", "chain"), '{"n": 11, "eta": 0.55, "topology": "chain", "fidelity": '
     '0.5087080812189955, "efficiency": 0.03408701866950316, "method": "dense"}\n'),
    (("12", "0.8", "star"), '{"n": 12, "eta": 0.8, "topology": "star", "fidelity": '
     '0.7440838641186668, "efficiency": 0.17038336051844571, "method": "dense"}\n'),
    (("12", "0.8", "chain"), '{"n": 12, "eta": 0.8, "topology": "chain", "fidelity": '
     '0.7519447679496998, "efficiency": 0.16860215627508654, "method": "dense"}\n'),
]


@pytest.mark.parametrize("flags, want", PINNED_GHZ, ids=[" ".join(f) for f, _ in PINNED_GHZ])
def test_dense_ghz_stdout_is_pinned(capsys, flags, want):
    n, eta, topology = flags
    argv = ("ghz", "--n", n, "--eta", eta, "--topology", topology, "--method", "dense")
    assert cli(capsys, *argv) == (0, want, "")


PINNED_CIRCUITS = {
    "r10.qc": "qubits 10\nh 2\np 5\nx90 7\nqwp 2 30\nhwp 5 22.5\ncp 2 5\ncnot 7 2\ncp 5 9\n",
    "r14.qc": "qubits 14\nh 0\nqwp 3 17\ncnot 0 3\nhwp 6 40\nx90 9\ncp 9 6\np 12\n"
              "cnot 3 12\nh 13\ncp 13 0\nqwp 9 71\ncnot 6 13\n",
}
# (circuit, --input, flags, SHA-256 of stdout)
PINNED_RUNS = [
    ("r10.qc", "0110010110", ("--cp-model", "ideal", "--eta", "0.85"),
     "98f02680d6ee58101fb6cfda75e29d00a67fa2f619e86649db12c46fb41b77f5"),
    ("r10.qc", "1111111111", ("--cp-model", "scheme1", "--b-over-omega", "3", "--eta", "0.9"),
     "587e3b076f6f1eda3935a4523b3f0cc7a2d73a5d6cb3988017a8812e68d10c87"),
    ("r10.qc", "0000000001", ("--cp-model", "scheme2", "--eta", "0.7"),
     "8b93fae7541bdcc1899eac6f47eb95a733628e5bad51ec7cda06456646fdeceb"),
    ("r14.qc", "10010010010011", ("--cp-model", "ideal", "--eta", "0.6"),
     "20353532917142ef442fca5e75f52fc12eb0eacb9b5d0332749ae1b2aa1e13f9"),
    ("r14.qc", "01101101101100", ("--cp-model", "scheme1", "--b-over-omega", "2.5"),
     "5502cc39e69c9135f9ed56598700ea40f8761d5ea78ec4f3a53b99e0159563bc"),
    ("r14.qc", "00000000000000", ("--cp-model", "scheme2", "--area-pi", "9.5", "--eta", "0.95"),
     "e1b8ddf1eb628c0464a5f3e5ea72cc7ad0fc111eba94b5d98dcd44e256bfc47a"),
]


@pytest.mark.parametrize("name, bits, flags, digest", PINNED_RUNS,
                         ids=[f"{name} {flags[1]}" for name, _, flags, _ in PINNED_RUNS])
def test_run_stdout_is_pinned(tmp_path, capsys, name, bits, flags, digest):
    path = tmp_path / name
    path.write_text(PINNED_CIRCUITS[name])
    code, out, err = cli(capsys, "run", str(path), "--input", bits, *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["write-pi", "--eta", "5"], "eta must be in [0,1], got 5.0"),
        (["write-pi", "--eta", "nan"], "eta must be in [0,1], got nan"),
        (["write-read", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["eta-5", "eta-nan", "seed-minus-1"],
)
def test_micro_checks_eta_and_seed_before_running(capsys, argv, message):
    code, out, err = cli(capsys, "micro", *argv)
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "command", [("cnot-sweep", "--steps", "2"), ("pulse", "--scheme", "2")],
    ids=["cnot-sweep", "pulse"],
)
@pytest.mark.parametrize(
    "flags, message",
    [
        (("--samples", "0"), "need at least one sample, got 0"),
        (("--samples", "-5"), "need at least one sample, got -5"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
    ],
    ids=["samples-0", "samples-minus-5", "seed-minus-1"],
)
def test_echo_flags_are_checked_before_running(capsys, command, flags, message):
    code, out, err = cli(capsys, *command, *flags)
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"error: {message}"]


def test_smallest_echo_flags_are_echoed_and_change_nothing_else(capsys):
    sweep = ("cnot-sweep", "--eta-min", "0.33", "--eta-max", "1.0", "--steps", "3")
    code, out, _ = cli(capsys, *sweep, "--samples", "1", "--seed", "0")
    assert code == 0
    assert out == cli(capsys, *sweep, "--samples", "2000", "--seed", "0")[1].replace(
        ",2000,0\n", ",1,0\n"
    )
    code, out, _ = cli(capsys, "pulse", "--scheme", "1", "--samples", "1", "--seed", "0")
    assert code == 0
    want = cli(capsys, "pulse", "--scheme", "1", "--samples", "7", "--seed", "0")[1]
    assert out == want.replace('"samples": 7,', '"samples": 1,')


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
    ["pulse", "--scheme", "1", "--area-pi", "nan"],
    ["pulse", "--scheme", "1", "--area-pi", "inf"],
    ["pulse", "--scheme", "1", "--area-pi=-inf"],
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
    for blockade in ("hard:40", "c6:1e6", "perfect"):
        argv = ["pulse", "--scheme", "1", "--blockade", blockade, "--distance-um", "-5"]
        code, out, err = cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: blockade distance must be finite and >= 0, got -5.0"
        ]


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


# Every numeric flag of every subcommand at the edges of the float range.
# An int flag parses only "0" of these, so sizes stay as small as the base.
EXTREMES = ("0", "-0.0", "1e-300", "-1e-300", "1e300", "-1e300", "inf", "-inf", "nan")
EXTREME_FILES = {
    "{qc}": ("x.qc", "qubits 2\nh 0\ncnot 0 1\nqwp 1 30\ncp 1 0\n"),
    "{qtl}": ("x.qtl", "qms 2\npos 1 10\nstep:\npmu 0 qwp 30\ncp 0 1\nstep:\ncp 1 0\n"),
}
_SCHEME_FLAGS = ("--eta", "--area-pi", "--b-over-omega", "--area-errors=1,{},1")
_BLOCKADE_FLAGS = ("--rabi-mhz", "--blockade=c6:{}", "--blockade=hard:{}")
_MODELS = ("ideal", "scheme1", "scheme2")
EXTREME_CASES = [  # (base argv, flags); a flag without "{}" takes "=value"
    (("cnot-sweep", "--steps=3"), ("--eta-min", "--eta-max", "--steps", "--samples", "--seed")),
    *[(("ghz", "--n=4", "--eta=0.9", f"--method={method}", f"--topology={topology}"),
       ("--n", "--eta"))
      for method, topology in (("dense", "star"), ("transfer", "star"), ("transfer", "chain"))],
    *[(("pulse", f"--scheme={scheme}", f"--blockade={blockade}"),
       _SCHEME_FLAGS + _BLOCKADE_FLAGS + ("--distance-um", "--samples", "--seed"))
      for scheme in "12" for blockade in ("perfect", "c6:100")],
    *[(("run", "{qc}", f"--cp-model={model}"), _SCHEME_FLAGS) for model in _MODELS],
    *[(("timeline", "{qtl}", f"--cp-model={model}"),
       _SCHEME_FLAGS + _BLOCKADE_FLAGS + ("--threshold",))
      for model in _MODELS],
    *[(("micro", "write-write-pi-read-read", "--atoms=3", f"--blockade={blockade}"),
       _BLOCKADE_FLAGS + ("--atoms", "--sigma-um", "--seed", "--eta", "--kvec={},0,0"))
      for blockade in ("perfect", "c6:100")],
]


def _parses(out: str) -> bool:
    lines = out.splitlines()
    if len(lines) == 1:
        return isinstance(json.loads(lines[0]), dict)
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return bool(rows) and all(len(row) == len(header) for row in rows) and all(
        math.isfinite(float(cell)) for row in rows for cell in row
    )


@pytest.mark.parametrize(
    "base, flag",
    [(base, flag) for base, flags in EXTREME_CASES for flag in flags],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else x,
)
def test_extreme_numbers_exit_cleanly(tmp_path, capsys, base, flag):
    files = {}
    for key, (name, text) in EXTREME_FILES.items():
        files[key] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    bad = []
    for value in EXTREMES:
        arg = flag.format(value) if "{}" in flag else f"{flag}={value}"
        argv = [files.get(a, a) for a in base] + [arg]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the value
            code = exc.code
        except Exception as exc:  # a traceback: the failure this test looks for
            code = repr(exc)
        out, err = capsys.readouterr()
        if code == 0:  # strict JSON has no NaN or Infinity
            ok = _parses(out) and "NaN" not in out and "Infinity" not in out
        elif code in (3, 4):
            ok = out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            ok = code == 2
        if not ok:
            bad.append((arg, code, err[-200:]))
    assert bad == []


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

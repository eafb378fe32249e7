"""Tests for the benchmark's own code: statistics, self time, work units,
tracing, input generation and output capture.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import paqsim  # noqa: E402
import paqsim.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.tail(values) == (90.0, 90.0)
    assert stats.tail(values[:11]) == (90.0, 100.0 * 1 / 11)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_work_rate_and_haar_time_to_accuracy():
    assert stats.work_rate([10.0, 30.0], [1.0, 3.0]) == 10.0
    # twice the target stderr needs four times the samples, so four times the time
    assert stats.haar_seconds_at_target(0.5, 2e-4) == pytest.approx(2.0)


def test_self_time_subtracts_direct_children_only():
    # 0 [0,10] -> 1 [1,4] -> 2 [2,3];  0 -> 3 [5,9];  4 [11,12] is a root
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    own = spans.self_times(parent, end - start)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_recorder_totals_match_synthetic_spans():
    rec = spans.Recorder()
    root = rec.begin_task(0)
    a = rec.open("a")
    b = rec.open("b")
    rec.close(b)
    rec.close(a)
    rec.end_task(root)
    for sid, (t0, t1) in enumerate([(0.0, 1.0), (0.1, 0.9), (0.2, 0.5)]):
        rec.start[sid], rec.end[sid] = t0, t1
    calls, selfs = rec.totals()
    assert calls == {"task": 1, "a": 1, "b": 1}
    assert selfs == pytest.approx({"task": 0.2, "a": 0.5, "b": 0.3})
    assert list(rec.parent) == [-1, 0, 1] and list(rec.task) == [0, 0, 0]


def test_work_units():
    assert workloads.amplitude_updates(3, 5) == 40.0
    assert workloads.micro_pair_blocks("write-write-pi-read-read", 10) == 45.0
    assert workloads.micro_pair_blocks("write-pi-2pi-pi-read", 10) == 30.0
    assert workloads.micro_pair_blocks("write-write-0.5pi-read", 10) == 45.0
    assert workloads.micro_pair_blocks("2pi-write-read-pi", 10) == 0.0
    assert workloads.cp_micro_pair_blocks(7, 5) == 38.0


def test_tracing_wraps_every_namespace_and_undoes_it():
    original = paqsim.qstate.apply_gate
    post_init = vars(paqsim.GateOpMatrix)["__post_init__"]
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        assert paqsim.gates.apply_gate is paqsim.timeline.apply_gate is paqsim.apply_gate
        assert paqsim.gates.apply_gate is not original
        paqsim.ghz_dense_eval(3, 0.9)  # outside a task: nothing recorded
        assert len(rec.label) == 0
        sid = rec.begin_task(7)
        paqsim.ghz_dense_eval(3, 0.9)
        rec.end_task(sid)
    finally:
        uninstall()
    assert paqsim.gates.apply_gate is original and paqsim.apply_gate is original
    assert vars(paqsim.GateOpMatrix)["__post_init__"] is post_init
    calls, _ = rec.totals()
    assert calls["qstate.apply_gate"] == 3  # H and two CNOTs
    assert calls["gates.cnot_from_cp"] == 2
    assert calls["qstate.GateOpMatrix"] >= 4
    metrics = spans.layer_metrics(rec, {"trace.overhead_frac": 0.5})
    assert metrics["qstate.apply_gate.bytes_computed"] == 3 * 32 * 2**3
    assert metrics["trace.overhead_frac"] == 0.5
    assert set(metrics) == {name for name, _ in spans.PER_LAYER}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first, again, other = (workloads.build(name, seed, 2, d) for seed, d in zip((5, 5, 6), dirs))
    assert first.inputs_sha256 == again.inputs_sha256 != other.inputs_sha256
    files = [{p.name: p.read_bytes() for p in d.iterdir()} for d in dirs[:2]]
    assert files[0] == files[1]


def test_known_defect_tasks_stay_in_the_mix(tmp_path):
    sweep = workloads.build("sweep", 3, 2, tmp_path)
    assert sweep.cycles[0][0].argv[:3] == ["cnot-sweep", "--eta-min", "0.0"]
    dense = workloads.build("dense", 3, 1, tmp_path)
    assert any(t.argv[:3] == ["ghz", "--n", "30000"] for t in dense.cycles[0])


def test_captured_stdout_is_byte_identical_to_a_cli_process(tmp_path):
    qc = tmp_path / "bell.qc"
    qc.write_text("qubits 2\nh 0\ncnot 0 1\n")
    for argv in (["ghz", "--n", "3", "--eta", "0.58", "--method", "dense"],
                 ["run", str(qc), "--eta", "0.33", "--cp-model", "scheme2"],
                 ["micro", "write-pi-2pi-pi-read", "--atoms", "5"]):
        task = workloads.Task("cli", 0.0, lambda outcome: None, argv=argv)
        outcome = run.run_task(paqsim, task, 0)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from paqsim.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, env={"PYTHONPATH": str(ROOT / "src")}, timeout=60,
        )
        assert proc.returncode == 0 and outcome["ok"]
        assert outcome["stdout_sha256"] == run._sha256(proc.stdout)


def test_failures_are_counted_not_raised():
    boom = workloads.Task("lib", 0.0, lambda outcome: None, call=lambda: 1 / 0)
    outcome = run.run_task(paqsim, boom, 0)
    assert not outcome["ok"] and outcome["failure"].startswith("ZeroDivisionError")
    bad_flag = workloads.Task("cli", 0.0, lambda outcome: None, argv=["ghz", "--n", "x"])
    outcome = run.run_task(paqsim, bad_flag, 0)
    assert not outcome["ok"] and outcome["exit"] == 2
    wrong = workloads.Task("cli", 0.0, lambda outcome: "wrong", argv=["ghz", "--n", "3", "--eta", "0.5"])
    outcome = run.run_task(paqsim, wrong, 0)
    assert outcome["wrong_output"] and not outcome["ok"]


def test_benchmark_json_names_the_code_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)

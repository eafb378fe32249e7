"""paqsim benchmark: seeded CLI and library workloads, checked and timed.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Load is a closed loop: one process, one thread, one task at a
time. ``PAQSIM_THREADS`` is removed from the environment (1 worker) and
BLAS keeps its default threads.

A run generates every input from ``--seed`` (timed as set-up, together
with imports and a warm-up), then runs whole cycles of tasks. The number
of cycles is ``--seconds`` divided by the workload's nominal cycle time
on the reference machine, so a run does the same work on every commit.
Each task's output is checked after it returns, outside the timed region,
and its stdout SHA-256 goes into the results file under ``.bench_work/``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
cycles twice, untraced and then with spans around every layer's public
functions, and prints the per-layer metrics plus the tracing overhead;
its spans are written as JSON lines next to the results.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import stats  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("sweep", "dense", "timeline", "atom")

# Seconds one cycle takes on the reference machine (2-core Xeon, 300 MiB
# L3, Python 3.11, numpy 2.4, OpenBLAS 0.3.31) at the commit that added
# the benchmark. Fixed here so both sides of a comparison run equal work.
NOMINAL_CYCLE_S = {"sweep": 0.6, "dense": 6.8, "timeline": 2.0, "atom": 1.2}

# No new cycle starts after this many times --seconds, so a large
# regression still ends within the run time limit.
GUARD_FACTOR = 2.0
GUARD_MAX_S = 140.0

SETUP_REPEATS = 5  # set-up is timed in this process and in 4 children

END_TO_END = (
    ("setup_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("work_per_s", "unit/s"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it with the inputs' SHA-256, exit")
    return parser.parse_args(argv)


def n_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def import_program():
    """Import paqsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "paqsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no paqsim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import paqsim
    import paqsim.cli

    if Path(paqsim.__file__).resolve().parent != SRC / "paqsim":
        raise SystemExit(f"error: imported paqsim from {paqsim.__file__}, not {SRC}")
    return paqsim


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def anchor_failed(stderr: str) -> bool:
    """True when any stderr anchor line reads FAIL."""
    return any(
        line.startswith("anchor ") and line.rstrip().endswith("-> FAIL")
        for line in stderr.splitlines()
    )


def run_task(paqsim, task, task_id: int, rec=None) -> dict:
    """Time one task, then check its output. Never raises for the task."""
    out, err = io.StringIO(), io.StringIO()
    outcome = {"task": task_id, "kind": task.kind, "traced": rec is not None,
               "exit": 0, "error": None}
    result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        span = rec.begin_task(task_id) if rec is not None else None
        try:
            if task.argv is not None:
                outcome["exit"] = paqsim.cli.main(task.argv)
            else:
                result = task.call()
        except SystemExit as exc:  # argparse reports bad flags this way
            outcome["exit"] = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # any other failure counts; the run goes on
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                rec.end_task(span)
        outcome["seconds"] = time.perf_counter() - t0

    stdout, stderr = out.getvalue(), err.getvalue()
    outcome["stdout_bytes"] = len(stdout.encode("utf-8"))
    outcome["stdout_sha256"] = _sha256(stdout.encode("utf-8"))
    if result is not None:
        outcome["result_sha256"] = _sha256(result.entries.tobytes())
    outcome["work"] = task.work
    failure = wrong = None
    if outcome["error"]:
        failure = outcome["error"]
    elif outcome["exit"] != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        failure = f"exit {outcome['exit']}: {last[0]}"
    else:
        outcome.update(stdout=stdout, stderr=stderr, result=result)
        try:
            wrong = "anchor FAIL on stderr" if anchor_failed(stderr) else task.check(outcome)
        except Exception as exc:  # a malformed output fails its check
            wrong = f"output check raised {type(exc).__name__}: {exc}"
        for key in ("stdout", "stderr", "result"):
            del outcome[key]
        failure = wrong
    outcome["ok"] = failure is None
    outcome["failure"] = failure
    outcome["wrong_output"] = wrong is not None
    return outcome


def set_up(args):
    """Imports, input generation and warm-up: everything before the first
    timed task. Returns the program, the workload and its work directory."""
    os.environ.pop("PAQSIM_THREADS", None)
    paqsim = import_program()
    import workloads

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, n_cycles(args.workload, args.seconds), workdir)
    for task in workload.warmup:
        run_task(paqsim, task, -1)
    return paqsim, workload, workdir


def child_setups(args) -> list[dict]:
    """Time SETUP_REPEATS - 1 more set-ups, each in a fresh process."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    results = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def measure(paqsim, workload, cycles: int, rec) -> list[dict]:
    """Run whole cycles; with a recorder, run each cycle untraced, then traced."""
    passes = (None,) if rec is None else (None, rec)
    deadline = time.perf_counter() + min(
        GUARD_FACTOR * len(passes) * cycles * NOMINAL_CYCLE_S[workload.name], GUARD_MAX_S)
    records: list[dict] = []
    for c in range(cycles):
        if time.perf_counter() > deadline:
            break
        for recorder in passes:
            uninstall = spans.install(recorder) if recorder is not None else None
            try:
                for i, task in enumerate(workload.cycles[c]):
                    outcome = run_task(paqsim, task, len(records), recorder)
                    outcome.update(cycle=c, index=i, call=_describe(task))
                    records.append(outcome)
            finally:
                if uninstall is not None:
                    uninstall()
    return records


def _describe(task) -> str:
    if task.argv is None:
        return task.call_desc
    return "paqsim " + " ".join(a.replace(str(WORK), ".bench_work") for a in task.argv)


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, dict]:
    ok = [r for r in records if r["ok"] and not r["traced"]]
    seconds = [r["seconds"] for r in ok]
    tail_s, tail_pct = stats.tail(seconds)
    metrics = {
        "setup_s": setup_s,
        "task_p50_s": statistics.median(seconds),
        "task_tail_s": tail_s,
        "work_per_s": stats.work_rate([r["work"] for r in ok], seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    haar = [stats.haar_seconds_at_target(r["seconds"], r["haar_rms_stderr"])
            for r in ok if "haar_rms_stderr" in r]
    untraced = [r for r in records if not r["traced"]]
    notes = {
        "successful_tasks": len(ok),
        "task_tail_percentile": tail_pct,
        "error_rate": sum(not r["ok"] for r in untraced) / len(untraced),
        "haar_s_at_1e-4": statistics.median(haar) if haar else None,
    }
    return metrics, notes


def per_layer(records: list[dict], rec, haar_s: float | None) -> dict:
    pairs: dict[tuple[int, int], dict[bool, float]] = {}
    for r in records:
        if r["ok"]:
            pairs.setdefault((r["cycle"], r["index"]), {})[r["traced"]] = r["seconds"]
    both = [p for p in pairs.values() if len(p) == 2]
    overhead = sum(p[True] for p in both) / sum(p[False] for p in both) - 1.0 if both else 0.0
    extra = {
        "trace.overhead_frac": overhead,
        "metrics.haar_s_at_1e-4": haar_s or 0.0,
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in records if r["traced"]),
    }
    return spans.layer_metrics(rec, extra)


def provenance(args) -> dict:
    import numpy

    caches = _cache_sizes()
    l3 = caches.get("L3")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("PAQSIM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "closed loop, 1 process, 1 thread, PAQSIM_THREADS unset (1 worker), BLAS default",
        "commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC),
        "seed": args.seed,
        "seconds": args.seconds,
        "bandwidth_note": (
            "largest dense state is 2^22 x 16 B = 64 MiB"
            + (f", smaller than 4 x L3 = {4 * l3 // 2**20} MiB" if l3 else "")
            + ": qstate.apply_gate.bytes_computed is computed from state sizes, "
            "not measured, and no bandwidth or roofline ratio is claimed"
        ),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, int]:
    """Cache sizes in bytes by level, as the kernel reports them for cpu0."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or not size.endswith("K"):
            continue
        sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _tree_sha256(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    paqsim, workload, workdir = set_up(args)
    setup_times = [time.perf_counter() - _START]
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0], "inputs_sha256": workload.inputs_sha256}))
            return 0
        children = child_setups(args)
        setup_times += [c["setup_s"] for c in children]
        deterministic = all(c["inputs_sha256"] == workload.inputs_sha256 for c in children)
        cycles = n_cycles(args.workload, args.seconds)
        rec = spans.Recorder() if args.trace else None
        records = measure(paqsim, workload, math.ceil(cycles / 2) if rec else cycles, rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not any(r["ok"] and not r["traced"] for r in records):
        raise SystemExit("error: no task succeeded; nothing to time")

    e2e, notes = end_to_end(records, statistics.median(setup_times))
    if rec is not None:
        values, units = per_layer(records, rec, notes["haar_s_at_1e-4"]), dict(spans.PER_LAYER)
    else:
        values, units = e2e, dict(END_TO_END)
    failed = sum(not r["ok"] for r in records)
    correct = deterministic and not any(r["wrong_output"] for r in records)

    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "workload": args.workload,
        "work_unit": workload.work_unit,
        "inputs_sha256": workload.inputs_sha256,
        "inputs_deterministic": deterministic,
        "setup_s_samples": setup_times,
        "end_to_end": e2e,
        **notes,
        "per_layer": values if rec is not None else None,
        "provenance": provenance(args),
        "tasks": records,
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if rec is not None:
        rec.write_jsonl(stem.with_suffix(".spans.jsonl"))

    print(f"workload {args.workload} seed {args.seed}: {len(records)} tasks, {failed} failed "
          f"(error_rate {notes['error_rate']:.4f}), tail at p{notes['task_tail_percentile']:.1f} "
          f"of {notes['successful_tasks']} tasks, haar_s_at_1e-4 {notes['haar_s_at_1e-4']}, "
          f"work unit: {workload.work_unit}")
    print(f"results: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counts around paqsim's public functions, recorded from outside.

``install`` wraps every public function defined in each layer module and
rebinds the wrapper in every paqsim namespace that holds the function
(paqsim imports by name, e.g. ``from .qstate import apply_gate`` in
``gates`` and ``timeline``), plus ``GateOpMatrix.__post_init__`` on the
class. A wrapper records a span (id, parent id, task id, start, end) only
while the harness has a task open; otherwise it passes straight through.
Spans stay in memory as flat arrays and are written as JSON lines when
the run ends. A span's self time is its duration minus its child spans.

Functions bound before ``install`` runs, such as default arguments
(``run_circuit``'s ``cp_model=cp_ideal_with_loss``), keep the original and
are timed as part of their caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("qcir", "qstate", "gates", "optics", "pulses", "memory", "metrics", "timeline", "cli")

# apply_gate reads and writes every complex128 amplitude once
BYTES_PER_AMPLITUDE_PASS = 16 * 2

PER_LAYER = (
    ("qcir.parse_circuit.self_s", "s"),
    ("qcir.parse_timeline.self_s", "s"),
    ("qcir.lines", "count"),
    ("qstate.apply_gate.calls", "count"),
    ("qstate.apply_gate.self_s", "s"),
    ("qstate.apply_gate.bytes_computed", "B"),
    ("qstate.GateOpMatrix.builds", "count"),
    ("qstate.GateOpMatrix.self_s", "s"),
    ("gates.run_circuit.self_s", "s"),
    ("gates.cnot_from_cp.calls", "count"),
    ("gates.ghz_dense_eval.self_s", "s"),
    ("gates.ghz_transfer_eval.self_s", "s"),
    ("optics.jones_matrix.calls", "count"),
    ("optics.jones_matrix.self_s", "s"),
    ("metrics.haar_avg_gate_fidelity.self_s", "s"),
    ("metrics.haar_avg_gate_fidelity.samples", "count"),
    ("metrics.haar_avg_gate_fidelity.chunks", "count"),
    ("metrics.basis_avg_gate_fidelity.self_s", "s"),
    ("metrics.process_fidelity_postselected.self_s", "s"),
    ("metrics.haar_s_at_1e-4", "s"),
    ("pulses.two_level_propagator.calls", "count"),
    ("pulses.two_level_propagator.self_s", "s"),
    ("pulses.pair_propagator.calls", "count"),
    ("pulses.pair_propagator.self_s", "s"),
    ("pulses.pair_propagator.eigh_calls", "count"),
    ("memory.write_photon.calls", "count"),
    ("memory.write_photon.self_s", "s"),
    ("memory.apply_collective_pulse.calls", "count"),
    ("memory.apply_collective_pulse.self_s", "s"),
    ("memory.read_photon.calls", "count"),
    ("memory.read_photon.self_s", "s"),
    ("memory.scheme1_cp_micro.self_s", "s"),
    ("memory.configs", "count"),
    ("timeline.run_timeline.self_s", "s"),
    ("timeline.steps", "count"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("trace.overhead_frac", "fraction"),
)

TASK_LABEL = "task"


class Recorder:
    """In-memory span store. Single-threaded: paqsim runs one worker
    unless PAQSIM_THREADS is set, and the benchmark leaves it unset."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("q")
        self.task = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.task_id = -1
        self._stack: list[int] = []

    def open(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        sid = len(self.label)
        self.label.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_task(self, task_id: int) -> int:
        self.task_id = task_id
        return self.open(TASK_LABEL)

    def end_task(self, sid: int) -> None:
        self.close(sid)
        self.task_id = -1

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per label."""
        label = np.frombuffer(self.label, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = self_times(np.frombuffer(self.parent, dtype=np.int64), dur)
        calls = np.bincount(label, minlength=len(self.labels))
        selfs = np.bincount(label, weights=own, minlength=len(self.labels))
        return (
            {name: int(calls[i]) for i, name in enumerate(self.labels)},
            {name: float(selfs[i]) for i, name in enumerate(self.labels)},
        )

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.label)):
                fh.write(json.dumps({
                    "span": sid, "parent": self.parent[sid], "task": self.task[sid],
                    "name": self.labels[self.label[sid]],
                    "start": self.start[sid], "end": self.end[sid],
                }) + "\n")


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another on one thread, so their
    summed duration is the part of the parent's interval they cover.
    """
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    return duration - child_time


def layer_metrics(rec: Recorder, extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER value: `<label>.calls`/`.builds` count spans,
    `<label>.self_s` sums self time, other names are counts or `extra`."""
    calls, selfs = rec.totals()
    out = {}
    for name, _ in PER_LAYER:
        label, _, stat = name.rpartition(".")
        if name in extra:
            out[name] = float(extra[name])
        elif stat in ("calls", "builds"):
            out[name] = float(calls.get(label, 0))
        elif stat == "self_s":
            out[name] = selfs.get(label, 0.0)
        else:
            out[name] = float(rec.counts.get(name, 0.0))
    return out


# ------------------------------------------------------------ counters


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_lines(counts, args, kwargs, result):
    counts["qcir.lines"] += len(_arg(args, kwargs, 0, "text").splitlines())


def _count_apply_gate(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "state").n_qubits
    counts["qstate.apply_gate.bytes_computed"] += BYTES_PER_AMPLITUDE_PASS * 2**n


def _count_haar(counts, args, kwargs, result):
    chunk = sys.modules["paqsim.metrics"].HAAR_CHUNK
    counts["metrics.haar_avg_gate_fidelity.samples"] += result.samples
    counts["metrics.haar_avg_gate_fidelity.chunks"] += math.ceil(result.samples / chunk)


def _count_eigh(counts, args, kwargs, result):
    if math.isfinite(_arg(args, kwargs, 1, "pair_shift_over_rabi")):
        counts["pulses.pair_propagator.eigh_calls"] += 1


def _count_configs(counts, args, kwargs, result):
    state = result[1] if isinstance(result, tuple) else result
    counts["memory.configs"] += len(state.amplitudes)


def _count_steps(counts, args, kwargs, result):
    counts["timeline.steps"] += result.executed_steps


COUNTERS = {
    "qcir.parse_circuit": _count_lines,
    "qcir.parse_timeline": _count_lines,
    "qstate.apply_gate": _count_apply_gate,
    "metrics.haar_avg_gate_fidelity": _count_haar,
    "pulses.pair_propagator": _count_eigh,
    "memory.vacuum_state": _count_configs,
    "memory.write_photon": _count_configs,
    "memory.read_photon": _count_configs,
    "memory.apply_collective_pulse": _count_configs,
    "timeline.run_timeline": _count_steps,
}


def _wrap(rec: Recorder, label: str, fn):
    counter = COUNTERS.get(label)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if rec.task_id < 0:
            return fn(*args, **kwargs)
        sid = rec.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if counter is not None:
            counter(rec.counts, args, kwargs, result)
        return result

    return traced


def install(rec: Recorder):
    """Wrap the layers' public functions; returns a function that undoes it."""
    namespaces = [m for name, m in sys.modules.items()
                  if name == "paqsim" or name.startswith("paqsim.")]
    replaced = []
    for layer in LAYERS:
        module = sys.modules[f"paqsim.{layer}"]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = _wrap(rec, f"{layer}.{attr}", fn)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, name, wrapper)
                        replaced.append((ns, name, fn))
    cls = sys.modules["paqsim.qstate"].GateOpMatrix
    original = cls.__dict__["__post_init__"]
    cls.__post_init__ = _wrap(rec, "qstate.GateOpMatrix", original)
    replaced.append((cls, "__post_init__", original))

    def uninstall():
        for ns, name, fn in reversed(replaced):
            setattr(ns, name, fn)

    return uninstall

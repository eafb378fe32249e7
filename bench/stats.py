"""Summary statistics the benchmark reports."""

from __future__ import annotations


TAIL_BEYOND = 10
HAAR_TARGET_STDERR = 1e-4


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND values
    above it: the (TAIL_BEYOND+1)-th largest value and its percentile.
    With too few values, the maximum at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def work_rate(work: list[float], seconds: list[float]) -> float:
    """Domain work per second of task time."""
    return sum(work) / sum(seconds)


def haar_seconds_at_target(task_seconds: float, rms_stderr: float) -> float:
    """Task time scaled to reach HAAR_TARGET_STDERR: stderr falls as
    1/sqrt(samples), so time grows with (stderr / target)^2."""
    return task_seconds * (rms_stderr / HAAR_TARGET_STDERR) ** 2

"""Shared pieces of the benchmark: statistics, clocks, children, digests."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict[str, str]:
    """Environment for a child that imports the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 1/(1-q) samples, the max."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    """The median (mean of the middle pair for an even count)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def fastest_pass_s(repetitions: list[list[float]]) -> float:
    """Seconds of one repetition at the host's fastest, slice by slice.

    Every repetition does the same deterministic work, cut into the same
    slices; for each slice take the fastest repetition's seconds, and sum.
    This host's speed swings by a quarter within seconds, so the sum is
    steadier from run to run than a mean or median of whole repetitions,
    while it still grows with every slice the program makes slower.
    """
    return sum(min(column) for column in zip(*repetitions))


def digest(obj) -> str:
    """Short SHA-256 of an object's canonical JSON form."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def own_cpu_s() -> float:
    """User plus system CPU seconds this process has used."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; return its exit code and the CPU seconds it used."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime


def run_probe(args: list[str]) -> tuple[float, int]:
    """Run a set-up probe child to completion; return (wall seconds, exit code).

    The wall time covers interpreter start, imports and whatever the probe
    builds before it exits: the cold start a user pays.  The wait blocks
    in ``waitpid`` (a ``wait`` with a timeout polls, in steps of up to
    50 ms); the run's deadline alarm still interrupts it.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait()
    except BaseException:  # the run's deadline: stop the child
        proc.kill()
        proc.wait()
        raise
    return time.perf_counter() - start, code


def peak_rss_mb() -> float:
    """Peak resident set of the largest process: this one or any reaped child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own_peak_rss_mb(), children)


@dataclass
class Outcome:
    """One workload run: gate verdict, counts, metrics and human lines.

    ``metrics`` maps a metric name to ``(value, unit)``.  ``report`` holds
    the workload's named figures (per-workload names such as
    ``msgs_per_s`` or ``acquire_p50_ms.light``) as ``(name, value, unit,
    samples)`` rows, printed before the result line.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[tuple[str, float, str, int | None]] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str,
             samples: int | None = None) -> None:
        self.report.append((name, float(value), unit, samples))

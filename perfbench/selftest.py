"""The benchmark's own self-test: short runs plus negative controls.

    python3 perfbench/run.py --self-test

1. Every workload, shortened, untraced and traced: each must pass its
   gate and report every metric the run is meant to report.
2. Negative controls the gate must reject:
   - ``sift-4096`` traced with one fingerprint field tampered in the traced
     pass only (the traced/untraced parity check must fail);
   - ``check-elect-16`` exploring the ``naive_sifter`` protocol, whose
     sifting invariant is violated (the run must not be correct).

Exit code 0 iff every check behaved as expected.
"""

from __future__ import annotations

import json
from pathlib import Path

import run
import simwork

SHORT_SECONDS = 2.0
SEED = 11
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def expect(ok: bool, label: str, failures: list[str]) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {label}", flush=True)
    if not ok:
        failures.append(label)


def short_runs(failures: list[str]) -> None:
    end_to_end = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    per_layer = {metric["name"] for metric in BENCHMARK["per_layer"]}
    for workload in run.WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            out = run.run(workload, SEED, SHORT_SECONDS, trace)
            label = f"{workload} {'traced' if trace else 'untraced'}"
            expect(out.correct, f"{label}: gate passes {out.problems}", failures)
            expect(set(out.metrics) == names, f"{label}: reports its metrics", failures)
            if not trace:
                zeros = sorted(n for n, (value, _) in out.metrics.items() if value <= 0)
                expect(not zeros, f"{label}: no zero metric {zeros}", failures)


def tampered_fingerprint(failures: list[str]) -> None:
    honest = simwork.sift_cell

    def tampered(seed, adversary, clock=None):
        fingerprint, stats = honest(seed, adversary, clock)
        if clock is not None:
            fingerprint[4] += 1  # events_executed of the traced pass
        return fingerprint, stats

    simwork.sift_cell = tampered
    try:
        out, _ = simwork.trace_sift(SEED, SHORT_SECONDS)
    finally:
        simwork.sift_cell = honest
    expect(not out.correct, "tampered sift fingerprint is rejected", failures)


def naive_sifter(failures: list[str]) -> None:
    out = simwork.run_check(SEED, SHORT_SECONDS, protocol="naive_sifter")
    expect(not out.correct and out.failed > 0,
           f"check of naive_sifter is rejected {out.problems}", failures)


def self_test() -> int:
    failures: list[str] = []
    print("short runs", flush=True)
    short_runs(failures)
    print("negative controls", flush=True)
    tampered_fingerprint(failures)
    naive_sifter(failures)
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0

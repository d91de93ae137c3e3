"""Outside-in benchmark of the simulator, the checker and the lease service.

    python3 perfbench/run.py --workload sift-4096 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Workloads: ``sift-4096``, ``check-elect-16``, ``svc-open-1k``,
``svc-hot-sim`` (see perfbench/README.md for why each exists).  With
``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run, whose fingerprints must equal those of an untraced run of
the same inputs.  The workload's named figures (``msgs_per_s``,
``acquire_p50_ms.light``, ... with sample counts) are printed above it.
The exit code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, Outcome, peak_rss_mb  # noqa: E402

WORKLOADS = ("sift-4096", "check-elect-16", "svc-open-1k", "svc-hot-sim")

#: Every per-layer metric of a traced run, with its unit.  A layer that a
#: workload does not exercise (or whose traced run does not time it)
#: reads 0 there.
PER_LAYER = {
    "adversary.choose_s": "s",
    "adversary.choose_ns_per_action": "ns",
    "adversary.actions": "count",
    "sim.deliver_s": "s",
    "sim.deliver_ns_per_msg": "ns",
    "sim.deliveries": "count",
    "sim.step_s": "s",
    "sim.steps": "count",
    "sim.registers.merge_s": "s",
    "sim.registers.merge_calls": "count",
    "sim.registers.value_view_s": "s",
    "sim.build_s": "s",
    "sim.delta.cells_suppressed": "count",
    "sim.delta.useful_ratio": "ratio",
    "core.messages_total": "count",
    "core.max_comm_calls": "count",
    "core.survivors": "count",
    "check.run_s": "s",
    "check.run_nosink_s": "s",
    "check.plane_tax_ratio": "ratio",
    "obs.emit_s": "s",
    "obs.events": "count",
    "check.eval_s": "s",
    "check.trial_s.random": "s",
    "check.trial_s.crash": "s",
    "check.trial_s.systematic": "s",
    "wire.encode_s.gen": "s",
    "wire.decode_s.gen": "s",
    "wire.frames.gen": "count",
    "wire.bytes_per_grant.gen": "B",
    "wire.encode_s.svc": "s",
    "wire.decode_s.svc": "s",
    "wire.frames.svc": "count",
    "wire.bytes_per_grant.svc": "B",
    "svc.cpu_ms_per_grant": "ms",
    "svc.frames_per_grant": "count",
    "svc.replay_ratio": "ratio",
    "svc.reelections": "count",
    "svc.elect_ms_p50": "ms",
    "svc.crash_failover_ms_p50": "ms",
    "svc.rss_mb_per_10k_grants": "MB",
    "gen.lag_ms_max": "ms",
    "gen.cpu_share": "ratio",
    "client.busy": "count",
    "client.errors": "count",
    "net.transport_wait_ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
    "failed_share": "ratio",
}

#: A run must end within this many seconds, whatever happens.
RUN_DEADLINE_S = 170


def untraced(workload: str, seed: int, seconds: float) -> Outcome:
    if workload == "sift-4096":
        from simwork import run_sift
        return run_sift(seed, seconds)
    if workload == "check-elect-16":
        from simwork import run_check
        return run_check(seed, seconds)
    from svcwork import run_svc
    return run_svc(workload, seed, seconds)


def traced(workload: str, seed: int, seconds: float) -> Outcome:
    if workload == "sift-4096":
        from simwork import trace_sift
        out, layers = trace_sift(seed, seconds)
    elif workload == "check-elect-16":
        from simwork import trace_check
        out, layers = trace_check(seed, seconds)
    else:
        from svcwork import trace_svc
        out, layers = trace_svc(workload, seed, seconds)
    layers["failed_share"] = out.failed / max(1, out.attempted)
    for name, unit in PER_LAYER.items():
        out.put(name, layers.get(name, 0.0), unit)
    unknown = sorted(set(layers) - set(PER_LAYER))
    if unknown:
        out.fail(f"unlisted per-layer metrics {unknown}")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one workload and gather its metrics and gate verdict."""
    if trace:
        return traced(workload, seed, seconds)
    out = untraced(workload, seed, seconds)
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    return out


def render(out: Outcome, workload: str, trace: bool) -> str:
    """Human-readable lines, then the JSON result line."""
    lines = [f"workload {workload} ({'traced' if trace else 'untraced'})"]
    rows = [(name, value, unit, None) for name, (value, unit) in out.metrics.items()]
    for name, value, unit, samples in out.report + rows:
        count = "" if samples is None else f"  (n={samples})"
        lines.append(f"  {name:<28} {value:>14.4f} {unit}{count}")
    if "failed_share" not in out.metrics:
        lines.append(f"  {'failed_share':<28} "
                     f"{out.failed / max(1, out.attempted):>14.4f} ratio")
    lines.append(f"  fingerprint {out.fingerprint}")
    for problem in out.problems:
        lines.append(f"  GATE FAILED: {problem}")
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
        },
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S}s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="shortened workloads plus negative controls")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    signal.alarm(0)
    print(render(out, args.workload, bool(args.trace)), flush=True)
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())

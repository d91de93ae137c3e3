"""Service launcher: the ``repro serve`` service in a child process.

It builds the :class:`~repro.net.service.ElectionService` exactly as
``repro serve`` does (clean chaos plan, default TTL and grace), prints
``ready <port>``, serves until its standard input closes, then judges the
grant history with ``evaluate_service_run`` and prints one JSON summary
line.  Exit code 0 means every lease invariant held.  ``repro serve``
itself only stops on a fixed ``--duration`` or on Ctrl-C (which skips the
check), so the benchmark stops the service through this launcher instead.

With ``--trace`` it also times, from outside the service code, the frame
codec entry points (``pack_frame`` as the service calls it, and
``wire._decode_body``) and ``run_leader_election`` per sim handoff.

    python3 perfbench/svc_launcher.py --election sim --seed 3 [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.harness.runners as runners_mod  # noqa: E402
import repro.net.service as service_mod  # noqa: E402
import repro.net.wire as wire_mod  # noqa: E402
from repro.check.invariants import evaluate_service_run  # noqa: E402
from repro.net.chaos import CLEAN_PLAN  # noqa: E402
from repro.net.service import ElectionService, ServiceRun  # noqa: E402

from common import digest, own_cpu_s  # noqa: E402


def rss_mb() -> float:
    """Current resident set of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class CodecClock:
    """Seconds, calls and bytes through the frame codec of one process."""

    def __init__(self) -> None:
        self.encode_s = 0.0
        self.encodes = 0
        self.encode_bytes = 0
        self.decode_s = 0.0
        self.decodes = 0
        self.decode_bytes = 0

    def wrap(self, module) -> None:
        """Wrap ``module.pack_frame`` and ``wire._decode_body``."""
        pack, decode = module.pack_frame, wire_mod._decode_body
        self._originals = (module, pack, decode)
        perf = time.perf_counter
        clock = self

        def timed_pack(frame):
            start = perf()
            data = pack(frame)
            clock.encode_s += perf() - start
            clock.encodes += 1
            clock.encode_bytes += len(data)
            return data

        def timed_decode(body):
            start = perf()
            frame = decode(body)
            clock.decode_s += perf() - start
            clock.decodes += 1
            clock.decode_bytes += len(body)
            return frame

        module.pack_frame = timed_pack
        wire_mod._decode_body = timed_decode

    def unwrap(self) -> None:
        """Put back what :meth:`wrap` replaced."""
        module, module.pack_frame, wire_mod._decode_body = self._originals

    def as_dict(self) -> dict:
        return {
            key: value for key, value in vars(self).items()
            if not key.startswith("_")
        }


def wrap_elections(elect_ms: list[float]) -> None:
    """Time every ``run_leader_election`` the service's sim handoffs make."""
    run_leader_election = runners_mod.run_leader_election
    perf = time.perf_counter

    def timed(*args, **kwargs):
        start = perf()
        try:
            return run_leader_election(*args, **kwargs)
        finally:
            elect_ms.append((perf() - start) * 1e3)

    runners_mod.run_leader_election = timed


async def serve(election: str, seed: int, trace: bool) -> int:
    codec, elect_ms = CodecClock(), []
    if trace:
        codec.wrap(service_mod)
        wrap_elections(elect_ms)
    service = ElectionService(seed=seed, election=election, plan=CLEAN_PLAN)
    _, port = await service.start()
    cpu_ready, rss_ready = own_cpu_s(), rss_mb()
    print(f"ready {port}", flush=True)

    loop = asyncio.get_running_loop()
    closed = asyncio.Event()
    stdin = sys.stdin.fileno()

    def on_stdin() -> None:
        if not os.read(stdin, 4096):
            loop.remove_reader(stdin)
            closed.set()

    loop.add_reader(stdin, on_stdin)
    await closed.wait()
    run = ServiceRun.of(service)
    snapshot = service.snapshot()
    namespace = service.export_namespace()
    await service.stop()
    violations = evaluate_service_run(run)
    counters = snapshot["counters"]
    crash_failover = snapshot["histograms"].get("svc.crash_failover_ms", {})
    summary = {
        "grants": len(run.history),
        "violations": [f"{name}: {message}" for name, message in violations],
        "epochs_digest": digest(sorted(namespace.items())),
        "acquires": counters.get("svc.acquires", 0),
        "releases": counters.get("svc.releases", 0),
        "replays": counters.get("svc.replays", 0),
        "reelections": counters.get("svc.reelections", 0),
        "frames_sent": counters.get("svc.frames_sent", 0),
        "crash_failover_ms_p50": crash_failover.get("p50", 0.0),
        "cpu_serving_s": own_cpu_s() - cpu_ready,
        "rss_ready_mb": rss_ready,
        "rss_end_mb": rss_mb(),
        "codec": codec.as_dict() if trace else None,
        "elect_ms": elect_ms,
    }
    print(json.dumps(summary), flush=True)
    return 1 if violations else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--election", choices=("draw", "sim"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    return asyncio.run(serve(args.election, args.seed, args.trace))


if __name__ == "__main__":
    sys.exit(main())

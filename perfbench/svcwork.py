"""The service workloads: ``svc-open-1k`` and ``svc-hot-sim``.

The service runs in its own process (``svc_launcher.py``); the load
generator is this process, one asyncio loop driving ``ServiceClient``
sessions over loopback TCP.  That is two processes in total.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from common import (
    ROOT,
    SRC,
    Outcome,
    child_env,
    digest,
    median,
    own_cpu_s,
    percentile,
    reap,
)

sys.path.insert(0, str(SRC))

import repro.net.client as client_mod  # noqa: E402
from repro.net.client import ServiceClient, ServiceClientError  # noqa: E402

from svc_launcher import CodecClock  # noqa: E402

HOST = "127.0.0.1"
#: How each service workload's contested handoffs pick a winner.
ELECTION = {"svc-open-1k": "draw", "svc-hot-sim": "sim"}
SESSIONS = 8
TTL_MS = 5000.0

OPEN_KEYS = 1000
OPEN_HOLD_S = 0.001
OPEN_WAIT_MS = 5000.0
#: (phase, acquires per second, share of the run's seconds).
OPEN_PHASES = (("warmup", 500, 0.04), ("light", 500, 0.3), ("heavy", 1000, 0.6))
MEASURED_PHASES = ("light", "heavy")

HOT_KEYS = 16
HOT_CONTENDERS = 3
HOT_HOLD_S = 0.005
HOT_WAIT_MS = 30_000.0
#: Nominal grants per second the closed loop is sized for.
HOT_NOMINAL_RATE = 800
HOT_LOOP_SHARE = 0.8
FAULT_ROUNDS = 4
FAULT_WAITERS = 2

#: Set-up probes per run (the loaded service's own start is one more).
SETUP_PROBES = 4


# ---------------------------------------------------------------------------
# The service child
# ---------------------------------------------------------------------------


def cpu_pair() -> tuple[int, int] | None:
    """(generator CPU, service CPU) when this process may use two or more.

    Giving each process a core of its own stops the scheduler from
    stacking the two on one core in some runs and not in others.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None



@dataclass
class Service:
    """A running launcher child and the port it serves on."""

    proc: subprocess.Popen
    port: int
    ready_s: float


def start_service(election: str, seed: int, trace: bool = False,
                  cpu: int | None = None) -> Service:
    """Spawn the launcher (on ``cpu``, if given) and wait until it serves."""
    args = [sys.executable, "perfbench/svc_launcher.py",
            "--election", election, "--seed", str(seed)]
    if trace:
        args.append("--trace")
    start = time.perf_counter()
    proc = subprocess.Popen(
        args, cwd=ROOT, env=child_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        line = proc.stdout.readline()
        if not line.startswith("ready "):
            raise RuntimeError(f"service did not start: {line!r}")
    except BaseException:
        proc.kill()
        reap(proc)
        raise
    return Service(proc, int(line.split()[1]), time.perf_counter() - start)


def stop_service(service: Service) -> tuple[int, dict]:
    """Close the child's stdin, read its summary; return (exit code, summary)."""
    try:
        service.proc.stdin.close()
        output = service.proc.stdout.read()
    except BaseException:  # the run's deadline: do not leave the child behind
        service.proc.kill()
        reap(service.proc)
        raise
    code, _ = reap(service.proc)
    lines = output.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    return code, summary


def setup_seconds(election: str, seed: int, loaded_ready_s: float) -> float:
    """Median cold start over the probes and the loaded service's own start."""
    walls = [loaded_ready_s]
    for _ in range(SETUP_PROBES):
        probe = start_service(election, seed)
        code, _ = stop_service(probe)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        walls.append(probe.ready_s)
    return median(walls)


# ---------------------------------------------------------------------------
# Generator bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Load:
    """What the generator saw: latencies per phase, grants, errors."""

    latency_ms: dict[str, list[float]] = field(default_factory=dict)
    grants: Counter = field(default_factory=Counter)
    failover_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    busy: int = 0
    errors: int = 0
    lag_ms_max: dict[str, float] = field(default_factory=dict)
    cpu_share: dict[str, float] = field(default_factory=dict)
    invalid: dict[str, str] = field(default_factory=dict)
    measured_s: float = 0.0
    last_grant: float = 0.0
    cpu_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.busy + self.errors

    def epochs_digest(self) -> str:
        """Per-key grant counts; a key's epoch equals its grant count."""
        return digest(sorted(self.grants.items()))


async def connect(port: int, count: int, prefix: str,
                  first_pid: int = 0) -> list[ServiceClient]:
    """Open ``count`` sessions, each with its own client id."""
    return [
        await ServiceClient.connect(
            HOST, port, client_id=f"{prefix}-{index}", pid=first_pid + index,
        )
        for index in range(count)
    ]


async def acquire_once(load: Load, client: ServiceClient, key: str,
                       wait_ms: float, since: float, phase: str | None,
                       hold_s: float) -> float | None:
    """Acquire, record latency from ``since``, hold, release.

    Returns the grant time, or ``None`` when the acquire failed.
    """
    load.attempted += 1
    try:
        lease = await client.acquire(key, ttl_ms=TTL_MS, wait_ms=wait_ms)
    except ServiceClientError:
        load.errors += 1
        return None
    granted = time.perf_counter()
    if lease is None:
        load.busy += 1
        return None
    load.grants[key] += 1
    load.last_grant = max(load.last_grant, granted)
    if phase is not None:
        load.latency_ms.setdefault(phase, []).append((granted - since) * 1e3)
    if hold_s:
        await asyncio.sleep(hold_s)
    try:
        released = await client.release(lease)
    except ServiceClientError:
        released = False
    if not released:
        load.errors += 1
    return granted


# ---------------------------------------------------------------------------
# svc-open-1k: open loop at fixed rates
# ---------------------------------------------------------------------------


def open_schedule(seed: int, seconds: float) -> list[tuple[float, str, int, str]]:
    """(due offset s, key, session, phase) for every acquire, from ``seed``.

    Keys are uniform over ``OPEN_KEYS``.  Successive acquires of one key
    rotate over the sessions, so a session never re-acquires a key it may
    still hold (the service would answer that with the live lease).
    """
    rng = random.Random(f"svc-open-1k/{seed}")
    uses: Counter = Counter()
    schedule, offset = [], 0.0
    for phase, rate, share in OPEN_PHASES:
        count = int(rate * seconds * share)
        for index in range(count):
            key = rng.randrange(OPEN_KEYS)
            session = (key + uses[key]) % SESSIONS
            uses[key] += 1
            schedule.append((offset + index / rate, f"open/{key:04d}", session, phase))
        offset += count / rate
    return schedule


async def open_loop(port: int, schedule, load: Load) -> None:
    """Send every acquire when due, whatever the replies are doing."""
    clients = await connect(port, SESSIONS, "gen")
    rates = {phase: rate for phase, rate, _ in OPEN_PHASES}
    tasks: set[asyncio.Task] = set()
    perf = time.perf_counter
    t0 = perf() + 0.05
    phase_start: dict[str, tuple[float, float]] = {}
    measured_start = None
    index = 0
    while index < len(schedule):
        now = perf()
        while index < len(schedule) and t0 + schedule[index][0] <= now:
            offset, key, session, phase = schedule[index]
            if phase not in phase_start:
                close_phase(load, phase_start, tasks, rates, now)
                phase_start[phase] = (now, own_cpu_s())
                if phase in MEASURED_PHASES and measured_start is None:
                    measured_start = t0 + offset
            lag_ms = (now - t0 - offset) * 1e3
            if lag_ms > load.lag_ms_max.get(phase, 0.0):
                load.lag_ms_max[phase] = lag_ms
            task = asyncio.create_task(acquire_once(
                load, clients[session], key, OPEN_WAIT_MS, t0 + offset,
                phase, OPEN_HOLD_S,
            ))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            index += 1
        if index < len(schedule):
            await asyncio.sleep(max(0.0, t0 + schedule[index][0] - perf()))
    close_phase(load, phase_start, tasks, rates, perf())
    if tasks:
        await asyncio.wait(set(tasks), timeout=10.0)
    load.measured_s = load.last_grant - measured_start
    load.errors += len(tasks)  # still unanswered after the drain
    for task in list(tasks):
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for client in clients:
        await client.close()


def close_phase(load: Load, phase_start, tasks, rates, now: float) -> None:
    """Judge the phase that just ended: CPU share, backlog, lag."""
    if not phase_start:
        return
    phase = list(phase_start)[-1]
    started, cpu = phase_start[phase]
    wall = max(now - started, 1e-9)
    load.cpu_share[phase] = (own_cpu_s() - cpu) / wall
    # A backlog that grew: more than 100 ms of the phase's work still in
    # flight, or the generator itself running more than 100 ms late.
    backlog_limit = max(50, 0.1 * rates[phase])
    if len(tasks) > backlog_limit or load.lag_ms_max.get(phase, 0.0) > 100.0:
        load.invalid[phase] = (
            f"backlog {len(tasks)} in flight, "
            f"lag {load.lag_ms_max.get(phase, 0.0):.1f} ms"
        )


# ---------------------------------------------------------------------------
# svc-hot-sim: closed loop on a few hot keys, then timed failovers
# ---------------------------------------------------------------------------


def hot_rounds(seconds: float) -> int:
    """Acquire/release rounds per contender, sized from the run length."""
    contenders = HOT_KEYS * HOT_CONTENDERS
    return max(2, int(seconds * HOT_LOOP_SHARE * HOT_NOMINAL_RATE / contenders))


def hot_plan(seed: int) -> list[str]:
    """The hot keys, named from ``seed``."""
    rng = random.Random(f"svc-hot-sim/{seed}")
    return [f"hot/{rng.randrange(10**6):06d}-{index}" for index in range(HOT_KEYS)]


async def hot_loop(port: int, keys: list[str], rounds: int, load: Load) -> None:
    """Every contender: acquire (queueing), hold 5 ms, release; repeat."""
    clients = await connect(port, SESSIONS, "gen")

    async def contender(client: ServiceClient, key: str) -> None:
        for _ in range(rounds):
            issued = time.perf_counter()
            granted = await acquire_once(
                load, client, key, HOT_WAIT_MS, issued, "hot", HOT_HOLD_S,
            )
            if granted is None:
                return

    cpu = own_cpu_s()
    start = time.perf_counter()
    await asyncio.gather(*(
        contender(clients[(k * HOT_CONTENDERS + c) % SESSIONS], key)
        for k, key in enumerate(keys) for c in range(HOT_CONTENDERS)
    ))
    load.measured_s = time.perf_counter() - start
    load.cpu_share = {"hot": (own_cpu_s() - cpu) / load.measured_s}
    for round_index in range(FAULT_ROUNDS):
        await failover_round(port, clients, keys, round_index, load)
    for client in clients:
        await client.close()


async def failover_round(port: int, clients, keys, round_index: int,
                         load: Load) -> None:
    """A victim holds every hot key with waiters queued; abort it; time it."""
    [victim] = await connect(
        port, 1, f"victim{round_index}", first_pid=SESSIONS + round_index,
    )
    held = []
    for key in keys:
        load.attempted += 1
        lease = await victim.acquire(key, ttl_ms=60_000.0, wait_ms=2_000.0)
        if lease is None:
            load.busy += 1
            continue
        load.grants[key] += 1
        held.append(key)
    aborted = [0.0]

    async def rescuer(client: ServiceClient, key: str) -> None:
        granted = await acquire_once(load, client, key, HOT_WAIT_MS, 0.0, None, 0.0)
        if granted is not None:
            load.failover_ms.append((granted - aborted[0]) * 1e3)

    rescuers = [
        asyncio.create_task(rescuer(clients[(k + w) % SESSIONS], key))
        for k, key in enumerate(held) for w in range(FAULT_WAITERS)
    ]
    await asyncio.sleep(0.05)  # the rescuers queue behind the victim
    aborted[0] = time.perf_counter()
    victim.abort()
    await asyncio.gather(*rescuers)


# ---------------------------------------------------------------------------
# One pass: service child + generator, then the gate
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One service run and everything measured around it."""

    load: Load
    service_code: int
    summary: dict
    ready_s: float
    codec: CodecClock | None


def run_pass(workload: str, seed: int, seconds: float, trace: bool) -> Pass:
    """Start a service, drive one workload against it, stop and judge it."""
    cpus, pair = os.sched_getaffinity(0), cpu_pair()
    service = start_service(
        ELECTION[workload], seed, trace, None if pair is None else pair[1],
    )
    codec = None
    try:
        if pair is not None:
            os.sched_setaffinity(0, {pair[0]})
        if trace:
            codec = CodecClock()
            codec.wrap(client_mod)
        load = Load()
        cpu = own_cpu_s()
        if workload == "svc-open-1k":
            asyncio.run(open_loop(service.port, open_schedule(seed, seconds), load))
        else:
            asyncio.run(hot_loop(
                service.port, hot_plan(seed), hot_rounds(seconds), load,
            ))
        load.cpu_s = own_cpu_s() - cpu
    except BaseException:
        service.proc.kill()
        reap(service.proc)
        raise
    finally:
        os.sched_setaffinity(0, cpus)
        if codec is not None:
            codec.unwrap()
    code, summary = stop_service(service)
    return Pass(load, code, summary, service.ready_s, codec)


def gate(out: Outcome, one: Pass) -> None:
    """Correctness of one pass: child exit 0, every acquire granted, and the
    service's per-key epochs equal to the generator's per-key grant counts."""
    load, summary = one.load, one.summary
    out.attempted += load.attempted
    out.failed += load.failed
    if one.service_code != 0:
        out.fail(f"service exited {one.service_code}: {summary.get('violations')}")
    if load.failed:
        out.fail(f"{load.busy} busy and {load.errors} failed acquires")
    if summary.get("grants") != sum(load.grants.values()):
        out.fail(
            f"service logged {summary.get('grants')} grants, "
            f"generator saw {sum(load.grants.values())}"
        )
    if summary.get("epochs_digest") != load.epochs_digest():
        out.fail("service epochs differ from the generator's grant counts")
    for phase, reason in load.invalid.items():
        # An invalid phase's operations count as failed.
        out.fail(f"phase {phase} invalid: {reason}")
        out.failed += len(load.latency_ms.get(phase, []))


def run_svc(workload: str, seed: int, seconds: float) -> Outcome:
    """Untraced service workload: one loaded pass plus set-up probes."""
    out = Outcome()
    one = run_pass(workload, seed, seconds, trace=False)
    gate(out, one)
    out.fingerprint = one.load.epochs_digest()
    out.put("setup_s", setup_seconds(ELECTION[workload], seed, one.ready_s), "s")
    load = one.load
    grants = sum(load.grants.values())
    if workload == "svc-open-1k":
        measured = sum(len(load.latency_ms.get(p, [])) for p in MEASURED_PHASES)
        out.put("throughput_per_s", measured / load.measured_s, "1/s")
        heavy = load.latency_ms.get("heavy", [])
        out.put("latency_ms", median(heavy), "ms")
        for phase in MEASURED_PHASES:
            samples = load.latency_ms.get(phase, [])
            out.note(f"acquire_p50_ms.{phase}", median(samples), "ms", len(samples))
            out.note(f"acquire_p99_ms.{phase}", percentile(samples, 0.99), "ms",
                     len(samples))
    else:
        hot = load.latency_ms.get("hot", [])
        out.put("throughput_per_s", len(hot) / load.measured_s, "1/s")
        out.put("latency_ms", median(hot), "ms")
        out.note("grants_per_s", len(hot) / load.measured_s, "1/s")
        out.note("acquire_p50_ms", median(hot), "ms", len(hot))
        out.note("acquire_p99_ms", percentile(hot, 0.99), "ms", len(hot))
        out.note("failover_p50_ms", median(load.failover_ms), "ms",
                 len(load.failover_ms))
        out.note("failover_p90_ms", percentile(load.failover_ms, 0.9), "ms",
                 len(load.failover_ms))
    out.note("grants", grants, "count")
    return out


def trace_svc(workload: str, seed: int, seconds: float) -> tuple[Outcome, dict[str, float]]:
    """Traced service workload: an untraced and a traced pass, compared."""
    out = Outcome()
    half = seconds / 2
    plain = run_pass(workload, seed, half, trace=False)
    traced = run_pass(workload, seed, half, trace=True)
    gate(out, plain)
    gate(out, traced)
    if traced.load.epochs_digest() != plain.load.epochs_digest():
        out.fail("traced pass granted a different per-key history")
    out.fingerprint = plain.load.epochs_digest()

    load, summary = plain.load, plain.summary
    grants = max(1, sum(load.grants.values()))
    requests = max(1, summary["acquires"] + summary["releases"])
    svc_codec, gen_codec = traced.summary["codec"], traced.codec
    traced_grants = max(1, sum(traced.load.grants.values()))
    cpu_plain = load.cpu_s + summary["cpu_serving_s"]
    cpu_traced = traced.load.cpu_s + traced.summary["cpu_serving_s"]
    latencies = [s for p in ("light", "heavy", "hot") for s in load.latency_ms.get(p, [])]
    client_codec_ms = (
        (gen_codec.encode_s + gen_codec.decode_s) * 1e3
        / max(1, gen_codec.encodes + gen_codec.decodes) * 2
    )
    svc_ms_per_request = summary["cpu_serving_s"] * 1e3 / requests
    layers = {
        "wire.encode_s.gen": gen_codec.encode_s,
        "wire.decode_s.gen": gen_codec.decode_s,
        "wire.frames.gen": gen_codec.encodes + gen_codec.decodes,
        "wire.bytes_per_grant.gen": (
            (gen_codec.encode_bytes + gen_codec.decode_bytes) / traced_grants
        ),
        "wire.encode_s.svc": svc_codec["encode_s"],
        "wire.decode_s.svc": svc_codec["decode_s"],
        "wire.frames.svc": svc_codec["encodes"] + svc_codec["decodes"],
        "wire.bytes_per_grant.svc": (
            (svc_codec["encode_bytes"] + svc_codec["decode_bytes"]) / traced_grants
        ),
        "svc.cpu_ms_per_grant": summary["cpu_serving_s"] * 1e3 / grants,
        "svc.frames_per_grant": summary["frames_sent"] / grants,
        "svc.replay_ratio": summary["replays"] / max(1, summary["acquires"]),
        "svc.reelections": summary["reelections"],
        "svc.elect_ms_p50": median(traced.summary["elect_ms"]),
        "svc.crash_failover_ms_p50": summary["crash_failover_ms_p50"],
        "svc.rss_mb_per_10k_grants": (
            (summary["rss_end_mb"] - summary["rss_ready_mb"]) * 1e4 / grants
        ),
        "gen.lag_ms_max": max(load.lag_ms_max.values(), default=0.0),
        "gen.cpu_share": max(load.cpu_share.values(), default=0.0),
        "client.busy": load.busy,
        "client.errors": load.errors,
        "net.transport_wait_ms_p50": (
            median(latencies) - client_codec_ms - svc_ms_per_request
        ),
        "trace.overhead_ratio": cpu_traced / cpu_plain,
    }
    return out, layers

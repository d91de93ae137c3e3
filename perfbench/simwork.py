"""The simulator workloads: ``sift-4096`` and ``check-elect-16``.

Both run in the benchmark's own process (``workers=1``).  The untraced
path calls the program's public entry points exactly as a user would;
the traced path times the same calls from outside, by driving the
adversary's action loop itself (``sift-4096``) or by wrapping the
explorer's module-level entry points (``check-elect-16``).
"""

from __future__ import annotations

import gc
import importlib
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict

from common import (
    SRC,
    Outcome,
    digest,
    fastest_pass_s,
    median,
    percentile,
    run_probe,
)

sys.path.insert(0, str(SRC))

from repro.check.explore import explore, plan_trials  # noqa: E402
from repro.check.invariants import PROTOCOLS  # noqa: E402
from repro.harness.runners import (  # noqa: E402
    build_task_simulation,
    run_sifting_phase,
)
from repro.obs.events import ListSink  # noqa: E402
from repro.sim.messages import Deliver, DeliverBatch  # noqa: E402
from repro.sim.registers import RegisterFile  # noqa: E402
from repro.sim.runtime import Crash, Simulation, Step  # noqa: E402

# ``repro.check`` re-exports the ``explore`` function under the submodule's
# name, so the module itself is fetched by path.
explore_mod = importlib.import_module("repro.check.explore")

SIFT_N = 4096
SIFT_K = 16
SIFT_ADVERSARIES = ("sequential", "oblivious")

CHECK_PROTOCOL = "leader_election"
CHECK_N = 16
CHECK_BUDGET = 50
#: A short exploration run first, so imports and caches are warm.
WARMUP_BUDGET = 10

#: Set-up probes per run; the median is reported as ``setup_s``.
SETUP_PROBES = 5


def sift_seed(seed: int) -> int:
    """The simulator seed of the sifting cell generated from ``seed``."""
    return random.Random(f"sift-4096/{seed}").randrange(2**31)


def check_seed(seed: int) -> int:
    """The explorer master seed generated from ``seed``."""
    return random.Random(f"check-elect-16/{seed}").randrange(2**31)


def setup_probe(workload: str, seed: int) -> float:
    """Median cold start (interpreter, imports, first build) over the probes."""
    walls = []
    for _ in range(SETUP_PROBES):
        wall, code = run_probe(["perfbench/probe.py", workload, str(seed)])
        if code != 0:
            raise RuntimeError(f"set-up probe for {workload} exited {code}")
        walls.append(wall)
    return median(walls)


# ---------------------------------------------------------------------------
# sift-4096
# ---------------------------------------------------------------------------


class SimClock:
    """Per-layer seconds and counts gathered by the traced action loop."""

    def __init__(self) -> None:
        self.choose_s = 0.0
        self.actions = 0
        self.deliver_s = 0.0
        self.deliveries = 0
        self.step_s = 0.0
        self.steps = 0
        self.merge_s = 0.0
        self.merge_calls = 0
        self.value_view_s = 0.0
        self.build_s = 0.0
        self.delta: Counter[str] = Counter()

    @contextmanager
    def registers_wrapped(self):
        """Time every ``RegisterFile.merge`` / ``value_view`` call."""
        merge, value_view = RegisterFile.merge, RegisterFile.value_view
        perf = time.perf_counter
        clock = self

        def timed_merge(registers, var, incoming):
            start = perf()
            try:
                return merge(registers, var, incoming)
            finally:
                clock.merge_s += perf() - start
                clock.merge_calls += 1

        def timed_value_view(registers, var):
            start = perf()
            try:
                return value_view(registers, var)
            finally:
                clock.value_view_s += perf() - start

        RegisterFile.merge = timed_merge
        RegisterFile.value_view = timed_value_view
        try:
            yield
        finally:
            RegisterFile.merge = merge
            RegisterFile.value_view = value_view

    def drive(self, sim) -> None:
        """Run ``sim`` to completion through its public action loop.

        Mirrors ``Simulation.run``: ``setup``, then ``choose``/``execute``
        until every participant has decided.  Only steps and crashes can
        change the undecided set, so it is re-read after those alone.
        """
        adversary = sim.adversary
        adversary.setup(sim)
        choose, execute, perf = adversary.choose, sim.execute, time.perf_counter
        undecided = bool(sim.undecided)
        while undecided:
            start = perf()
            action = choose(sim)
            chosen = perf()
            if action is None:
                self.choose_s += chosen - start
                break
            execute(action)
            done = perf()
            self.choose_s += chosen - start
            self.actions += 1
            kind = type(action)
            if kind is DeliverBatch or kind is Deliver:
                self.deliver_s += done - chosen
                self.deliveries += 1
            elif kind is Step:
                self.step_s += done - chosen
                self.steps += 1
                undecided = bool(sim.undecided)
            elif kind is Crash:
                undecided = bool(sim.undecided)

    @contextmanager
    def runs_timed(self):
        """Time the simulations something else builds and runs.

        While active, every ``Simulation`` construction is timed, and every
        ``Simulation.run`` runs its own loop with the adversary's
        ``choose`` and the simulation's per-action ``_execute`` replaced,
        on that instance only, by timed wrappers that bucket by action
        type as ``drive`` does.  Registers are timed too, and each run's
        ``delta_stats`` are summed.
        """
        init, run, perf = Simulation.__init__, Simulation.run, time.perf_counter
        clock = self

        def timed_init(sim, *args, **kwargs):
            start = perf()
            init(sim, *args, **kwargs)
            clock.build_s += perf() - start

        def timed_run(sim, *args, **kwargs):
            adversary = sim.adversary
            choose, execute = adversary.choose, sim._execute

            def timed_choose(target):
                start = perf()
                action = choose(target)
                clock.choose_s += perf() - start
                clock.actions += action is not None
                return action

            def timed_execute(action):
                start = perf()
                execute(action)
                elapsed = perf() - start
                kind = type(action)
                if kind is DeliverBatch or kind is Deliver:
                    clock.deliver_s += elapsed
                    clock.deliveries += 1
                elif kind is Step:
                    clock.step_s += elapsed
                    clock.steps += 1

            adversary.choose, sim._execute = timed_choose, timed_execute
            try:
                return run(sim, *args, **kwargs)
            finally:
                del adversary.choose, sim._execute
                clock.delta.update(sim.delta_stats)

        Simulation.__init__, Simulation.run = timed_init, timed_run
        try:
            with self.registers_wrapped():
                yield
        finally:
            Simulation.__init__, Simulation.run = init, run


def sift_cell(seed: int, adversary: str, clock: SimClock | None = None):
    """Build and run one checked sifting cell; return (fingerprint, stats).

    ``run_sifting_phase`` checks the execution (``check_sifting_phase``)
    and raises if it is wrong.  With a ``clock`` the action loop is driven
    from here first, so the runner only collects and checks the result.
    """
    start = time.perf_counter()
    sim = build_task_simulation(
        "sift", "heterogeneous", n=SIFT_N, k=SIFT_K,
        adversary=adversary, seed=seed,
    )
    built = time.perf_counter()
    if clock is not None:
        with clock.registers_wrapped():
            clock.drive(sim)
    run = run_sifting_phase(
        n=SIFT_N, k=SIFT_K, kind="heterogeneous", adversary=adversary,
        seed=seed, simulation=sim,
    )
    done = time.perf_counter()
    metrics = run.result.metrics
    fingerprint = [
        adversary, run.survivors, metrics.messages_total,
        metrics.max_comm_calls, metrics.events_executed,
        metrics.deliveries, metrics.steps,
    ]
    stats = {
        "build_s": built - start,
        "wall_s": done - start,
        "deliveries": metrics.deliveries,
        "messages_total": metrics.messages_total,
        "max_comm_calls": metrics.max_comm_calls,
        "survivors": run.survivors,
        "delta": sim.delta_stats,
    }
    return fingerprint, stats


def sift_pair(seed: int, clock: SimClock | None = None):
    """One repetition: the cell under both adversaries."""
    fingerprints, stats = [], []
    for adversary in SIFT_ADVERSARIES:
        fingerprint, cell = sift_cell(seed, adversary, clock)
        fingerprints.append(fingerprint)
        stats.append(cell)
    return digest(fingerprints), stats


def run_sift(seed: int, seconds: float) -> Outcome:
    """Untraced ``sift-4096``: repeat the cell pair for ``seconds``."""
    out = Outcome()
    cell_seed = sift_seed(seed)
    out.put("setup_s", setup_probe("sift-4096", seed), "s")
    pair_s, deliveries = [], 0
    fingerprints = set()
    started = time.perf_counter()
    while not pair_s or time.perf_counter() - started + median(pair_s) <= seconds:
        out.attempted += len(SIFT_ADVERSARIES)
        try:
            fingerprint, stats = sift_pair(cell_seed)
        except Exception as error:  # a failed checker is a failed cell
            out.failed += len(SIFT_ADVERSARIES)
            out.fail(f"sift cell failed: {error!r}")
            break
        fingerprints.add(fingerprint)
        pair_s.append(sum(cell["wall_s"] for cell in stats))
        deliveries += sum(cell["deliveries"] for cell in stats)
    if len(fingerprints) > 1:
        out.fail(f"repeated cells disagree: {sorted(fingerprints)}")
    out.fingerprint = ",".join(sorted(fingerprints))
    if not pair_s:
        return out
    total = sum(pair_s)
    # The mean, not the median, of a handful of repetitions: the host's
    # speed drifts over seconds, and the mean averages every repetition.
    out.put("throughput_per_s", deliveries / total, "1/s")
    out.put("latency_ms", total / len(pair_s) * 1e3, "ms")
    out.note("msgs_per_s", deliveries / total, "1/s")
    out.note("pair_ms.p50", median(pair_s) * 1e3, "ms", len(pair_s))
    out.note("pair_ms.p99", percentile(pair_s, 0.99) * 1e3, "ms", len(pair_s))
    return out


def trace_sift(seed: int, seconds: float) -> tuple[Outcome, dict[str, float]]:
    """Traced ``sift-4096``: one untraced and one traced pair, compared."""
    out = Outcome()
    cell_seed = sift_seed(seed)
    out.attempted = 2 * len(SIFT_ADVERSARIES)
    start = time.perf_counter()
    plain, _ = sift_pair(cell_seed)
    plain_s = time.perf_counter() - start
    clock = SimClock()
    start = time.perf_counter()
    traced, stats = sift_pair(cell_seed, clock)
    traced_s = time.perf_counter() - start
    if traced != plain:
        out.fail(f"traced fingerprint {traced} != untraced {plain}")
    out.fingerprint = plain
    delta = Counter()
    for cell in stats:
        delta.update(cell["delta"])
    layers = sim_layers(clock)
    layers.update({
        "sim.build_s": sum(cell["build_s"] for cell in stats),
        "sim.delta.cells_suppressed": delta["cells_suppressed"],
        "sim.delta.useful_ratio": useful_ratio(delta),
        "core.messages_total": sum(cell["messages_total"] for cell in stats),
        "core.max_comm_calls": max(cell["max_comm_calls"] for cell in stats),
        "core.survivors": sum(cell["survivors"] for cell in stats),
        "trace.overhead_ratio": traced_s / plain_s,
    })
    return out, layers


def useful_ratio(delta: Counter) -> float:
    """Share of sent payloads that carried something (full or delta)."""
    useful = delta["full_payloads"] + delta["delta_payloads"]
    payloads = useful + delta["empty_payloads"]
    return useful / payloads if payloads else 0.0


def sim_layers(clock: SimClock) -> dict[str, float]:
    """The adversary, delivery, step and register figures of a clock."""
    return {
        "adversary.choose_s": clock.choose_s,
        "adversary.choose_ns_per_action": (
            clock.choose_s / clock.actions * 1e9 if clock.actions else 0.0
        ),
        "adversary.actions": clock.actions,
        "sim.deliver_s": clock.deliver_s,
        "sim.deliver_ns_per_msg": (
            clock.deliver_s / clock.deliveries * 1e9 if clock.deliveries else 0.0
        ),
        "sim.deliveries": clock.deliveries,
        "sim.step_s": clock.step_s,
        "sim.steps": clock.steps,
        "sim.registers.merge_s": clock.merge_s,
        "sim.registers.merge_calls": clock.merge_calls,
        "sim.registers.value_view_s": clock.value_view_s,
    }


# ---------------------------------------------------------------------------
# check-elect-16
# ---------------------------------------------------------------------------


def explore_once(seed: int, protocol: str = CHECK_PROTOCOL, budget: int = CHECK_BUDGET):
    """One ``repro check`` exploration; return (digest, violations, trials)."""
    report = explore(
        protocol, n=CHECK_N, budget=budget, seed=seed, workers=1, shrink=False,
    )
    stats = [asdict(outcome.stats) for outcome in report.outcomes]
    return digest(stats), len(report.violations), len(report.outcomes)


@contextmanager
def trials_timed(seconds: list[float]):
    """Append the seconds of every ``run_trial`` call to ``seconds``."""
    run_trial = explore_mod.run_trial
    perf = time.perf_counter

    def timed_run_trial(*args, **kwargs):
        start = perf()
        try:
            return run_trial(*args, **kwargs)
        finally:
            seconds.append(perf() - start)

    explore_mod.run_trial = timed_run_trial
    try:
        yield
    finally:
        explore_mod.run_trial = run_trial


def run_check(seed: int, seconds: float, protocol: str = CHECK_PROTOCOL,
              budget: int = CHECK_BUDGET) -> Outcome:
    """Untraced ``check-elect-16``: repeat one exploration for ``seconds``.

    The gated figures are the exploration's fastest pass
    (``fastest_pass_s``), with its trials as the slices plus one slice
    for everything outside them.
    """
    out = Outcome()
    master = check_seed(seed)
    out.put("setup_s", setup_probe("check-elect-16", seed), "s")
    explore_once(master, protocol, WARMUP_BUDGET)
    call_s, slices, trials = [], [], 0
    digests = set()
    started = time.perf_counter()
    while not call_s or time.perf_counter() - started + median(call_s) <= seconds:
        trial_s: list[float] = []
        gc.collect()  # so the program's collections hit the same trials
        start = time.perf_counter()
        with trials_timed(trial_s):
            stats_digest, violations, explored = explore_once(master, protocol, budget)
        call_s.append(time.perf_counter() - start)
        slices.append(trial_s + [call_s[-1] - sum(trial_s)])
        out.attempted += explored
        trials = explored
        digests.add(stats_digest)
        if violations:
            out.failed += explored
            out.fail(f"{protocol}: {violations} invariant violation(s)")
            break
    if len(digests) > 1:
        out.fail(f"repeated explorations disagree: {sorted(digests)}")
    out.fingerprint = ",".join(sorted(digests))
    fastest = fastest_pass_s(slices)
    out.put("throughput_per_s", trials / fastest, "1/s")
    out.put("latency_ms", fastest * 1e3, "ms")
    out.note("schedules_per_s", trials / fastest, "1/s")
    out.note("explore_ms.fastest_pass", fastest * 1e3, "ms", len(call_s))
    out.note("explore_ms.p50", median(call_s) * 1e3, "ms", len(call_s))
    out.note("explore_ms.p99", percentile(call_s, 0.99) * 1e3, "ms", len(call_s))
    return out


class CheckClock:
    """Seconds spent in the explorer's layers, wrapped at module level."""

    def __init__(self) -> None:
        self.run_s = 0.0
        self.eval_s = 0.0
        self.emit_s = 0.0
        self.events = 0
        self.trial_s: dict[str, float] = {}
        self.messages_total = 0
        self.max_comm_calls = 0

    @contextmanager
    def wrapped(self):
        """Time ``run_trial``, ``run_protocol``, ``evaluate_run`` and emits."""
        run_trial = explore_mod.run_trial
        run_protocol = explore_mod.run_protocol
        evaluate_run = explore_mod.evaluate_run
        emit = ListSink.emit
        perf = time.perf_counter
        clock = self

        def timed_run_trial(protocol, trial, *args, **kwargs):
            start = perf()
            try:
                return run_trial(protocol, trial, *args, **kwargs)
            finally:
                clock.trial_s[trial.mode] = (
                    clock.trial_s.get(trial.mode, 0.0) + perf() - start
                )

        def timed_run_protocol(*args, **kwargs):
            start = perf()
            run = run_protocol(*args, **kwargs)
            clock.run_s += perf() - start
            metrics = run.result.metrics
            clock.messages_total += metrics.messages_total
            clock.max_comm_calls = max(clock.max_comm_calls, metrics.max_comm_calls)
            return run

        def timed_evaluate_run(*args, **kwargs):
            start = perf()
            try:
                return evaluate_run(*args, **kwargs)
            finally:
                clock.eval_s += perf() - start

        def timed_emit(sink, event):
            start = perf()
            emit(sink, event)
            clock.emit_s += perf() - start
            clock.events += 1

        explore_mod.run_trial = timed_run_trial
        explore_mod.run_protocol = timed_run_protocol
        explore_mod.evaluate_run = timed_evaluate_run
        ListSink.emit = timed_emit
        try:
            yield
        finally:
            explore_mod.run_trial = run_trial
            explore_mod.run_protocol = run_protocol
            explore_mod.evaluate_run = evaluate_run
            ListSink.emit = emit


def run_without_sink(seed: int, budget: int) -> float:
    """Seconds to run the same planned trials with no event sink attached."""
    spec = PROTOCOLS[CHECK_PROTOCOL]
    start = time.perf_counter()
    for trial in plan_trials(budget, seed):
        explore_mod.run_protocol(
            spec, CHECK_N, None, trial.build_adversary(), trial.seed,
        )
    return time.perf_counter() - start


def trace_check(seed: int, seconds: float) -> tuple[Outcome, dict[str, float]]:
    """Traced ``check-elect-16``: one untraced and two traced explorations.

    The first traced pass times the explorer's layers (``CheckClock``),
    the second the simulator's (``SimClock.runs_timed``), so neither's
    per-action timers inflate the other's figures.  Both must give the
    untraced pass's digest.
    """
    out = Outcome()
    master = check_seed(seed)
    explore_once(master, budget=WARMUP_BUDGET)
    start = time.perf_counter()
    plain, violations, explored = explore_once(master)
    plain_s = time.perf_counter() - start
    clock = CheckClock()
    start = time.perf_counter()
    with clock.wrapped():
        traced, traced_violations, _ = explore_once(master)
    traced_s = time.perf_counter() - start
    sim_clock = SimClock()
    start = time.perf_counter()
    with sim_clock.runs_timed():
        sim_traced, _, _ = explore_once(master)
    traced_s += time.perf_counter() - start
    out.attempted = 3 * explored
    if violations or traced_violations:
        out.failed = explored
        out.fail(f"{violations} / {traced_violations} invariant violation(s)")
    for label, digest_ in (("check", traced), ("sim", sim_traced)):
        if digest_ != plain:
            out.fail(f"{label}-traced digest {digest_} != untraced {plain}")
    out.fingerprint = plain
    nosink_s = run_without_sink(master, CHECK_BUDGET)
    layers = sim_layers(sim_clock)
    layers.update({
        "sim.build_s": sim_clock.build_s,
        "sim.delta.cells_suppressed": sim_clock.delta["cells_suppressed"],
        "sim.delta.useful_ratio": useful_ratio(sim_clock.delta),
        "check.run_s": clock.run_s,
        "check.run_nosink_s": nosink_s,
        "check.plane_tax_ratio": clock.run_s / nosink_s,
        "obs.emit_s": clock.emit_s,
        "obs.events": clock.events,
        "check.eval_s": clock.eval_s,
        "core.messages_total": clock.messages_total,
        "core.max_comm_calls": clock.max_comm_calls,
        "trace.overhead_ratio": traced_s / (2 * plain_s),
    })
    for mode in ("random", "crash", "systematic"):
        layers[f"check.trial_s.{mode}"] = clock.trial_s.get(mode, 0.0)
    return out, layers

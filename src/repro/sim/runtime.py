"""The discrete-event simulation of the asynchronous message-passing model.

The simulation advances one *action* at a time, and the adversary picks
every action.  The enabled actions at any moment are exactly those of the
paper's model (Section 2):

* ``Deliver(message)`` — a delivery step: the message reaches its
  recipient, which (if non-faulty) processes it immediately — merging
  PROPAGATE entries and sending the ACK / COLLECT_REPLY, or recording an
  incoming acknowledgement against its outstanding ``communicate`` call.
  Every processor services requests this way, participant or not, decided
  or not: the model's standing assumption that non-faulty processors
  always assist.  On batch-mode runs (columnar pools, see
  :mod:`repro.sim.messages`) the same step is expressed as
  ``DeliverBatch(slot, desc)``, naming the in-flight leg by pool position
  instead of by object; the semantics are identical.
* ``Step(pid)`` — a computation step of the *algorithm*: starts the
  participant's coroutine, or resumes it when its outstanding
  ``communicate`` call has reached its quorum.
* ``Crash(pid)`` — fail a processor, up to ``ceil(n/2) - 1`` in total.
  Crashed processors never reply again; messages addressed to them may
  still be delivered but vanish.

Splitting "service a message" (delivery) from "advance the protocol"
(step) is what lets the adversary run participants one at a time through a
whole PoisonPill phase while everyone else merely acknowledges — the
sequential attack of Section 3.2.  The adversary also gets full read
access to local state including coin-flip logs, so it realizes the
paper's strong adaptive adversary exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from ..obs.events import (
    MESSAGE_EVENT_TYPES,
    Event,
    EventType,
    combine_sinks,
    subscribes,
)
from .communicate import Collect, PendingCall, Propagate
from .errors import (
    AdversaryProtocolError,
    CrashBudgetError,
    ProcessProtocolError,
    QuiescenceError,
    SimulationLimitError,
)
from .messages import (
    BROADCAST_SHIFT,
    MAX_BATCH_PIDS,
    PID_BITS,
    PID_MASK,
    REPLY_BIT,
    Broadcast,
    Deliver,
    DeliverBatch,
    InFlightPool,
    Message,
    MessageKind,
)
from .process import AlgorithmFactory, Process, ProcessStatus
from .registers import DeltaTracker
from .rng import make_stream
from .trace import Metrics, Trace, TraceAdapterSink


if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..adversary.base import Adversary
    from ..obs.events import EventSink
    from ..obs.profile import Profiler


@dataclass(frozen=True, slots=True)
class Step:
    """Adversary action: run one computation step of processor ``pid``."""
    pid: int


@dataclass(frozen=True, slots=True)
class Crash:
    """Adversary action: crash processor ``pid`` (within the budget)."""
    pid: int


# Deliver / DeliverBatch live in messages.py (the pool builds them in its
# mode-agnostic positional API) and are re-exported here for callers.
Action = Deliver | DeliverBatch | Step | Crash

#: Shared empty payload for events that need none (avoids a dict per event).
_NO_FIELDS: Mapping[str, Any] = {}

# Enum member lookups hoisted out of the batch delivery hot loop.
_ACK = MessageKind.ACK
_COLLECT_REPLY = MessageKind.COLLECT_REPLY
_PROPAGATE = MessageKind.PROPAGATE

#: Profiler span names for each action type (see ``Simulation.execute``).
_ACTION_SPANS = {
    Deliver: "execute.deliver",
    DeliverBatch: "execute.deliver",
    Step: "execute.step",
    Crash: "execute.crash",
}


@dataclass(slots=True)
class Decision:
    """A participant's recorded invocation/response interval and result."""

    pid: int
    result: Any
    start_time: int
    decide_time: int


@dataclass(slots=True)
class SimulationResult:
    """Everything a caller needs after a run: outcomes, metrics, trace."""

    n: int
    decisions: dict[int, Decision]
    metrics: Metrics
    trace: Trace
    undecided: frozenset[int]
    crashed: frozenset[int]
    start_times: dict[int, int]

    @property
    def outcomes(self) -> dict[int, Any]:
        """Map of pid to decided value, for assertion-friendly access."""
        return {pid: decision.result for pid, decision in self.decisions.items()}

    @property
    def terminated(self) -> bool:
        """True iff every non-crashed participant returned."""
        return not self.undecided


class Simulation:
    """One execution of ``n`` processors under a chosen adversary.

    ``participants`` maps processor ids to algorithm coroutine factories;
    all other processors are pure responders, which still reply to
    PROPAGATE/COLLECT traffic (the model requires all non-faulty
    processors to assist, even non-participants).
    """

    def __init__(
        self,
        n: int,
        participants: Mapping[int, AlgorithmFactory],
        adversary: "Adversary",
        seed: int = 0,
        crash_budget: int | None = None,
        record_events: bool = False,
        max_events: int | None = None,
        sink: "EventSink | None" = None,
        profiler: "Profiler | None" = None,
        delta_propagation: bool = True,
        telemetry: "EventSink | None" = None,
        batch_messages: bool | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one processor")
        for pid in participants:
            if not 0 <= pid < n:
                raise ValueError(f"participant pid {pid} out of range [0, {n})")
        self.n = n
        self.seed = seed
        self.adversary = adversary
        self.crash_budget = (n + 1) // 2 - 1 if crash_budget is None else crash_budget
        self.processes: list[Process] = [
            Process(pid, n, make_stream(seed, f"proc/{pid}"), participants.get(pid))
            for pid in range(n)
        ]
        self.trace = Trace(enabled=record_events)
        self.profiler = profiler
        # The structured event stream (repro.obs).  ``record_events`` keeps
        # the legacy Trace populated through an adapter sink; an explicit
        # ``sink`` receives the typed stream (every kind, or only the
        # ``kinds`` it subscribes to); ``telemetry`` is a second sink slot
        # for live consumers (a MetricsSink, LiveTelemetry, or
        # StreamingChecker) so callers can record a trace and watch it at
        # the same time.  When all are absent every emission site below
        # reduces to one ``is None`` check.
        sinks: list = []
        if record_events:
            sinks.append(TraceAdapterSink(self.trace))
        if sink is not None:
            sinks.append(sink)
        if telemetry is not None:
            sinks.append(telemetry)
        self._obs = combine_sinks(sinks)
        # Whether any attached sink reads MSG_SEND/MSG_DELIVER.  Those
        # events carry the Message objects themselves, so they alone pin
        # the materialized plane and disable the Message freelist.
        self._msg_events = subscribes(self._obs, MESSAGE_EVENT_TYPES)
        # Capability negotiation for the pool representation.  Batch
        # (columnar) mode needs two certificates: the adversary never
        # touches Message objects, and no attached sink subscribes to the
        # per-message events.  ``batch_messages`` overrides: False forces
        # the materialized plane (equivalence tests), True asserts batch
        # mode and raises if the certificates don't hold.
        wants_objects = getattr(adversary, "uses_message_objects", True)
        if batch_messages is None:
            batched = (
                not wants_objects and not self._msg_events and n <= MAX_BATCH_PIDS
            )
        elif batch_messages:
            if wants_objects:
                raise ValueError(
                    "batch_messages=True requires an adversary that declares "
                    "uses_message_objects = False"
                )
            if self._msg_events:
                raise ValueError(
                    "batch_messages=True is incompatible with sinks that "
                    "subscribe to msg.send/msg.deliver: per-message events "
                    "require materialized messages"
                )
            if n > MAX_BATCH_PIDS:
                raise ValueError(
                    f"batch descriptors encode pids in {PID_BITS} bits; "
                    f"n={n} exceeds the {MAX_BATCH_PIDS} ceiling"
                )
            batched = True
        else:
            batched = False
        # Skip the per-endpoint index bookkeeping when this run's
        # adversary declared it never reads the index API.
        self.in_flight = InFlightPool(
            indexed=getattr(adversary, "uses_endpoint_indexes", True),
            batched=batched,
        )
        self.metrics = Metrics(n)
        # Delta propagation: per-sender trackers (created lazily on first
        # broadcast) that shrink PROPAGATE payloads to entries the
        # recipient has not provably absorbed.  Semantically invisible —
        # register states, events, and metrics are identical to full
        # propagation (metrics/events report *logical* payload sizes);
        # the physical savings are reported via :attr:`delta_stats`.
        self.delta_propagation = delta_propagation
        self._delta: dict[int, DeltaTracker] | None = (
            {} if delta_propagation else None
        )
        # Recycled Message objects (only when no sink reads the
        # per-message events that hold raw references); see _deliver.
        # The cap scales with n: one broadcast materializes up to n - 1
        # replies, so the hardcoded small cap that served n<=256 would
        # starve the freelist at large n and put the allocator back on
        # the hot path.
        self._free_messages: list[Message] = []
        self._free_cap = max(256, 2 * n)
        self.clock = 0
        self.max_events = max_events if max_events is not None else 100_000 + 1_000 * n * n
        self._call_counter = 0
        # Run-local message uid source: uids restart at 0 for every
        # simulation, so back-to-back runs in one process are byte-identical
        # (the module-global fallback in messages.py would leak earlier
        # runs' message counts into this run's uids).
        self._uid_counter = itertools.count()
        self._needs_step: set[int] = set(participants)
        self._undecided: set[int] = set(participants)
        self._crashed: set[int] = set()
        self._start_times: dict[int, int] = {}
        if self._obs is not None:
            for process in self.processes:
                process.put_hook = self._make_put_hook(process.pid)
                process.obs = self._make_obs_hook(process.pid)

    def _make_put_hook(self, pid: int):
        def hook(var, key, value):
            self._obs.emit(Event(
                self.clock,
                EventType.REG_PUT,
                pid,
                {"var": var, "key": key, "value": value},
                raw=(var, key, value),
            ))

        return hook

    def _make_obs_hook(self, pid: int):
        """Emission channel handed to processes for coin flips and the
        protocol-level annotations (phase/round transitions)."""

        def hook(etype: str, fields: dict, raw: Any = None) -> None:
            self._obs.emit(Event(self.clock, etype, pid, fields, raw))

        return hook

    # ------------------------------------------------------------------
    # Adversary-facing inspection API
    # ------------------------------------------------------------------

    @property
    def steppable(self) -> set[int]:
        """Pids for which a Step action would make progress right now.

        A participant is steppable when it has not started yet, or when its
        outstanding ``communicate`` call has already reached its quorum.
        The returned set is live; adversaries must not mutate it.
        """
        return self._needs_step

    @property
    def crashed(self) -> frozenset[int]:
        """The crashed processor ids, as an immutable set."""
        return frozenset(self._crashed)

    @property
    def undecided(self) -> frozenset[int]:
        """Alive participants that have not yet returned."""
        return frozenset(self._undecided)

    @property
    def crashes_remaining(self) -> int:
        """How many more crashes the ``t <= ceil(n/2) - 1`` budget allows."""
        return self.crash_budget - len(self._crashed)

    def process(self, pid: int) -> Process:
        """The runtime state of processor ``pid`` (adversaries may read it)."""
        return self.processes[pid]

    def has_enabled_action(self) -> bool:
        """True iff a delivery or a useful step is currently possible."""
        return bool(self.in_flight) or bool(self._needs_step)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, require_termination: bool = True) -> SimulationResult:
        """Drive the simulation until all alive participants decide.

        Raises :class:`SimulationLimitError` if the event budget runs out
        and :class:`QuiescenceError` (when ``require_termination``) if the
        system goes quiet with undecided participants — the expected
        outcome when more than ``ceil(n/2) - 1`` processors were crashed.
        """
        self.adversary.setup(self)
        # Without a profiler, skip the execute() span wrapper per action —
        # one call frame per event is measurable at millions of events.
        execute = self._execute if self.profiler is None else self.execute
        while self._undecided:
            if self.metrics.events_executed >= self.max_events:
                raise SimulationLimitError(
                    f"exceeded {self.max_events} events with "
                    f"{len(self._undecided)} undecided participants"
                )
            if self.profiler is None:
                action = self.adversary.choose(self)
            else:
                with self.profiler.span("adversary.choose"):
                    action = self.adversary.choose(self)
            if action is None:
                if self.has_enabled_action():
                    raise AdversaryProtocolError(
                        "adversary passed while actions were still enabled"
                    )
                break
            execute(action)
        if require_termination and self._undecided:
            raise QuiescenceError(
                f"participants {sorted(self._undecided)} never decided"
            )
        return self._result()

    def execute(self, action: Action) -> None:
        """Apply one adversary-chosen action."""
        if self.profiler is None:
            self._execute(action)
        else:
            label = _ACTION_SPANS.get(type(action), "execute.unknown")
            with self.profiler.span(label):
                self._execute(action)

    def _execute(self, action: Action) -> None:
        self.metrics.events_executed += 1
        self.clock += 1
        # DeliverBatch first: on a batch run every delivery takes this
        # branch, and deliveries dominate the action mix.
        if isinstance(action, DeliverBatch):
            self._deliver_batch(action)
        elif isinstance(action, Deliver):
            self._deliver(action.message)
        elif isinstance(action, Step):
            self._step(action.pid)
        elif isinstance(action, Crash):
            self._crash(action.pid)
        else:
            raise AdversaryProtocolError(f"unknown action: {action!r}")

    def _result(self) -> SimulationResult:
        decisions = {}
        for process in self.processes:
            if process.decided:
                assert process.decide_time is not None
                decisions[process.pid] = Decision(
                    pid=process.pid,
                    result=process.result,
                    start_time=self._start_times[process.pid],
                    decide_time=process.decide_time,
                )
        return SimulationResult(
            n=self.n,
            decisions=decisions,
            metrics=self.metrics,
            trace=self.trace,
            undecided=frozenset(self._undecided),
            crashed=frozenset(self._crashed),
            start_times=dict(self._start_times),
        )

    # ------------------------------------------------------------------
    # Action semantics
    # ------------------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        self.in_flight.remove(message)
        self.metrics.deliveries += 1
        recipient = self.processes[message.recipient]
        if self._msg_events:
            # Carries (src, dst, kind, call): together with sched.step and
            # sched.crash this is the full schedule the replayer re-drives.
            self._obs.emit(Event(
                self.clock,
                EventType.MSG_DELIVER,
                message.recipient,
                {
                    "kind": message.kind.value,
                    "src": message.sender,
                    "dst": message.recipient,
                    "call": message.call_id,
                    "var": message.var,
                },
                raw=message,
            ))
        if recipient.status is ProcessStatus.CRASHED:
            # Delivered into the void; faulty processors never reply.  The
            # swallowed Message is still recyclable — nothing retained it.
            if not self._msg_events and len(self._free_messages) < self._free_cap:
                self._free_messages.append(message)
            return
        if message.kind is MessageKind.PROPAGATE:
            assert message.entries is not None
            if message.entries:
                # Empty payloads (fully delta-suppressed) skip the merge
                # call outright — merging {} is a no-op anyway.
                recipient.registers.merge(message.var, message.entries)
            self._send(
                recipient,
                self._new_message(
                    sender=recipient.pid,
                    recipient=message.sender,
                    kind=MessageKind.ACK,
                    call_id=message.call_id,
                    var=message.var,
                ),
                0,
            )
        elif message.kind is MessageKind.COLLECT:
            # Shared copy-on-write snapshot of the responder's view;
            # zero-copy until the responder's next write to the var.  The
            # memoized value view rides along so the collector appends it
            # without rebuilding {key: value} per reply.
            entries = recipient.registers.entries(message.var)
            self._send(
                recipient,
                self._new_message(
                    sender=recipient.pid,
                    recipient=message.sender,
                    kind=MessageKind.COLLECT_REPLY,
                    call_id=message.call_id,
                    var=message.var,
                    entries=entries,
                    view=recipient.registers.value_view(message.var),
                ),
                len(entries),
            )
        else:
            self._record_reply(recipient, message)
        if not self._msg_events and len(self._free_messages) < self._free_cap:
            # Recycle the delivered Message: nothing retains it (the pool
            # dropped it above, views/metrics keep only payload mappings,
            # and adversaries do not hold delivered messages).  When a
            # sink reads per-message events the raw object escaped into
            # the stream, so recycling is disabled entirely.
            self._free_messages.append(message)

    def _record_reply(self, process: Process, message: Message) -> None:
        if message.kind is MessageKind.ACK and self._delta is not None:
            # Fold the ACK into the sender's delta watermarks *before* the
            # staleness check: an ACK arriving after its call resolved
            # still proves the recipient merged that call's payload.
            tracker = self._delta.get(process.pid)
            if tracker is not None:
                tracker.on_ack(message.sender, message.call_id)
        pending = process.pending
        if pending is None or pending.call_id != message.call_id:
            return  # stale acknowledgement for an already-resolved call
        if message.kind is MessageKind.ACK and isinstance(pending.request, Propagate):
            pending.acks += 1
        elif message.kind is MessageKind.COLLECT_REPLY and isinstance(
            pending.request, Collect
        ):
            assert message.entries is not None and pending.views is not None
            pending.acks += 1
            view = message.view
            if view is None:  # externally built reply (unit tests)
                view = {key: entry[1] for key, entry in message.entries.items()}
            pending.views.append(view)
        if pending.satisfied and process.status is ProcessStatus.RUNNING:
            self._needs_step.add(process.pid)
            if self._obs is not None:
                self._obs.emit(Event(
                    self.clock,
                    EventType.COMM_DONE,
                    process.pid,
                    {"call": pending.call_id, "acks": pending.acks},
                ))

    def _deliver_batch(self, action: DeliverBatch) -> None:
        """Deliver one batch descriptor — the columnar twin of :meth:`_deliver`.

        Mirrors the materialized path operation for operation (same pool
        mutations in the same order, same metrics updates, same crash
        semantics) so the two modes stay byte-identical; the only
        intentional difference is *when* delta payloads are computed
        (delivery time here, send time there — see
        :class:`~repro.sim.messages.Broadcast`).
        """
        pool = self.in_flight
        if not pool._batched:
            raise AdversaryProtocolError(
                "DeliverBatch action on a materialized (non-batch) pool"
            )
        desc = action.desc
        slot = action.slot
        # Inlined InFlightPool.remove_descriptor / broadcast_of and the
        # Broadcast/Metrics single-field updates below: this method runs
        # once per delivered message (millions of times at n=65536), and
        # the call frames alone cost ~25% of the loop.
        descs = pool._descs
        if slot < 0 or slot >= len(descs) or descs[slot] != desc:
            raise KeyError(
                f"descriptor not in flight: slot={slot} desc={desc}"
            )
        last = descs.pop()
        if slot < len(descs):
            descs[slot] = last
        metrics = self.metrics
        metrics.deliveries += 1
        broadcast = pool._broadcasts[desc >> BROADCAST_SHIFT]
        endpoint = desc & PID_MASK
        if desc & REPLY_BIT:
            # Reply leg: fold the ack into the broadcaster's pending call
            # (the body of _record_batch_reply, inlined — replies are half
            # of all deliveries).
            process = self.processes[broadcast.sender]
            if process.status is ProcessStatus.CRASHED:
                # Same order as the materialized path: a reply delivered
                # to a crashed broadcaster vanishes before any accounting
                # — delta watermarks included (the crashed sender never
                # sends again, so the lost fold is unobservable there too).
                if broadcast.views is not None:
                    broadcast.views.pop(endpoint, None)
                return
            if broadcast.kind is _PROPAGATE:
                tracker = broadcast.tracker
                if tracker is not None:
                    # Before the staleness check, exactly like
                    # _record_reply: a stale ACK still proves the
                    # recipient merged the payload.
                    tracker.on_ack(endpoint, broadcast.call_id)
                pending = process.pending
                if pending is None or pending.call_id != broadcast.call_id:
                    return  # stale ack for an already-resolved call
                pending.acks += 1
            else:
                view = broadcast.views.pop(endpoint)
                pending = process.pending
                if pending is None or pending.call_id != broadcast.call_id:
                    return
                pending.acks += 1
                pending.views.append(view)
            if pending.satisfied and process.status is ProcessStatus.RUNNING:
                self._needs_step.add(broadcast.sender)
                if self._obs is not None:
                    # The COMM_DONE of _record_reply, so a kind-scoped
                    # sink sees the same stream on either plane.
                    self._obs.emit(Event(
                        self.clock,
                        EventType.COMM_DONE,
                        broadcast.sender,
                        {"call": pending.call_id, "acks": pending.acks},
                    ))
            return
        # Broadcast.mark_delivered, inlined.
        words = broadcast._undelivered_words
        words[endpoint >> 6] &= ~(1 << (endpoint & 63))
        broadcast.undelivered_count -= 1
        recipient = self.processes[endpoint]
        if recipient.status is ProcessStatus.CRASHED:
            return  # delivered into the void; faulty processors never reply
        if broadcast.kind is _PROPAGATE:
            entries = broadcast.entries
            tracker = broadcast.tracker
            if tracker is not None:
                entries = tracker.payload_for(
                    endpoint, broadcast.var, broadcast.entries,
                    broadcast.ticks, broadcast.cache,
                )
            if entries:
                recipient.registers.merge(broadcast.var, entries)
            descs.append(desc | REPLY_BIT)  # pool.add_reply, inlined
            recipient.messages_sent += 1
            # Metrics.record_send(endpoint, ACK, cells=0), inlined.
            metrics.messages_total += 1
            metrics.messages_by_kind[_ACK] += 1
            metrics.messages_sent_by[endpoint] += 1
        else:
            # COLLECT: capture the responder's memoized value view at
            # request-delivery time (its registers may change before the
            # reply leg lands) — the snapshot the materialized path pins
            # by attaching the view to the COLLECT_REPLY message.
            view = recipient.registers.value_view(broadcast.var)
            broadcast.views[endpoint] = view
            descs.append(desc | REPLY_BIT)  # pool.add_reply, inlined
            recipient.messages_sent += 1
            # Metrics.record_send(endpoint, COLLECT_REPLY, len(view)), inlined.
            metrics.messages_total += 1
            metrics.messages_by_kind[_COLLECT_REPLY] += 1
            metrics.messages_sent_by[endpoint] += 1
            metrics.payload_cells += len(view)

    def _step(self, pid: int) -> None:
        process = self.processes[pid]
        if process.status is ProcessStatus.CRASHED:
            raise AdversaryProtocolError(f"cannot step crashed processor {pid}")
        self.metrics.steps += 1
        process.steps_taken += 1
        if self._obs is not None:
            self._obs.emit(Event(self.clock, EventType.SCHED_STEP, pid, _NO_FIELDS))
        if process.status is ProcessStatus.IDLE:
            self._start_times[pid] = self.clock
            if self._obs is not None:
                self._obs.emit(Event(self.clock, EventType.PROC_START, pid, _NO_FIELDS))
            process.start()
            self._advance(process, None)
        while (
            process.status is ProcessStatus.RUNNING
            and process.pending is not None
            and process.pending.satisfied
        ):
            pending, process.pending = process.pending, None
            self._advance(process, pending.result())
        self._needs_step.discard(pid)

    def _crash(self, pid: int) -> None:
        if self.crashes_remaining <= 0:
            raise CrashBudgetError(
                f"crash budget {self.crash_budget} exhausted; cannot crash {pid}"
            )
        process = self.processes[pid]
        if process.status is ProcessStatus.CRASHED:
            raise AdversaryProtocolError(f"processor {pid} is already crashed")
        process.status = ProcessStatus.CRASHED
        self._crashed.add(pid)
        self._needs_step.discard(pid)
        self._undecided.discard(pid)
        self.metrics.crashes += 1
        if self._obs is not None:
            self._obs.emit(Event(self.clock, EventType.SCHED_CRASH, pid, _NO_FIELDS))

    # ------------------------------------------------------------------
    # Coroutine advancement
    # ------------------------------------------------------------------

    def _advance(self, process: Process, send_value: Any) -> None:
        assert process.coroutine is not None
        # Checkpoint support (repro.sim.snapshot): generators cannot be
        # deep-copied, so a fork rebuilds each coroutine by replaying the
        # exact values it consumed — resume inputs recorded here, register
        # reads and coin outcomes recorded in ProcessAPI.  One None check
        # when recording is off.
        if process.io_record is not None:
            process.io_record.append(send_value)
        try:
            request = process.coroutine.send(send_value)
        except StopIteration as stop:
            process.status = ProcessStatus.DONE
            process.result = stop.value
            process.decide_time = self.clock
            process.pending = None
            self._undecided.discard(process.pid)
            if self._obs is not None:
                self._obs.emit(Event(
                    self.clock,
                    EventType.PROC_DECIDE,
                    process.pid,
                    {"result": stop.value},
                    raw=stop.value,
                ))
            return
        if not isinstance(request, (Propagate, Collect)):
            raise ProcessProtocolError(
                f"processor {process.pid} yielded {request!r}; expected a "
                "Propagate or Collect request"
            )
        self._issue_communicate(process, request)

    def _issue_communicate(self, process: Process, request: Propagate | Collect) -> None:
        self._call_counter += 1
        call_id = self._call_counter
        process.comm_calls += 1
        self.metrics.record_comm_call(process.pid)
        if self._obs is not None:
            self._obs.emit(Event(
                self.clock,
                EventType.COMM_CALL,
                process.pid,
                {
                    "call": call_id,
                    "kind": "propagate" if isinstance(request, Propagate) else "collect",
                    "var": request.var,
                },
                raw=request,
            ))
        needed_remote = self.n // 2  # quorum = floor(n/2) + 1, counting self
        pending = PendingCall(call_id=call_id, request=request, needed=needed_remote)
        pid = process.pid
        var = request.var
        tracker = None
        ticks: Mapping[Any, int] = _NO_FIELDS
        send_ticks: Mapping[Any, int] | None = None
        payload_cache: dict[int, Mapping[Any, Any]] = {}
        if isinstance(request, Propagate):
            # One payload mapping per communicate call, shared (frozen,
            # copy-on-write — see RegisterFile.entries) by all n-1 messages.
            entries = process.registers.entries(request.var, request.keys)
            kind = MessageKind.PROPAGATE
            # ``cells`` is the logical payload size; delta mode may ship
            # fewer physical entries per recipient but reports this.
            cells = len(entries)
            if self._delta is not None:
                tracker = self._delta.get(pid)
                if tracker is None:
                    tracker = self._delta[pid] = DeltaTracker()
                ticks = process.registers.mod_ticks(var)
                send_ticks = tracker.begin_call(call_id, var, entries, ticks)
        else:
            entries = None
            pending.views = [process.registers.value_view(var)]
            kind = MessageKind.COLLECT
            cells = 0
        process.pending = pending
        in_flight = self.in_flight
        if in_flight.batched:
            # Columnar fast path: one Broadcast record plus n-1 packed
            # descriptors (two C-speed range-extends) replace the n-1
            # Message constructions and pool insertions below.  Delta
            # payloads are computed lazily at delivery time against the
            # send-time tick snapshot the tracker just recorded.
            in_flight.open_broadcast(
                pid, call_id, kind, var, self.n,
                entries=entries, ticks=send_ticks, tracker=tracker,
            )
            process.messages_sent += self.n - 1
            self.metrics.record_send_batch(pid, kind, cells, self.n - 1)
        elif not self._msg_events:
            # Materialized fast path (no per-message events): accounting
            # (metrics, counter bumps) is folded into one update after the
            # loop; only the pool insertion remains per message.
            for recipient in range(self.n):
                if recipient == pid:
                    continue
                payload = (
                    entries
                    if tracker is None
                    else tracker.payload_for(
                        recipient, var, entries, ticks, payload_cache
                    )
                )
                in_flight.add(self._new_message(
                    sender=pid,
                    recipient=recipient,
                    kind=kind,
                    call_id=call_id,
                    var=var,
                    entries=payload,
                ))
            process.messages_sent += self.n - 1
            self.metrics.record_send_batch(pid, kind, cells, self.n - 1)
        else:
            for recipient in range(self.n):
                if recipient == pid:
                    continue
                payload = (
                    entries
                    if tracker is None
                    else tracker.payload_for(
                        recipient, var, entries, ticks, payload_cache
                    )
                )
                self._send(
                    process,
                    self._new_message(
                        sender=pid,
                        recipient=recipient,
                        kind=kind,
                        call_id=call_id,
                        var=var,
                        entries=payload,
                    ),
                    cells,
                )
        if pending.satisfied:
            # Degenerate quorums (n == 1): resolvable without remote acks.
            self._needs_step.add(process.pid)
            if self._obs is not None:
                self._obs.emit(Event(
                    self.clock,
                    EventType.COMM_DONE,
                    process.pid,
                    {"call": call_id, "acks": pending.acks},
                ))

    def _new_message(
        self,
        sender: int,
        recipient: int,
        kind: MessageKind,
        call_id: int,
        var: str,
        entries: Mapping[Any, Any] | None = None,
        view: Mapping[Any, Any] | None = None,
    ) -> Message:
        """Build (or recycle) a Message, stamping the run-local uid.

        Recycled objects come from the freelist populated by
        :meth:`_deliver`; every field is overwritten here, so reuse is
        invisible.  The freelist stays empty whenever a sink reads
        per-message events (raw messages then escape into the stream).
        """
        free = self._free_messages
        if free:
            message = free.pop()
            message.sender = sender
            message.recipient = recipient
            message.kind = kind
            message.call_id = call_id
            message.var = var
            message.entries = entries
            message.view = view
            message.uid = next(self._uid_counter)
            return message
        return Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            call_id=call_id,
            var=var,
            entries=entries,
            uid=next(self._uid_counter),
            view=view,
        )

    def _send(self, sender: Process, message: Message, cells: int) -> None:
        """Account and enqueue one message; ``cells`` is the logical size."""
        sender.messages_sent += 1
        self.metrics.record_send(sender.pid, message.kind, cells)
        if self._msg_events:
            self._obs.emit(Event(
                self.clock,
                EventType.MSG_SEND,
                sender.pid,
                {
                    "kind": message.kind.value,
                    "src": message.sender,
                    "dst": message.recipient,
                    "call": message.call_id,
                    "var": message.var,
                    "cells": cells,
                },
                raw=message,
            ))
        self.in_flight.add(message)

    @property
    def delta_stats(self) -> dict[str, int]:
        """Physical delta-propagation savings, summed over all senders.

        Diagnostics only: ``Metrics``/events always report logical payload
        sizes, so these counters are the *only* place full and delta runs
        differ.  All zeros when ``delta_propagation=False`` or nothing was
        suppressed.
        """
        stats = {
            "full_payloads": 0,
            "delta_payloads": 0,
            "empty_payloads": 0,
            "cells_suppressed": 0,
        }
        if self._delta:
            for tracker in self._delta.values():
                stats["full_payloads"] += tracker.full_payloads
                stats["delta_payloads"] += tracker.delta_payloads
                stats["empty_payloads"] += tracker.empty_payloads
                stats["cells_suppressed"] += tracker.cells_suppressed
        return stats

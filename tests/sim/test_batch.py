"""Batch (columnar) pool plane: equivalence, invariants, negotiation.

The batch plane is a pure representation change — a ``communicate`` call
becomes one :class:`Broadcast` record plus packed int descriptors instead
of ``n - 1`` :class:`Message` objects.  These tests pin the contract that
makes the optimisation safe to ship:

* **Mode equivalence** — for every registered adversary (and the crash
  wrappers), a negotiated run and a ``batch_messages=False`` run are
  byte-identical in everything observable: decisions, every metrics
  counter, and the per-processor breakdowns.
* **Structure invariants** — the descriptor encoding round-trips, the
  undelivered bitmask tracks deliveries exactly, and the descs list obeys
  the same swap-remove slot discipline as the materialized list.
* **Negotiation** — batch mode engages exactly when the adversary
  forswears Message objects and no attached sink subscribes to the
  per-message events, and ``batch_messages=True`` fails loudly when
  those certificates are absent.
* **Kind-scoped sinks** — a sink subscribing to everything but
  ``msg.*`` rides the batch plane and sees exactly the materialized
  stream filtered to its kinds, ``comm.done`` included.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    ADVERSARY_FACTORIES,
    CrashingAdversary,
    EagerAdversary,
    RandomAdversary,
    RandomCrashAdversary,
)
from repro.core import make_heterogeneous_poison_pill, make_leader_elect
from repro.obs.events import (
    MESSAGE_EVENT_TYPES,
    EventType,
    ListSink,
    MultiSink,
)
from repro.obs.jsonl import event_line
from repro.sim import DeliverBatch, Simulation, Step
from repro.sim.messages import (
    BROADCAST_SHIFT,
    MAX_BATCH_PIDS,
    PID_MASK,
    REPLY_BIT,
    Broadcast,
    InFlightPool,
    MessageKind,
)
from repro.sim import runtime as runtime_module


def _election_sim(adversary, *, n=24, seed=11, **kwargs):
    return Simulation(
        n,
        {pid: make_leader_elect() for pid in range(n)},
        adversary,
        seed=seed,
        **kwargs,
    )


def _sifting_sim(adversary, *, n=32, k=8, seed=5, **kwargs):
    factory = make_heterogeneous_poison_pill()
    return Simulation(
        n,
        {pid: factory for pid in range(k)},
        adversary,
        seed=seed,
        **kwargs,
    )


def _observables(result):
    """Everything a caller can see, minus the trace (batch runs have none)."""
    metrics = result.metrics
    return {
        "outcomes": result.outcomes,
        "undecided": result.undecided,
        "crashed": result.crashed,
        "start_times": result.start_times,
        "summary": metrics.summary(),
        "messages_by_kind": dict(metrics.messages_by_kind),
        "messages_sent_by": list(metrics.messages_sent_by),
        "comm_calls_by": list(metrics.comm_calls_by),
    }


class TestModeEquivalence:
    """Negotiated runs == forced-materialized runs, for every adversary."""

    @pytest.mark.parametrize("name", sorted(ADVERSARY_FACTORIES))
    def test_election_identical(self, name):
        batch = _election_sim(ADVERSARY_FACTORIES[name](seed=3))
        legacy = _election_sim(
            ADVERSARY_FACTORIES[name](seed=3), batch_messages=False
        )
        wants_objects = ADVERSARY_FACTORIES[name]().uses_message_objects
        assert batch.in_flight.batched == (not wants_objects)
        assert not legacy.in_flight.batched
        assert _observables(batch.run()) == _observables(legacy.run())

    @pytest.mark.parametrize("name", sorted(ADVERSARY_FACTORIES))
    def test_sifting_identical(self, name):
        batch = _sifting_sim(ADVERSARY_FACTORIES[name](seed=9))
        legacy = _sifting_sim(
            ADVERSARY_FACTORIES[name](seed=9), batch_messages=False
        )
        assert _observables(batch.run()) == _observables(legacy.run())

    def test_matches_traced_run(self):
        """record_events forces materialized; its metrics still match batch."""
        batch = _election_sim(RandomAdversary(seed=2))
        traced = _election_sim(RandomAdversary(seed=2), record_events=True)
        assert batch.in_flight.batched
        assert not traced.in_flight.batched
        assert _observables(batch.run()) == _observables(traced.run())

    def test_crashing_wrapper_identical(self):
        schedule = [(40, 1), (90, 3), (150, 7)]
        batch = _election_sim(
            CrashingAdversary(RandomAdversary(seed=6), schedule)
        )
        legacy = _election_sim(
            CrashingAdversary(RandomAdversary(seed=6), schedule),
            batch_messages=False,
        )
        assert batch.in_flight.batched
        result = batch.run()
        assert result.crashed  # the schedule actually fired
        assert _observables(result) == _observables(legacy.run())

    def test_random_crash_wrapper_identical(self):
        batch = _election_sim(
            RandomCrashAdversary(RandomAdversary(seed=4), rate=0.02, seed=13)
        )
        legacy = _election_sim(
            RandomCrashAdversary(RandomAdversary(seed=4), rate=0.02, seed=13),
            batch_messages=False,
        )
        assert batch.in_flight.batched
        result = batch.run()
        assert result.crashed
        assert _observables(result) == _observables(legacy.run())

    def test_delta_off_identical(self):
        """Full (non-delta) propagation takes the same batch path."""
        batch = _sifting_sim(RandomAdversary(seed=1), delta_propagation=False)
        legacy = _sifting_sim(
            RandomAdversary(seed=1),
            delta_propagation=False,
            batch_messages=False,
        )
        assert _observables(batch.run()) == _observables(legacy.run())


class TestBroadcastRecord:
    def test_undelivered_excludes_sender(self):
        b = Broadcast(bid=0, sender=2, call_id=1, kind=MessageKind.PROPAGATE,
                      var="X", n=8)
        assert b.undelivered_count == 7
        assert b.undelivered == 0b11111011

    def test_mark_delivered_clears_one_bit(self):
        b = Broadcast(bid=0, sender=0, call_id=1, kind=MessageKind.PROPAGATE,
                      var="X", n=67)  # straddles the 64-bit word boundary
        for recipient in (1, 63, 64, 66):
            before = b.undelivered
            b.mark_delivered(recipient)
            assert b.undelivered == before & ~(1 << recipient)
        assert b.undelivered_count == 66 - 4  # n-1 minus four deliveries

    def test_descriptor_round_trip(self):
        b = Broadcast(bid=5, sender=3, call_id=9, kind=MessageKind.COLLECT,
                      var="X", n=16)
        request = b.request_descriptor(7)
        assert request & PID_MASK == 7
        assert not request & REPLY_BIT
        assert request >> BROADCAST_SHIFT == 5
        reply = b.reply_descriptor(7)
        assert reply == request | REPLY_BIT
        assert reply & PID_MASK == 7
        assert reply >> BROADCAST_SHIFT == 5


class TestBatchPool:
    def _open(self, pool, sender=0, n=5, kind=MessageKind.PROPAGATE):
        return pool.open_broadcast(
            sender=sender, call_id=1, kind=kind, var="X", n=n
        )

    def test_open_broadcast_orders_recipients_ascending(self):
        pool = InFlightPool(indexed=False, batched=True)
        b = self._open(pool, sender=2, n=5)
        # Same order the materialized loop adds messages: every pid but
        # the sender, ascending.
        pids = [pool.descriptors[i] & PID_MASK for i in range(len(pool))]
        assert pids == [0, 1, 3, 4]
        assert all(not d & REPLY_BIT for d in pool.descriptors)
        assert pool.broadcast_of(pool.descriptors[0]) is b

    def test_swap_remove_and_staleness(self):
        pool = InFlightPool(indexed=False, batched=True)
        self._open(pool, sender=0, n=5)
        descs = list(pool.descriptors)
        pool.remove_descriptor(0, descs[0])
        # Swap-remove: the last element moved into slot 0.
        assert pool.descriptors[0] == descs[-1]
        # A stale (slot, desc) claim fails loudly instead of corrupting.
        with pytest.raises(KeyError):
            pool.remove_descriptor(0, descs[0])

    def test_add_reply_sets_reply_bit(self):
        pool = InFlightPool(indexed=False, batched=True)
        self._open(pool, sender=0, n=3)
        request = pool.descriptors[0]
        pool.remove_descriptor(0, request)
        pool.add_reply(request)
        reply = pool.descriptors[len(pool) - 1]
        assert reply == request | REPLY_BIT

    def test_positional_api(self):
        pool = InFlightPool(indexed=False, batched=True)
        self._open(pool, sender=1, n=4)
        action = pool.action_at(0)
        assert isinstance(action, DeliverBatch)
        assert action.slot == 0
        assert pool.last_action() == pool.action_at(len(pool) - 1)
        # Request legs run sender -> recipient; replies the reverse.
        assert pool.endpoints_at(0) == (1, 0)
        request = pool.descriptors[0]
        pool.remove_descriptor(0, request)
        pool.add_reply(request)
        assert pool.endpoints_at(len(pool) - 1) == (0, 1)

    def test_object_api_refuses(self):
        pool = InFlightPool(indexed=False, batched=True)
        from repro.sim.messages import Message

        stray = Message(sender=0, recipient=1, kind=MessageKind.ACK,
                        call_id=1, var="X")
        with pytest.raises(RuntimeError, match="batch"):
            pool.add(stray)
        with pytest.raises(RuntimeError):
            pool.remove(stray)
        with pytest.raises(RuntimeError):
            pool.any_message()
        with pytest.raises(RuntimeError):
            pool.snapshot()
        with pytest.raises(RuntimeError):
            pool.messages
        with pytest.raises(RuntimeError):
            list(pool)

    def test_len_and_bool_span_both_planes(self):
        pool = InFlightPool(indexed=False, batched=True)
        assert len(pool) == 0 and not pool
        self._open(pool, sender=0, n=3)
        assert len(pool) == 2 and pool


#: Every event type the runtime and protocols emit except the per-message
#: ones: the widest subscription that still rides the batch plane.
_NON_MESSAGE_KINDS = frozenset(
    value for name, value in vars(EventType).items()
    if name.isupper() and value not in MESSAGE_EVENT_TYPES
)

#: Registered adversaries that can drive the batch plane.
_BATCH_ADVERSARIES = sorted(
    name for name, factory in ADVERSARY_FACTORIES.items()
    if not factory().uses_message_objects
)


def _scoped_matches_full(build, adversary):
    """Run a kind-scoped batch run and a full materialized run; compare."""
    scoped = ListSink(kinds=_NON_MESSAGE_KINDS)
    batch = build(adversary(), sink=scoped)
    assert batch.in_flight.batched
    full = ListSink()
    legacy = build(adversary(), sink=full, batch_messages=False)
    assert _observables(batch.run()) == _observables(legacy.run())
    expected = [
        event_line(event) for event in full.events
        if event.etype in _NON_MESSAGE_KINDS
    ]
    assert [event_line(event) for event in scoped.events] == expected
    return scoped.events


class TestKindScopedSink:
    """A sink that reads no msg.* events keeps the columnar plane."""

    @pytest.mark.parametrize("name", _BATCH_ADVERSARIES)
    def test_election_stream_equals_filtered_materialized(self, name):
        events = _scoped_matches_full(
            _election_sim, lambda: ADVERSARY_FACTORIES[name](seed=3)
        )
        assert any(event.etype == EventType.COMM_DONE for event in events)

    @pytest.mark.parametrize("name", _BATCH_ADVERSARIES)
    def test_sifting_stream_equals_filtered_materialized(self, name):
        _scoped_matches_full(
            _sifting_sim, lambda: ADVERSARY_FACTORIES[name](seed=9)
        )

    def test_crash_storm_stream_equals_filtered_materialized(self):
        events = _scoped_matches_full(
            _election_sim,
            lambda: RandomCrashAdversary(
                RandomAdversary(seed=4), rate=0.02, seed=13
            ),
        )
        assert any(event.etype == EventType.SCHED_CRASH for event in events)

    def test_message_subscription_forces_materialized(self):
        for kinds in ({EventType.MSG_SEND}, {EventType.MSG_DELIVER}):
            sim = _election_sim(EagerAdversary(), sink=ListSink(kinds=kinds))
            assert not sim.in_flight.batched
        with pytest.raises(ValueError, match="msg.send/msg.deliver"):
            _election_sim(
                EagerAdversary(), sink=ListSink(kinds={EventType.MSG_DELIVER}),
                batch_messages=True,
            )

    def test_scoped_sink_may_force_batch(self):
        sim = _election_sim(
            EagerAdversary(), sink=ListSink(kinds={EventType.COIN_FLIP}),
            batch_messages=True,
        )
        assert sim.in_flight.batched

    def test_telemetry_slot_subscribes_by_its_own_kinds(self):
        # The union over every attached sink decides: a full-stream
        # telemetry sink beside a scoped one pins the materialized plane.
        sim = _election_sim(
            EagerAdversary(), sink=ListSink(kinds={EventType.COIN_FLIP}),
            telemetry=ListSink(),
        )
        assert not sim.in_flight.batched
        scoped = MultiSink(
            ListSink(kinds={EventType.COIN_FLIP}),
            ListSink(kinds={EventType.COMM_DONE}),
        )
        assert _election_sim(EagerAdversary(), telemetry=scoped).in_flight.batched


class TestNegotiation:
    def test_sink_forces_materialized(self):
        sim = _election_sim(EagerAdversary(), record_events=True)
        assert not sim.in_flight.batched

    def test_object_adversary_forces_materialized(self):
        sim = _election_sim(ADVERSARY_FACTORIES["bubble"]())
        assert not sim.in_flight.batched

    def test_forcing_batch_with_object_adversary_raises(self):
        with pytest.raises(ValueError, match="uses_message_objects"):
            _election_sim(ADVERSARY_FACTORIES["bubble"](), batch_messages=True)

    def test_forcing_batch_with_sink_raises(self):
        with pytest.raises(ValueError, match="sink"):
            _election_sim(
                EagerAdversary(), record_events=True, batch_messages=True
            )

    def test_pid_ceiling(self, monkeypatch):
        # The real ceiling is 2**20 processors; shrink it so the guard is
        # testable without allocating a million Process objects.
        monkeypatch.setattr(runtime_module, "MAX_BATCH_PIDS", 8)
        negotiated = _election_sim(EagerAdversary(), n=16)
        assert not negotiated.in_flight.batched  # silently falls back
        with pytest.raises(ValueError, match="ceiling"):
            _election_sim(EagerAdversary(), n=16, batch_messages=True)
        assert MAX_BATCH_PIDS == 1 << 20  # the real constant is untouched

    def test_batch_delivery_uses_descriptors_only(self):
        sim = _election_sim(EagerAdversary(), n=6)
        assert sim.in_flight.batched
        sim.execute(Step(0))
        assert len(sim.in_flight) == 5
        action = sim.in_flight.last_action()
        assert isinstance(action, DeliverBatch)
        sim.execute(action)
        # The delivery cleared the recipient's bit and queued the ACK leg.
        broadcast = sim.in_flight.broadcast_of(sim.in_flight.descriptors[-1])
        assert broadcast.undelivered_count == 4
        assert sim.in_flight.descriptors[-1] & REPLY_BIT

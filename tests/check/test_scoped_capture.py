"""Kind-scoped trial capture: explorer trials record only what they read.

Each run-scope invariant declares the event kinds it reads
(``Invariant.reads``); a trial captures the union of its invariants'
declarations and attaches no sink at all when that union is empty.
These tests pin that the scoping changes nothing observable — per-trial
stats and violations equal a full-sink run's — and that a check reading
an undeclared kind fails loudly instead of silently seeing nothing.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.check.explore import capture_run, plan_trials, run_trial
from repro.check.invariants import (
    INVARIANTS,
    PROTOCOLS,
    CheckContext,
    Invariant,
    UncapturedKindError,
    evaluate_run,
    invariants_for,
    reads_of,
    run_protocol,
    stats_for,
)
from repro.obs.events import EventType, ListSink


def _full_sink_trial(spec, trial, n, invariants):
    """The pre-scoping trial: a full ListSink, every event captured."""
    sink = ListSink()
    run = run_protocol(spec, n, None, trial.build_adversary(), trial.seed, sink=sink)
    stats = stats_for(spec, run, trial.index, trial.adversary, trial.mode, trial.seed)
    return stats, evaluate_run(spec, run, sink.events, invariants)


def _digest(stats) -> str:
    return json.dumps(asdict(stats), sort_keys=True)


def _assert_parity(protocol, n, budget, seed):
    spec = PROTOCOLS[protocol]
    invariants = [inv for inv in invariants_for(spec.task) if inv.scope == "run"]
    violations = []
    for trial in plan_trials(budget, seed):
        scoped = run_trial(spec, trial, n, None, invariants)
        stats, expected = _full_sink_trial(spec, trial, n, invariants)
        assert _digest(scoped.stats) == _digest(stats), trial.describe()
        assert scoped.violations == expected, trial.describe()
        violations.extend(
            (name, trial.index, message) for name, message in scoped.violations
        )
    return violations


class TestDeclaredReads:
    def test_only_stream_checks_declare_kinds(self):
        declared = {
            name: inv.reads for name, inv in INVARIANTS.items() if inv.reads
        }
        assert declared == {
            "no_false_death": frozenset({EventType.COIN_FLIP}),
            "learned_closure": frozenset({EventType.REG_PUT}),
        }

    @pytest.mark.parametrize("task", ["elect", "rename", "serve"])
    def test_eventless_tasks_capture_nothing(self, task):
        assert reads_of(invariants_for(task)) == frozenset()

    def test_sift_captures_flips_and_puts(self):
        assert reads_of(invariants_for("sift")) == frozenset(
            {EventType.COIN_FLIP, EventType.REG_PUT}
        )


class TestExplorerParity:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_scoped_trials_match_full_sink_trials(self, protocol):
        _assert_parity(protocol, n=8, budget=12, seed=17)

    def test_known_election_violation_is_unchanged(self):
        # The seed whose crash storm breaks election_linearizable at
        # n=16 (see CHANGES.md): scoping must still report it, verbatim.
        violations = _assert_parity("leader_election", n=16, budget=50, seed=5901389)
        assert [name for name, _, _ in violations] == ["election_linearizable"]

    def test_capture_run_keeps_the_full_stream(self):
        spec = PROTOCOLS["leader_election"]
        trial = plan_trials(1, seed=3)[0]
        _, events = capture_run(spec, trial, 8, None)
        kinds = {event.etype for event in events}
        assert {EventType.MSG_DELIVER, EventType.SCHED_STEP} <= kinds


def _reads_coins(ctx: CheckContext) -> str | None:
    ctx.events_of(EventType.COIN_FLIP)
    return None


class TestUndeclaredReadGuard:
    def test_context_refuses_an_uncaptured_kind(self):
        spec = PROTOCOLS["poison_pill"]
        trial = plan_trials(1, seed=3)[0]
        run, events = capture_run(spec, trial, 8, None)
        scoped = CheckContext(spec, run, events, frozenset({EventType.REG_PUT}))
        assert scoped.events_of(EventType.REG_PUT)
        with pytest.raises(UncapturedKindError, match="coin.flip"):
            scoped.events_of(EventType.COIN_FLIP)
        # A full stream allows every kind; no stream at all reads as None.
        assert CheckContext(spec, run, events).events_of(EventType.COIN_FLIP)
        assert CheckContext(spec, run).events_of(EventType.COIN_FLIP) is None

    def test_undeclared_read_in_a_trial_raises(self):
        sneaky = Invariant(
            "sneaky", "test", "run", ("elect",),
            "reads coin flips without declaring them",
            check=_reads_coins,
        )
        trial = plan_trials(1, seed=3)[0]
        with pytest.raises(UncapturedKindError, match="sneaky"):
            run_trial(PROTOCOLS["leader_election"], trial, 8, None, [sneaky])

    def test_declared_read_in_a_trial_passes(self):
        honest = Invariant(
            "honest", "test", "run", ("elect",),
            "reads coin flips and says so",
            check=_reads_coins,
            reads=frozenset({EventType.COIN_FLIP}),
        )
        trial = plan_trials(1, seed=3)[0]
        outcome = run_trial(PROTOCOLS["leader_election"], trial, 8, None, [honest])
        assert outcome.violations == []

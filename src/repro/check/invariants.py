"""Machine-checkable invariants and the protocol registry behind them.

The paper's guarantees are adversarial: they must hold under *every*
schedule, not just benign ones.  This module turns each guarantee into a
named, machine-checkable :class:`Invariant` and maps every runnable
protocol (the real algorithms *and* the deliberately broken baselines)
to the invariant set it claims:

* ``unique_winner`` / ``winner_exists`` / ``election_linearizable`` —
  leader election's test-and-set specification (Lemmas A.1-A.3);
* ``at_least_one_survivor`` / ``no_false_death`` — PoisonPill and
  Heterogeneous PoisonPill safety (Claim 3.1 and the commit-before-flip
  survival rule of Figures 1-2);
* ``names_unique`` / ``names_in_range`` / ``renaming_terminates`` —
  strong renaming (Lemma A.6);
* ``sifting_effective`` — the *ensemble* guarantee that a sifter
  actually eliminates contenders in expectation (Claim 3.2 /
  Lemmas 3.6-3.7).  Per-schedule this is only an expectation, so it is
  evaluated over the whole exploration budget, grouped by adversary;
  the naive sifter of the paper's introduction fails it spectacularly
  under the coin-aware adversary (every run keeps ~100% of
  participants), which is exactly how ``repro check`` flags it.

Invariants come in two scopes:

* ``run`` — must hold on every single execution; a violation pinpoints
  one schedule, which the shrinker then minimizes.
* ``ensemble`` — a statistical property of many executions; a violation
  names a *witness* run (the worst offender) plus a per-run witness
  predicate that the shrinker can preserve while minimizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..analysis.linearizability import (
    READ,
    WRITE,
    RegisterOp,
    check_register_linearizable,
)
from ..core.protocol import HetStatus, Outcome
from ..obs.events import Event, EventType
from ..sim import pidset
from ..sim.runtime import SimulationResult

#: Response time assigned to operations that never responded (crashed or
#: undecided); effectively "+infinity" for interval comparisons.
PENDING_TIME = 2**62


# ---------------------------------------------------------------------------
# Protocol registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    """One checkable protocol: how to run it and what it claims.

    ``task`` selects the harness runner (``elect`` / ``sift`` /
    ``rename``); ``algorithm`` is that runner's algorithm/kind argument.
    ``known_bad`` marks deliberately broken baselines kept as negative
    controls: the checker is expected to *fail* them.
    """

    name: str
    task: str
    algorithm: str
    claim: str
    known_bad: bool = False


#: Every protocol ``repro check`` can target, including the negative
#: controls (``known_bad=True``) that the checker must be able to fail.
PROTOCOLS: dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        ProtocolSpec(
            "leader_election", "elect", "poison_pill",
            "Figures 4-6: O(log* k) leader election",
        ),
        ProtocolSpec(
            "leader_election_basic", "elect", "poison_pill_basic",
            "Section 3.1: PoisonPill-round leader election",
        ),
        ProtocolSpec(
            "tournament", "elect", "tournament",
            "[AGTV92] tournament-tree baseline",
        ),
        ProtocolSpec(
            "poison_pill", "sift", "poison_pill",
            "Figure 1: PoisonPill sifting phase",
        ),
        ProtocolSpec(
            "heterogeneous", "sift", "heterogeneous",
            "Figure 2: Heterogeneous PoisonPill phase",
        ),
        ProtocolSpec(
            "naive_sifter", "sift", "naive",
            "Introduction: the broken flip-and-tell strawman",
            known_bad=True,
        ),
        ProtocolSpec(
            "renaming", "rename", "paper",
            "Figure 3: strong renaming via test-and-set grid",
        ),
        ProtocolSpec(
            "linear_renaming", "rename", "linear",
            "[AAG+10]-style linear-scan renaming baseline",
        ),
    )
}

#: The protocols the CI smoke budget sweeps (the real algorithms).
CORE_PROTOCOLS = ("leader_election", "poison_pill", "heterogeneous", "renaming")

#: The election service (``repro serve``).  Deliberately *not* in
#: :data:`PROTOCOLS`: the ``--protocol`` choices of ``repro check`` must
#: all be runnable through :func:`run_protocol`, while service runs are
#: produced live by :class:`~repro.net.service.ElectionService` and
#: checked through :func:`evaluate_service_run`.
SERVICE_SPEC = ProtocolSpec(
    "service", "serve", "lease",
    "Figure 3 / Theorem 4.2 generalized: one independent, epoch-fenced "
    "leader election per key in the service namespace",
)


def run_protocol(
    spec: ProtocolSpec,
    n: int,
    k: int | None,
    adversary,
    seed: int,
    pattern: str = "first",
    sink=None,
    simulation=None,
):
    """Run one unchecked execution of ``spec`` and return its Run object.

    Checking is disabled (``check=False``) so specification violations
    surface as invariant verdicts rather than raised exceptions — the
    explorer wants to *record* a violation, not die on it.  When
    ``simulation`` is given (a pre-built, possibly checkpoint-forked
    :class:`~repro.sim.runtime.Simulation`), it is run instead of
    constructing a fresh one.
    """
    from ..harness.runners import (
        run_leader_election,
        run_renaming,
        run_sifting_phase,
    )

    common = dict(
        n=n, k=k, adversary=adversary, seed=seed, pattern=pattern,
        check=False, sink=sink, simulation=simulation,
    )
    if spec.task == "elect":
        return run_leader_election(algorithm=spec.algorithm, **common)
    if spec.task == "sift":
        return run_sifting_phase(kind=spec.algorithm, **common)
    if spec.task == "rename":
        return run_renaming(algorithm=spec.algorithm, **common)
    raise ValueError(f"unknown task {spec.task!r} for protocol {spec.name!r}")


# ---------------------------------------------------------------------------
# Per-run evaluation context
# ---------------------------------------------------------------------------


class UncapturedKindError(LookupError):
    """A check read an event kind its run did not capture.

    Explorer trials capture only the kinds their invariants declare in
    :attr:`Invariant.reads`, so this is an invariant that forgot to
    declare what it reads.
    """


class CheckContext:
    """Everything a per-run invariant may inspect about one execution.

    Wraps the Run object the harness produced, its
    :class:`~repro.sim.runtime.SimulationResult`, and (when available)
    the structured event stream — which is how coin-flip-dependent
    invariants such as ``no_false_death`` see the flips.  ``kinds``
    names the event types the stream was captured with (``None``: every
    type); checks read the stream through :meth:`events_of`, which
    refuses a type outside it.
    """

    __slots__ = ("spec", "run", "result", "events", "kinds", "_last_coins")

    def __init__(
        self,
        spec: ProtocolSpec,
        run: Any,
        events: Sequence[Event] | None = None,
        kinds: frozenset[str] | None = None,
    ) -> None:
        self.spec = spec
        self.run = run
        self.result: SimulationResult = run.result
        self.events = list(events) if events is not None else None
        self.kinds = kinds
        self._last_coins: dict[int, int] | None = None

    def events_of(self, etype: str) -> list[Event] | None:
        """The captured events of type ``etype``, in stream order.

        Returns ``None`` when no stream was captured at all (service
        runs, socket runs without a trace).  Raises
        :class:`UncapturedKindError` when the stream was captured
        without ``etype``.
        """
        if self.events is None:
            return None
        if self.kinds is not None and etype not in self.kinds:
            raise UncapturedKindError(
                f"read {etype!r} events, but the run captured only "
                f"{sorted(self.kinds)}; declare the kind in Invariant.reads"
            )
        return [event for event in self.events if event.etype == etype]

    @property
    def k(self) -> int:
        """Number of participants in the execution."""
        return self.run.k

    @property
    def crash_free(self) -> bool:
        """True iff no processor crashed during the execution."""
        return not self.result.crashed

    @property
    def survivors(self) -> int:
        """Participants that returned SURVIVE (sifting tasks)."""
        return sum(
            1 for decision in self.result.decisions.values()
            if decision.result is Outcome.SURVIVE
        )

    @property
    def survivor_fraction(self) -> float:
        """Surviving fraction of the participant set (sifting tasks)."""
        return self.survivors / self.k if self.k else 0.0

    @property
    def winners(self) -> list[int]:
        """Pids that returned WIN (election tasks)."""
        return [
            pid for pid, decision in self.result.decisions.items()
            if decision.result is Outcome.WIN
        ]

    def last_coin(self, pid: int) -> int | None:
        """The final ``*.coin`` flip of ``pid``, from the event stream.

        Returns ``None`` when the stream was not captured or the
        processor never flipped a sifter coin.
        """
        if self._last_coins is None:
            flips = self.events_of(EventType.COIN_FLIP)
            if flips is None:
                return None
            coins: dict[int, int] = {}
            for event in flips:
                if str(event.fields.get("label", "")).endswith(".coin"):
                    coins[event.pid] = event.fields["value"]
            self._last_coins = coins
        return self._last_coins.get(pid)


# ---------------------------------------------------------------------------
# Ensemble statistics
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TrialStats:
    """Compact, picklable digest of one explored run.

    This is what crosses process boundaries from explorer workers and
    what ensemble invariants aggregate over.
    """

    index: int
    adversary: str
    mode: str
    seed: int
    n: int
    k: int
    terminated: bool
    crashed: int
    survivors: int
    winner_count: int
    decided: int

    @property
    def survivor_fraction(self) -> float:
        """Surviving fraction of the participant set."""
        return self.survivors / self.k if self.k else 0.0


@dataclass(frozen=True, slots=True)
class EnsembleVerdict:
    """An ensemble invariant's violation: message plus witness run."""

    message: str
    witness_index: int


# ---------------------------------------------------------------------------
# Invariant definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invariant:
    """One named, machine-checkable property of a protocol.

    ``check`` (scope ``run``) maps a :class:`CheckContext` to a violation
    message or ``None``.  ``check_ensemble`` (scope ``ensemble``) maps
    the full :class:`TrialStats` list to an :class:`EnsembleVerdict` or
    ``None``.  ``witness`` is the per-run predicate the shrinker
    preserves while minimizing a violating schedule; for run-scope
    invariants it defaults to "``check`` still reports a violation".
    ``reads`` names the event types ``check`` reads through
    :meth:`CheckContext.events_of`; explorer trials capture only the
    union of their invariants' ``reads``, and none at all when it is
    empty.
    """

    name: str
    claim: str
    scope: str  # "run" | "ensemble"
    tasks: tuple[str, ...]
    description: str
    check: Callable[[CheckContext], str | None] | None = None
    check_ensemble: Callable[[Sequence[TrialStats]], EnsembleVerdict | None] | None = None
    witness: Callable[[CheckContext], bool] = field(default=None)  # type: ignore[assignment]
    reads: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.scope not in ("run", "ensemble"):
            raise ValueError(f"unknown invariant scope {self.scope!r}")
        if self.scope == "run" and self.check is None:
            raise ValueError(f"run-scope invariant {self.name!r} needs check()")
        if self.scope == "ensemble" and self.check_ensemble is None:
            raise ValueError(
                f"ensemble invariant {self.name!r} needs check_ensemble()"
            )
        if self.witness is None:
            if self.scope == "run":
                object.__setattr__(
                    self, "witness", lambda ctx: self.check(ctx) is not None
                )
            else:
                raise ValueError(
                    f"ensemble invariant {self.name!r} needs a witness predicate"
                )


def _valid_outcomes(ctx: CheckContext, allowed: tuple[Outcome, ...]) -> str | None:
    strays = [
        (pid, decision.result)
        for pid, decision in ctx.result.decisions.items()
        if decision.result not in allowed
    ]
    if strays:
        names = ", ".join(f"p{pid}={value!r}" for pid, value in strays)
        return f"outcomes outside {[o.value for o in allowed]}: {names}"
    return None


def _check_valid_election_outcomes(ctx: CheckContext) -> str | None:
    return _valid_outcomes(ctx, (Outcome.WIN, Outcome.LOSE))


def _check_unique_winner(ctx: CheckContext) -> str | None:
    winners = ctx.winners
    if len(winners) > 1:
        return f"multiple winners: {sorted(winners)}"
    return None


def _check_winner_exists(ctx: CheckContext) -> str | None:
    if (
        ctx.crash_free
        and ctx.result.terminated
        and ctx.result.decisions
        and not ctx.winners
    ):
        return "every participant returned LOSE in a crash-free execution"
    return None


def _election_ops(ctx: CheckContext, pending_pid: int | None) -> list[RegisterOp]:
    """The register-history encoding of a leader election execution.

    The winner's operation is a WRITE of ``"won"`` over its invocation
    interval; every LOSE is a READ that must return ``"won"``.  The
    history is linearizable as an atomic register initialized to ``None``
    iff every LOSE can be ordered after the (possibly pending) winning
    operation without violating real-time precedence — exactly the
    test-and-set linearizability condition of Lemma A.3.
    """
    ops: list[RegisterOp] = []
    for pid, decision in ctx.result.decisions.items():
        if decision.result is Outcome.WIN:
            ops.append(RegisterOp(
                pid, WRITE, "won", decision.start_time, decision.decide_time
            ))
        elif decision.result is Outcome.LOSE:
            ops.append(RegisterOp(
                pid, READ, "won", decision.start_time, decision.decide_time
            ))
    if pending_pid is not None:
        ops.append(RegisterOp(
            pending_pid, WRITE, "won",
            ctx.result.start_times[pending_pid], PENDING_TIME,
        ))
    return ops


def _check_election_linearizable(ctx: CheckContext) -> str | None:
    losers = [
        pid for pid, decision in ctx.result.decisions.items()
        if decision.result is Outcome.LOSE
    ]
    if not losers:
        return None
    if ctx.winners:
        if check_register_linearizable(_election_ops(ctx, None)) is not None:
            return None
        winner = ctx.winners[0]
        return (
            f"not linearizable: some LOSE responded before winner "
            f"p{winner}'s invocation at t="
            f"{ctx.result.decisions[winner].start_time}"
        )
    # No winner returned: some pending operation (crashed after invoking,
    # or still undecided) must be linearizable as the winner.
    pending = [
        pid for pid in ctx.result.start_times
        if pid in ctx.result.crashed or pid in ctx.result.undecided
    ]
    for pid in pending:
        if check_register_linearizable(_election_ops(ctx, pid)) is not None:
            return None
    return (
        "not linearizable: processors lost but no pending operation can "
        "be ordered as the winner before the first LOSE"
    )


def _check_valid_sift_outcomes(ctx: CheckContext) -> str | None:
    return _valid_outcomes(ctx, (Outcome.SURVIVE, Outcome.DIE))


def _check_at_least_one_survivor(ctx: CheckContext) -> str | None:
    if (
        ctx.crash_free
        and ctx.result.terminated
        and ctx.result.decisions
        and ctx.survivors == 0
    ):
        return (
            f"all {len(ctx.result.decisions)} participants died in a "
            f"crash-free sifting phase"
        )
    return None


def _check_no_false_death(ctx: CheckContext) -> str | None:
    if ctx.crash_free and ctx.k == 1 and ctx.result.terminated:
        decision = next(iter(ctx.result.decisions.values()), None)
        if decision is not None and decision.result is Outcome.DIE:
            return "the sole participant died"
    for pid, decision in ctx.result.decisions.items():
        if decision.result is Outcome.DIE and ctx.last_coin(pid) == 1:
            return f"p{pid} flipped 1 (high priority) but returned DIE"
    return None


def _check_learned_closure(ctx: CheckContext) -> str | None:
    """Claim 3.3 bookkeeping: each announced ``L`` set contains its
    announcer and the announcer's own observed list.

    Both sets travel as :mod:`repro.sim.pidset` bitmask ints, so
    membership and containment are single bit-ops.  Skipped (returns
    ``None``) when the event stream was not captured or the sifter is
    not the heterogeneous variant (no ``*.learned`` puts).
    """
    puts = ctx.events_of(EventType.REG_PUT)
    if puts is None:
        return None
    learned_by: dict[int, int] = {}
    own_members: dict[int, int] = {}
    for event in puts:
        var = str(event.fields.get("var", ""))
        value = event.fields.get("value")
        if var.endswith(".learned") and isinstance(value, int):
            learned_by[event.pid] = value
        elif (
            var.endswith(".Status")
            and isinstance(value, HetStatus)
            and event.fields.get("key") == event.pid
        ):
            own_members[event.pid] = value.members
    if not learned_by:
        return None
    for pid, learned in sorted(learned_by.items()):
        if not pidset.contains(learned, pid):
            return f"p{pid} announced an L set that omits itself"
        members = own_members.get(pid, pidset.EMPTY)
        if not pidset.is_subset(members, learned):
            missing = pidset.to_frozenset(members & ~learned)
            return (
                f"p{pid}'s L set omits {sorted(missing)} from its own "
                f"observed list — the closure bookkeeping of Figure 2 "
                f"lines 26-27 was violated"
            )
    return None


def _check_names_unique(ctx: CheckContext) -> str | None:
    names: dict[Any, list[int]] = {}
    for pid, decision in ctx.result.decisions.items():
        names.setdefault(decision.result, []).append(pid)
    duplicates = {
        name: sorted(pids) for name, pids in names.items() if len(pids) > 1
    }
    if duplicates:
        return f"duplicate names assigned: {duplicates}"
    return None


def _check_names_in_range(ctx: CheckContext) -> str | None:
    bad = {
        pid: decision.result
        for pid, decision in ctx.result.decisions.items()
        if not isinstance(decision.result, int)
        or not 0 <= decision.result < ctx.result.n
    }
    if bad:
        return f"names outside [0, {ctx.result.n}): {bad}"
    return None


def _check_terminates(ctx: CheckContext) -> str | None:
    if ctx.crash_free and not ctx.result.terminated:
        return (
            f"crash-free execution left participants "
            f"{sorted(ctx.result.undecided)} undecided"
        )
    return None


#: A run qualifies for the sifting-effectiveness ensemble when it is a
#: full, crash-free phase over a non-trivial participant set.
SIFTING_MIN_K = 8
#: Minimum qualifying runs per adversary group before the mean is judged.
SIFTING_MIN_GROUP = 4
#: Maximum tolerated mean survivor fraction per adversary group.  The
#: real sifters stay under ~0.45 at simulation scale under every
#: adversary; the naive sifter under the coin-aware adversary sits at
#: ~0.95 (see docs/checking.md for the calibration data).
SIFTING_MAX_MEAN_FRACTION = 0.8
#: The per-run witness predicate threshold for shrinking.
SIFTING_WITNESS_FRACTION = 0.8


def _sifting_qualifies(stats: TrialStats) -> bool:
    return (
        stats.terminated
        and stats.crashed == 0
        and stats.k >= SIFTING_MIN_K
        and stats.decided == stats.k
    )


def _check_sifting_effective(
    trials: Sequence[TrialStats],
) -> EnsembleVerdict | None:
    groups: dict[str, list[TrialStats]] = {}
    for stats in trials:
        if _sifting_qualifies(stats):
            groups.setdefault(stats.adversary, []).append(stats)
    for adversary, group in sorted(groups.items()):
        if len(group) < SIFTING_MIN_GROUP:
            continue
        mean = sum(stats.survivor_fraction for stats in group) / len(group)
        if mean >= SIFTING_MAX_MEAN_FRACTION:
            witness = max(group, key=lambda stats: stats.survivor_fraction)
            return EnsembleVerdict(
                message=(
                    f"mean survivor fraction {mean:.2f} >= "
                    f"{SIFTING_MAX_MEAN_FRACTION} over {len(group)} runs "
                    f"under adversary {adversary!r}: the sifter fails to "
                    f"eliminate contenders (worst run kept "
                    f"{witness.survivors}/{witness.k})"
                ),
                witness_index=witness.index,
            )
    return None


def _sifting_witness(ctx: CheckContext) -> bool:
    return (
        ctx.crash_free
        and ctx.result.terminated
        and ctx.k >= SIFTING_MIN_K
        and ctx.survivor_fraction >= SIFTING_WITNESS_FRACTION
    )


def _check_lease_unique_holder(ctx: CheckContext) -> str | None:
    """At most one grant per ``(key, epoch)`` — the service's Lemma A.2."""
    seen: dict[tuple[str, int], str] = {}
    for record in ctx.run.history:
        slot = (record.key, record.epoch)
        if slot in seen and seen[slot] != record.holder:
            return (
                f"two holders for {record.key!r} epoch {record.epoch}: "
                f"{seen[slot]!r} and {record.holder!r}"
            )
        seen.setdefault(slot, record.holder)
    return None


def _check_lease_epoch_monotonic(ctx: CheckContext) -> str | None:
    """Per key, grant epochs strictly increase in grant order."""
    last: dict[str, int] = {}
    for record in ctx.run.history:
        previous = last.get(record.key)
        if previous is not None and record.epoch <= previous:
            return (
                f"{record.key!r} granted epoch {record.epoch} after epoch "
                f"{previous}: fencing tokens must strictly increase"
            )
        last[record.key] = record.epoch
    return None


def _check_lease_no_overlap(ctx: CheckContext) -> str | None:
    """Per key, grant intervals never overlap: one leader at a time.

    A still-open grant (``ended_ns is None``) is fine only as the *last*
    grant of its key; any grant that starts before its predecessor ended
    means two sessions simultaneously believed they held the key.
    """
    by_key: dict[str, list[Any]] = {}
    for record in ctx.run.history:
        by_key.setdefault(record.key, []).append(record)
    for key, records in by_key.items():
        records.sort(key=lambda record: record.granted_ns)
        for previous, current in zip(records, records[1:]):
            if previous.ended_ns is None:
                return (
                    f"{key!r} epoch {current.epoch} granted while epoch "
                    f"{previous.epoch} (holder {previous.holder!r}) was "
                    f"still open"
                )
            if current.granted_ns < previous.ended_ns:
                return (
                    f"{key!r} epoch {current.epoch} granted at "
                    f"t={current.granted_ns} before epoch {previous.epoch} "
                    f"ended at t={previous.ended_ns}"
                )
    return None


def evaluate_service_run(run: Any) -> list[tuple[str, str]]:
    """Check every serve-task invariant against one service history.

    ``run`` is a :class:`~repro.net.service.ServiceRun` digest.  Returns
    ``(invariant name, violation message)`` pairs, empty when the
    namespace kept at most one fenced leader per ``(key, epoch)``.
    """
    return evaluate_run(SERVICE_SPEC, run, None, invariants_for("serve"))


#: Registry of every invariant, keyed by name.
INVARIANTS: dict[str, Invariant] = {
    inv.name: inv
    for inv in (
        Invariant(
            "valid_election_outcomes", "Section 2 (problem statement)",
            "run", ("elect",),
            "Every decided participant returns WIN or LOSE.",
            check=_check_valid_election_outcomes,
        ),
        Invariant(
            "unique_winner", "Lemma A.2",
            "run", ("elect",),
            "At most one participant returns WIN.",
            check=_check_unique_winner,
        ),
        Invariant(
            "winner_exists", "Lemma A.1",
            "run", ("elect",),
            "A crash-free, fully-decided election elects somebody.",
            check=_check_winner_exists,
        ),
        Invariant(
            "election_linearizable", "Lemma A.3",
            "run", ("elect",),
            "No LOSE responds before the (possibly pending) winner's "
            "invocation — checked by linearizing the execution as an "
            "atomic register history.",
            check=_check_election_linearizable,
        ),
        Invariant(
            "election_terminates", "Lemma A.1 (termination)",
            "run", ("elect",),
            "Crash-free executions decide every participant.",
            check=_check_terminates,
        ),
        Invariant(
            "valid_sift_outcomes", "Figures 1-2 (return values)",
            "run", ("sift",),
            "Every decided participant returns SURVIVE or DIE.",
            check=_check_valid_sift_outcomes,
        ),
        Invariant(
            "at_least_one_survivor", "Claim 3.1",
            "run", ("sift",),
            "If every participant returns, at least one survives.",
            check=_check_at_least_one_survivor,
        ),
        Invariant(
            "no_false_death", "Figures 1-2 (survival rule)",
            "run", ("sift",),
            "A participant that flipped high priority never dies, and a "
            "sole participant always survives.",
            check=_check_no_false_death,
            reads=frozenset({EventType.COIN_FLIP}),
        ),
        Invariant(
            "learned_closure", "Claim 3.3 (closure bookkeeping)",
            "run", ("sift",),
            "Every announced L set (a pidset bitmask) contains its "
            "announcer and the announcer's own observed list; skipped "
            "for non-heterogeneous sifters and uncaptured event streams.",
            check=_check_learned_closure,
            reads=frozenset({EventType.REG_PUT}),
        ),
        Invariant(
            "sifting_effective", "Claim 3.2 / Lemmas 3.6-3.7",
            "ensemble", ("sift",),
            "Across the exploration budget, no adversary holds the mean "
            "survivor fraction at ~1: a sifter must actually sift.",
            check_ensemble=_check_sifting_effective,
            witness=_sifting_witness,
        ),
        Invariant(
            "names_unique", "Lemma A.6 (uniqueness)",
            "run", ("rename",),
            "No two participants decide the same name.",
            check=_check_names_unique,
        ),
        Invariant(
            "names_in_range", "Lemma A.6 (namespace)",
            "run", ("rename",),
            "Every decided name is an integer in [0, n).",
            check=_check_names_in_range,
        ),
        Invariant(
            "renaming_terminates", "Lemma A.6 (termination)",
            "run", ("rename",),
            "Crash-free executions decide every participant.",
            check=_check_terminates,
        ),
        Invariant(
            "lease_unique_holder", "Theorem 4.2 per name (service)",
            "run", ("serve",),
            "At most one holder is ever granted a given (key, epoch).",
            check=_check_lease_unique_holder,
        ),
        Invariant(
            "lease_epoch_monotonic", "epoch fencing (service)",
            "run", ("serve",),
            "Per key, grant epochs strictly increase: a stale fencing "
            "token can never win a later election.",
            check=_check_lease_epoch_monotonic,
        ),
        Invariant(
            "lease_no_overlap", "mutual exclusion (service)",
            "run", ("serve",),
            "Per key, grant intervals never overlap: successive leaders "
            "hand off, they do not coexist.",
            check=_check_lease_no_overlap,
        ),
    )
}


def invariants_for(
    task: str, names: Sequence[str] | None = None
) -> list[Invariant]:
    """The invariants applicable to ``task``, optionally filtered by name.

    Unknown names raise ``ValueError`` so CLI typos fail loudly rather
    than silently checking nothing.
    """
    if names is not None:
        unknown = sorted(set(names) - set(INVARIANTS))
        if unknown:
            raise ValueError(
                f"unknown invariants {unknown}; known: {sorted(INVARIANTS)}"
            )
    selected = [
        inv for inv in INVARIANTS.values()
        if task in inv.tasks and (names is None or inv.name in names)
    ]
    return selected


def reads_of(invariants: Sequence[Invariant]) -> frozenset[str]:
    """The union of the event types ``invariants`` read."""
    return frozenset().union(*(invariant.reads for invariant in invariants))


def evaluate_run(
    spec: ProtocolSpec,
    run: Any,
    events: Sequence[Event] | None,
    invariants: Sequence[Invariant],
    kinds: frozenset[str] | None = None,
) -> list[tuple[str, str]]:
    """Evaluate every run-scope invariant against one execution.

    ``kinds`` is the set of event types ``events`` was captured with
    (``None``: the full stream).  Returns ``(invariant name, violation
    message)`` pairs; an empty list means the run satisfied all of them.
    """
    ctx = CheckContext(spec, run, events, kinds)
    violations: list[tuple[str, str]] = []
    for invariant in invariants:
        if invariant.scope != "run":
            continue
        try:
            message = invariant.check(ctx)
        except UncapturedKindError as exc:
            raise UncapturedKindError(
                f"invariant {invariant.name!r} {exc}"
            ) from None
        if message is not None:
            violations.append((invariant.name, message))
    return violations


def stats_for(
    spec: ProtocolSpec,
    run: Any,
    index: int,
    adversary: str,
    mode: str,
    seed: int,
) -> TrialStats:
    """Build the compact :class:`TrialStats` digest of one execution."""
    ctx = CheckContext(spec, run)
    return TrialStats(
        index=index,
        adversary=adversary,
        mode=mode,
        seed=seed,
        n=run.n,
        k=run.k,
        terminated=ctx.result.terminated,
        crashed=len(ctx.result.crashed),
        survivors=ctx.survivors,
        winner_count=len(ctx.winners),
        decided=len(ctx.result.decisions),
    )

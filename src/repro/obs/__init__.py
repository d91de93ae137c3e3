"""Observability layer: structured events, export, aggregation, replay.

The simulator (:mod:`repro.sim`) emits a typed event stream describing
every scheduling action, message, ``communicate`` quorum, coin flip, and
protocol phase transition.  This package defines the schema and the
consumers:

* :mod:`repro.obs.events`    — the :class:`Event` schema and sinks
  (in-memory list, bounded ring buffer, multi-sink fan-out);
* :mod:`repro.obs.jsonl`     — byte-stable JSONL export/import;
* :mod:`repro.obs.aggregate` — streaming per-round survivor curves,
  message histograms, and communicate-call statistics;
* :mod:`repro.obs.metrics`   — live metrics registry: counters, gauges,
  log-bucketed histograms with p50/p90/p99, registry merge, and
  Prometheus-style exposition;
* :mod:`repro.obs.live`      — periodic snapshot streaming (JSONL) for
  in-flight telemetry, tailable by ``repro watch``;
* :mod:`repro.obs.causality` — happens-before reconstruction, critical-
  path depth per decision, and message lineage;
* :mod:`repro.obs.replay`    — deterministic re-execution of a recorded
  schedule with byte-identical stream verification;
* :mod:`repro.obs.profile`   — wall-clock span profiling of the runtime
  hot paths.

``repro.obs.replay`` is re-exported lazily: it sits above the harness
layer, which itself sits above :mod:`repro.sim`, and the runtime imports
this package from below.
"""

from __future__ import annotations

from .aggregate import PhaseStats, RoundStats, TraceAggregator, aggregate_events
from .causality import (
    CausalReport,
    MessageHop,
    analyze_events,
    analyze_trace,
    critical_path_report,
    lineage_report,
)
from .events import (
    CallbackSink,
    Event,
    EventSink,
    EventType,
    ListSink,
    MESSAGE_EVENT_TYPES,
    MultiSink,
    RingBufferSink,
    SCHEDULE_EVENT_TYPES,
    combine_sinks,
    json_safe,
    subscribes,
)
from .jsonl import (
    JsonlSink,
    TRACE_FORMAT_VERSION,
    event_line,
    read_events,
    read_trace,
    write_events,
)
from .live import (
    LiveTelemetry,
    SnapshotWriter,
    follow_snapshots,
    read_snapshots,
    render_snapshot,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    merge_snapshots,
    snapshot_to_prometheus,
)
from .profile import Profiler, SpanStats

_REPLAY_EXPORTS = {
    "RecordedTrace",
    "ReplayDivergenceError",
    "ReplayError",
    "ReplayReport",
    "ScriptedAdversary",
    "extract_schedule",
    "record_trace",
    "replay_trace",
}


def __getattr__(name: str):
    # Lazy: replay pulls in the harness, which pulls in the simulator,
    # which imports this package — eager import here would be circular.
    if name in _REPLAY_EXPORTS:
        from . import replay

        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CallbackSink",
    "CausalReport",
    "Counter",
    "Event",
    "EventSink",
    "EventType",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "ListSink",
    "LiveTelemetry",
    "MESSAGE_EVENT_TYPES",
    "MessageHop",
    "MetricsRegistry",
    "MetricsSink",
    "MultiSink",
    "PhaseStats",
    "Profiler",
    "RecordedTrace",
    "ReplayDivergenceError",
    "ReplayError",
    "ReplayReport",
    "RingBufferSink",
    "RoundStats",
    "SCHEDULE_EVENT_TYPES",
    "ScriptedAdversary",
    "SnapshotWriter",
    "SpanStats",
    "TRACE_FORMAT_VERSION",
    "TraceAggregator",
    "aggregate_events",
    "analyze_events",
    "analyze_trace",
    "combine_sinks",
    "critical_path_report",
    "event_line",
    "extract_schedule",
    "follow_snapshots",
    "json_safe",
    "lineage_report",
    "merge_snapshots",
    "read_events",
    "read_snapshots",
    "read_trace",
    "record_trace",
    "render_snapshot",
    "replay_trace",
    "snapshot_to_prometheus",
    "subscribes",
    "write_events",
]

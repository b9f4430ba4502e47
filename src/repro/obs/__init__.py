"""Observability: sim-time tracing, metrics, exporters.

The paper's entire evaluation is observational — stall counts, stall
durations, startup times, pool sizes — and this package is the layer
every other subsystem records into:

* :mod:`repro.obs.events` — the typed event taxonomy, keyed on
  simulator time;
* :mod:`repro.obs.tracer` — ring-buffer event recording with a
  one-attribute-check disabled path (:data:`NULL_TRACER`);
* :mod:`repro.obs.metrics` — counters, gauges, sim-time-weighted
  histograms, raw timeseries;
* :mod:`repro.obs.context` — :class:`Observability`, the bundle
  threaded through :class:`~repro.p2p.swarm.Swarm` and the experiment
  harness;
* :mod:`repro.obs.export` — JSONL traces, CSV timeseries, and the
  human-readable run report;
* :mod:`repro.obs.analyze` (with :mod:`~repro.obs.timeline`,
  :mod:`~repro.obs.causes`, :mod:`~repro.obs.render`) — the diagnosis
  layer: per-peer timeline reconstruction, stall root-cause
  attribution, swarm-health rollups, and the cause-marked ASCII Gantt;
* :mod:`repro.obs.span` / :mod:`repro.obs.ops` — *wall-clock*
  operational telemetry for the sweep orchestration layer
  (``repro.ops/1`` span logs, shard heartbeats, and the fleet view
  behind ``repro sweep status``), cleanly separated from the sim-time
  tracer above.

Tracing a run::

    from repro import Observability, Swarm, SwarmConfig
    from repro.obs import dump_jsonl, render_run_report

    obs = Observability.tracing()
    result = Swarm(splice, SwarmConfig(bandwidth=64e3), obs=obs).run()
    dump_jsonl(obs.events(), "run.jsonl")
    print(render_run_report(obs))
"""

from .analyze import (
    CellAnalysis,
    RunAnalysis,
    analyze_events,
    analyze_file,
    analyze_observability,
    merge_analyses,
    render_analysis,
    render_attributions,
    render_cause_table,
)
from .causes import (
    SEEDER_CONCURRENCY_THRESHOLD,
    STALL_CAUSES,
    StallAttribution,
    attribute_stalls,
    cause_histogram,
)
from .bench import (
    BenchCase,
    BenchHarness,
    CaseTiming,
    build_artifact,
    figure_metrics,
    load_artifact,
    validate_artifact,
)
from .compare import (
    Comparison,
    MetricDelta,
    compare_artifacts,
    render_comparison,
)
from .context import Observability
from .events import (
    EVENT_TYPES,
    SEVERITIES,
    FlowRateChanged,
    ManifestReceived,
    PeerDeparted,
    PeerJoined,
    PieceReceived,
    PlaybackFinished,
    PlaybackStarted,
    PoolResized,
    RequestTimedOut,
    SegmentRequested,
    SelectionMade,
    SimulationCompleted,
    SimulationStarted,
    StallEnded,
    StallStarted,
    TraceEvent,
    TransferCancelled,
    TransferCompleted,
    TransferStarted,
    event_from_dict,
    event_type,
)
from .export import (
    PeerTraceSummary,
    dump_jsonl,
    event_counts,
    events_to_jsonl,
    load_jsonl,
    peer_summaries,
    render_run_report,
    render_trace_summary,
    timeseries_csv,
)
from .metrics import (
    Counter,
    Gauge,
    HistogramSummary,
    MetricsRegistry,
    Timeseries,
    TimeWeightedHistogram,
)
from .manifest import (
    build_manifest,
    environment_block,
    git_info,
    render_environment,
    run_manifest,
)
from .ops import (
    NULL_HEARTBEAT,
    NULL_OPS,
    OpsLog,
    ShardHeartbeat,
    ShardStatus,
    find_heartbeats,
    fleet_status,
    heartbeat_path,
    load_ops,
    merge_ops_path,
    ops_root,
    read_heartbeat,
    render_fleet,
    shard_ops_path,
)
from .render import CAUSE_SYMBOLS, render_gantt
from .timeline import (
    InvariantViolation,
    PeerTimeline,
    PoolDecision,
    SegmentFetch,
    StallSpan,
    TimelineSet,
    TransferRecord,
    build_timelines,
)
from .span import (
    OPS_SCHEMA,
    Span,
    critical_path,
    render_critical_path,
    render_span_tree,
    span_from_dict,
)
from .tracer import NULL_TRACER, EventTracer, NullTracer, Tracer

__all__ = [
    "CAUSE_SYMBOLS",
    "EVENT_TYPES",
    "NULL_HEARTBEAT",
    "NULL_OPS",
    "NULL_TRACER",
    "OPS_SCHEMA",
    "SEEDER_CONCURRENCY_THRESHOLD",
    "SEVERITIES",
    "STALL_CAUSES",
    "BenchCase",
    "BenchHarness",
    "CaseTiming",
    "CellAnalysis",
    "Comparison",
    "Counter",
    "EventTracer",
    "FlowRateChanged",
    "Gauge",
    "HistogramSummary",
    "InvariantViolation",
    "ManifestReceived",
    "MetricDelta",
    "MetricsRegistry",
    "NullTracer",
    "Observability",
    "OpsLog",
    "PeerDeparted",
    "PeerJoined",
    "PeerTimeline",
    "PeerTraceSummary",
    "PieceReceived",
    "PlaybackFinished",
    "PlaybackStarted",
    "PoolDecision",
    "PoolResized",
    "RequestTimedOut",
    "RunAnalysis",
    "SegmentFetch",
    "SegmentRequested",
    "SelectionMade",
    "ShardHeartbeat",
    "ShardStatus",
    "SimulationCompleted",
    "SimulationStarted",
    "Span",
    "StallAttribution",
    "StallEnded",
    "StallSpan",
    "StallStarted",
    "TimelineSet",
    "Timeseries",
    "TimeWeightedHistogram",
    "TraceEvent",
    "Tracer",
    "TransferCancelled",
    "TransferCompleted",
    "TransferRecord",
    "TransferStarted",
    "analyze_events",
    "analyze_file",
    "analyze_observability",
    "attribute_stalls",
    "build_artifact",
    "build_manifest",
    "build_timelines",
    "cause_histogram",
    "compare_artifacts",
    "critical_path",
    "dump_jsonl",
    "environment_block",
    "event_counts",
    "event_from_dict",
    "event_type",
    "events_to_jsonl",
    "figure_metrics",
    "find_heartbeats",
    "fleet_status",
    "git_info",
    "heartbeat_path",
    "load_artifact",
    "load_jsonl",
    "load_ops",
    "merge_analyses",
    "merge_ops_path",
    "ops_root",
    "peer_summaries",
    "read_heartbeat",
    "render_analysis",
    "render_attributions",
    "render_cause_table",
    "render_comparison",
    "render_critical_path",
    "render_environment",
    "render_fleet",
    "render_gantt",
    "render_run_report",
    "render_span_tree",
    "render_trace_summary",
    "run_manifest",
    "shard_ops_path",
    "span_from_dict",
    "timeseries_csv",
    "validate_artifact",
]

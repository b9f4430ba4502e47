"""Trace analysis: timelines + attribution + swarm health rollups.

The public face of the diagnosis subsystem.  Feed it a trace — a live
:class:`~repro.obs.context.Observability`, an event list, or a JSONL
file — and get back a :class:`RunAnalysis`: per-peer timelines reduced
to QoE summaries, every completed stall attributed to one cause from
:data:`~repro.obs.causes.STALL_CAUSES` with its evidence window, and
swarm-health aggregates (cause histogram, transfer efficiency,
pool-occupancy-vs-Eq.1 deficit).

Everything here is pure and deterministic: no wall clock, no
randomness, no mutation of inputs.  The same trace yields the same
analysis whether it was recorded in-process or in a worker — which is
what lets sweep results carry attributions that are byte-identical
across ``jobs=1`` and ``jobs=4``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

from .causes import (
    STALL_CAUSES,
    StallAttribution,
    attribute_stalls,
    cause_histogram,
)
from .context import Observability
from .events import TraceEvent
from .export import (
    PeerTraceSummary,
    load_jsonl,
    peer_summaries,
    render_trace_summary,
)
from .timeline import InvariantViolation, build_timelines

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class RunAnalysis:
    """Everything the analyzer concluded about one run's trace.

    Frozen and built from plain containers so it pickles cleanly
    across process-pool boundaries.

    Attributes:
        attributions: one verdict per completed stall, ordered by
            (peer, start time).
        causes: cause -> count, every taxonomy entry present.
        peers: per-peer QoE summaries reconstructed from the timeline
            pass (:func:`~repro.obs.export.peer_summaries`).
        violations: event-ordering invariants the trace broke.
        truncated: whether the trace lost its head to a capacity-bounded
            ring buffer.
        notes: human-readable caveats about the reconstruction.
        stall_count: completed stalls across all peers — equals
            ``len(attributions)`` and, on a complete trace, the summed
            :class:`~repro.player.metrics.StreamingMetrics` counts.
        transfer_efficiency: payload bytes delivered / wire bytes moved
            by completed transfers (None when nothing completed).
            Below 1.0 means duplicate or abandoned traffic.
        pool_deficit: time-weighted mean of ``max(0, k - inflight)``
            across peers — how far below Eq. 1's target the pools
            actually ran (None when no pool decisions were traced).
        duration: sim seconds the trace covers.
        event_count: events consumed.
    """

    attributions: tuple[StallAttribution, ...]
    causes: dict[str, int]
    peers: dict[str, PeerTraceSummary]
    violations: tuple[InvariantViolation, ...]
    truncated: bool
    notes: tuple[str, ...]
    stall_count: int
    transfer_efficiency: float | None
    pool_deficit: float | None
    duration: float
    event_count: int


@dataclass(frozen=True, slots=True)
class CellAnalysis:
    """Stall diagnosis aggregated over one sweep cell's seeds.

    Attributes:
        causes: summed stall-cause histogram across the cell's runs.
        stall_count: total attributed stalls across runs.
        runs: how many runs contributed.
        mean_transfer_efficiency: mean over runs that had completed
            transfers (None when none did).
        mean_pool_deficit: mean over runs with pool decisions.
        violation_count: invariant violations across runs.
        truncated_runs: runs whose traces lost events to the ring
            buffer.
    """

    causes: dict[str, int]
    stall_count: int
    runs: int
    mean_transfer_efficiency: float | None
    mean_pool_deficit: float | None
    violation_count: int
    truncated_runs: int

    def dominant_cause(self) -> str | None:
        """The most frequent cause (ties broken by taxonomy order)."""
        best: str | None = None
        for cause in STALL_CAUSES:
            count = self.causes.get(cause, 0)
            if count and (best is None or count > self.causes[best]):
                best = cause
        return best


def _transfer_efficiency(timelines) -> float | None:
    payload = 0.0
    for line in timelines.timelines.values():
        for fetch in line.fetches:
            if fetch.size is not None:
                payload += fetch.size
    wire = sum(
        t.size
        for t in timelines.transfers
        if not t.cancelled and t.ended_at is not None and t.size
    )
    if wire <= 0:
        return None
    return payload / wire


def _pool_deficit(timelines) -> float | None:
    """Time-weighted mean of ``max(0, k - inflight)`` across peers."""
    horizon = timelines.last_time
    per_peer: list[float] = []
    for line in timelines.timelines.values():
        decisions = line.pool_decisions
        if not decisions:
            continue
        session_end = min(
            t
            for t in (line.finished_at, line.departed_at, horizon)
            if t is not None
        )
        weighted = 0.0
        total = 0.0
        for i, decision in enumerate(decisions):
            start = decision.time
            end = (
                decisions[i + 1].time
                if i + 1 < len(decisions)
                else session_end
            )
            if end <= start + _EPS:
                continue
            deficit = max(0, decision.size - line.inflight_at(start))
            weighted += deficit * (end - start)
            total += end - start
        if total > 0:
            per_peer.append(weighted / total)
    if not per_peer:
        return None
    return sum(per_peer) / len(per_peer)


def analyze_events(
    events: Sequence[TraceEvent], truncated: bool = False
) -> RunAnalysis:
    """Analyze an in-memory trace.

    Args:
        events: the trace, oldest first.
        truncated: caller-supplied hint that events were dropped before
            the trace was captured (e.g. the tracer's ``dropped``
            counter was non-zero).
    """
    timelines = build_timelines(events, truncated=truncated)
    attributions = tuple(attribute_stalls(timelines))
    return RunAnalysis(
        attributions=attributions,
        causes=cause_histogram(list(attributions)),
        peers=peer_summaries(timelines),
        violations=tuple(timelines.violations),
        truncated=timelines.truncated,
        notes=tuple(timelines.notes),
        stall_count=len(attributions),
        transfer_efficiency=_transfer_efficiency(timelines),
        pool_deficit=_pool_deficit(timelines),
        duration=max(0.0, timelines.last_time - timelines.first_time),
        event_count=timelines.event_count,
    )


def analyze_observability(obs: Observability) -> RunAnalysis:
    """Analyze a live run's retained events.

    The tracer's ``evicted`` counter (ring-buffer wraparound) feeds
    the truncation flag, so a wrapped buffer is reported even when the
    retained window happens to look well-formed.
    """
    evicted = getattr(obs.tracer, "evicted", 0)
    return analyze_events(obs.events(), truncated=evicted > 0)


def analyze_file(path: str | IO[str]) -> RunAnalysis:
    """Load a JSONL trace and analyze it.

    Raises:
        TraceError: when the file is missing or malformed — callers
            (the CLI) turn this into exit code 2, matching
            ``repro trace``.
    """
    return analyze_events(load_jsonl(path))


def merge_analyses(analyses: Sequence[RunAnalysis]) -> CellAnalysis:
    """Aggregate per-run analyses into one cell-level rollup."""
    causes = {cause: 0 for cause in STALL_CAUSES}
    for analysis in analyses:
        for cause, count in analysis.causes.items():
            causes[cause] = causes.get(cause, 0) + count
    efficiencies = [
        a.transfer_efficiency
        for a in analyses
        if a.transfer_efficiency is not None
    ]
    deficits = [
        a.pool_deficit for a in analyses if a.pool_deficit is not None
    ]
    return CellAnalysis(
        causes=causes,
        stall_count=sum(a.stall_count for a in analyses),
        runs=len(analyses),
        mean_transfer_efficiency=(
            sum(efficiencies) / len(efficiencies) if efficiencies else None
        ),
        mean_pool_deficit=(
            sum(deficits) / len(deficits) if deficits else None
        ),
        violation_count=sum(len(a.violations) for a in analyses),
        truncated_runs=sum(1 for a in analyses if a.truncated),
    )


# -- rendering ---------------------------------------------------------


def render_cause_table(causes: dict[str, int]) -> str:
    """The stall-cause histogram as a two-column table."""
    total = sum(causes.values())
    lines = [f"{'cause':<22s} {'stalls':>7s} {'share':>7s}"]
    for cause in STALL_CAUSES:
        count = causes.get(cause, 0)
        share = f"{100.0 * count / total:6.1f}%" if total else f"{'-':>7s}"
        lines.append(f"{cause:<22s} {count:>7d} {share}")
    lines.append(f"{'total':<22s} {total:>7d}")
    return "\n".join(lines)


def render_attributions(
    attributions: Sequence[StallAttribution],
) -> str:
    """One line per attributed stall, with its evidence."""
    if not attributions:
        return "(no completed stalls)"
    lines = [
        f"{'peer':<10s} {'seg':>4s} {'start':>8s} {'dur s':>7s} "
        f"{'cause':<22s} {'source':<10s} evidence"
    ]
    for a in attributions:
        evidence = a.evidence[0] if a.evidence else ""
        lines.append(
            f"{a.peer:<10s} {a.segment:>4d} {a.start:>8.1f} "
            f"{a.duration:>7.2f} {a.cause:<22s} "
            f"{(a.blocking_source or '-'):<10s} {evidence}"
        )
    return "\n".join(lines)


def render_analysis(analysis: RunAnalysis) -> str:
    """The full ``repro analyze`` report for one run."""
    parts: list[str] = ["# Stall diagnosis"]
    if analysis.truncated:
        parts.append("")
        parts.append(
            "WARNING: trace is truncated (ring-buffer wraparound); "
            "results cover only the retained window"
        )
    for note in analysis.notes:
        parts.append(f"note: {note}")
    if analysis.violations:
        parts += ["", "## Invariant violations", ""]
        for v in analysis.violations:
            parts.append(
                f"- t={v.time:.3f} {v.peer or '(swarm)'} [{v.rule}] "
                f"{v.detail} (event #{v.event_id})"
            )
    parts += [
        "",
        f"Trace: {analysis.event_count} events over "
        f"{analysis.duration:.1f}s of sim time, "
        f"{len(analysis.peers)} peers, "
        f"{analysis.stall_count} completed stalls.",
    ]
    if analysis.transfer_efficiency is not None:
        parts.append(
            "Transfer efficiency: "
            f"{analysis.transfer_efficiency:.3f} "
            "(payload bytes / wire bytes)"
        )
    if analysis.pool_deficit is not None:
        parts.append(
            f"Pool deficit vs Eq. 1: {analysis.pool_deficit:.2f} "
            "requests below target (time-weighted mean)"
        )
    parts += [
        "",
        "## Stall causes",
        "",
        render_cause_table(analysis.causes),
        "",
        "## Attributed stalls",
        "",
        render_attributions(analysis.attributions),
        "",
        "## Per-peer sessions",
        "",
        render_trace_summary(analysis.peers),
    ]
    return "\n".join(parts) + "\n"

"""Exporters: JSONL traces, CSV timeseries, human-readable run reports.

Three consumers, three formats:

* **JSONL** — one event per line, for tooling (``jq``, pandas) and for
  the ``repro trace`` CLI.  Round-trips losslessly: loading a dump
  yields events equal to the originals.
* **CSV** — every registry timeseries flattened to
  ``metric,time,value`` rows.
* **Run report** — what a human reads after a run: per-peer
  stall/startup summaries derived *from the trace alone* (so they can
  be cross-checked against :class:`~repro.p2p.swarm.SwarmResult`),
  event counts by category and metric totals.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import IO, Iterable, TextIO

from ..errors import TraceError
from ..jsonio import read_jsonl
from .context import Observability
from .events import TraceEvent, event_from_dict
from .metrics import MetricsRegistry
from .timeline import TimelineSet, build_timelines

# -- JSONL -------------------------------------------------------------


def dump_jsonl(
    events: Iterable[TraceEvent], destination: str | TextIO
) -> int:
    """Write events as JSON Lines; returns the number written.

    Args:
        destination: a path or an open text file.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return dump_jsonl(events, handle)
    count = 0
    for event in events:
        destination.write(json.dumps(event.to_dict(), sort_keys=True))
        destination.write("\n")
        count += 1
    return count


def load_jsonl(source: str | IO[str]) -> list[TraceEvent]:
    """Parse a JSONL trace back into typed events.

    Raises:
        TraceError: when the file is missing, a line is not a JSON
            object, or a record does not match any known event type.
    """
    return [
        event_from_dict(record)
        for record in read_jsonl(source, TraceError, "trace")
    ]


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """The JSONL text for ``events`` (convenience for tests/examples)."""
    buffer = io.StringIO()
    dump_jsonl(events, buffer)
    return buffer.getvalue()


# -- CSV ---------------------------------------------------------------


def timeseries_csv(registry: MetricsRegistry) -> str:
    """Flatten every registry timeseries to ``metric,time,value`` CSV."""
    lines = ["metric,time,value"]
    for name in sorted(registry.all_timeseries()):
        for time, value in registry.timeseries(name).samples:
            lines.append(f"{name},{time!r},{value!r}")
    return "\n".join(lines) + "\n"


# -- trace summarisation ----------------------------------------------


@dataclass(frozen=True, slots=True)
class PeerTraceSummary:
    """One peer's session, reconstructed purely from trace events.

    Matches :class:`~repro.player.metrics.StreamingMetrics` field for
    field when the trace is complete — the cross-check the integration
    tests enforce.

    Attributes:
        peer: the peer's name.
        joined: sim time the peer joined (None if never seen joining).
        startup_time: join-to-first-frame seconds (None = never
            started).
        stall_count: completed stalls (paired start/end events).
        total_stall_duration: summed stall seconds.
        finished: whether playback reached the end.
        departed: whether the peer churned out.
    """

    peer: str
    joined: float | None
    startup_time: float | None
    stall_count: int
    total_stall_duration: float
    finished: bool
    departed: bool


def peer_summaries(timelines: TimelineSet) -> dict[str, PeerTraceSummary]:
    """Reduce reconstructed timelines to per-peer session summaries.

    Stalls are counted only when both endpoints were traced (an
    unpaired start means the run's safety cap cut the session short —
    exactly the convention of
    :class:`~repro.player.metrics.StreamingMetrics`, which records a
    stall only once it has ended).
    """
    summaries = {}
    for name, line in timelines.timelines.items():
        complete = [s for s in line.stalls if s.complete]
        summaries[name] = PeerTraceSummary(
            peer=name,
            joined=line.joined,
            startup_time=line.startup_time,
            stall_count=len(complete),
            total_stall_duration=sum(
                (s.duration for s in complete), 0.0
            ),
            finished=line.finished_at is not None,
            departed=line.departed_at is not None,
        )
    return summaries


def render_trace_summary(
    summaries: dict[str, PeerTraceSummary]
) -> str:
    """The per-peer table ``repro trace`` prints."""
    lines = [
        f"{'peer':<10s} {'joined':>8s} {'startup':>8s} {'stalls':>7s} "
        f"{'stall s':>8s} {'outcome':>9s}"
    ]
    for peer in sorted(summaries):
        summary = summaries[peer]
        joined = (
            f"{summary.joined:8.1f}" if summary.joined is not None
            else f"{'-':>8s}"
        )
        startup = (
            f"{summary.startup_time:8.2f}"
            if summary.startup_time is not None
            else f"{'-':>8s}"
        )
        if summary.departed:
            outcome = "departed"
        elif summary.finished:
            outcome = "finished"
        elif summary.startup_time is not None:
            outcome = "cut off"
        else:
            outcome = "waiting"
        lines.append(
            f"{peer:<10s} {joined} {startup} {summary.stall_count:>7d} "
            f"{summary.total_stall_duration:>8.1f} {outcome:>9s}"
        )
    return "\n".join(lines)


def event_counts(
    events: Iterable[TraceEvent],
) -> dict[str, dict[str, int]]:
    """``category -> event name -> count`` over a trace."""
    counts: dict[str, dict[str, int]] = {}
    for event in events:
        bucket = counts.setdefault(event.category, {})
        bucket[event.name] = bucket.get(event.name, 0) + 1
    return counts


# -- the run report ----------------------------------------------------


def render_run_report(obs: Observability) -> str:
    """Everything a run recorded, as one readable document."""
    parts: list[str] = ["# Run report"]
    events = obs.events()
    if events:
        summaries = peer_summaries(build_timelines(events))
        parts += [
            "",
            "## Per-peer sessions (from trace)",
            "",
            render_trace_summary(summaries),
            "",
            "## Events by category",
            "",
        ]
        for category, names in sorted(event_counts(events).items()):
            total = sum(names.values())
            detail = ", ".join(
                f"{name} x{count}" for name, count in sorted(names.items())
            )
            parts.append(f"- {category} ({total}): {detail}")
    registry = obs.registry
    counters = registry.counters()
    if counters:
        parts += ["", "## Counters", ""]
        for name in sorted(counters):
            parts.append(f"- {name} = {counters[name].value:g}")
    gauges = registry.gauges()
    if gauges:
        parts += ["", "## Gauges", ""]
        for name in sorted(gauges):
            parts.append(f"- {name} = {gauges[name].value:g}")
    histograms = registry.histograms()
    if histograms:
        parts += ["", "## Time-weighted histograms", ""]
        for name in sorted(histograms):
            histogram = histograms[name]
            try:
                summary = histogram.summary()
            except TraceError:
                continue
            parts.append(
                f"- {name}: mean={summary.mean:.2f} "
                f"min={summary.minimum:g} max={summary.maximum:g} "
                f"over {summary.total_weight:.1f}s"
            )
    return "\n".join(parts) + "\n"

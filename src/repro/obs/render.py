"""ASCII Gantt rendering of reconstructed timelines.

One row per peer, one column per time bucket, with stall spans marked
by the *cause letter* the attribution pass assigned — so a glance
shows not just where sessions froze but why.  It works from a trace,
so ``repro timeline`` (a live run) and ``repro analyze --gantt`` (a
trace loaded from disk) draw the same chart.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import TraceError
from .causes import StallAttribution
from .timeline import PeerTimeline, TimelineSet

#: cause -> single-letter Gantt marker.
CAUSE_SYMBOLS: dict[str, str] = {
    "churn-loss": "X",
    "oversized-segment": "O",
    "pool-undersubscription": "P",
    "seeder-bottleneck": "S",
    "connection-overhead": "C",
    "startup": "*",
}

_LEGEND = (
    "legend: `.` waiting  `=` playing  `$` finished  stall causes: "
    "`X` churn-loss  `O` oversized-segment  `P` pool-undersubscription  "
    "`S` seeder-bottleneck  `C` connection-overhead  `*` startup  "
    "`#` unattributed"
)


def _symbol_at(
    line: PeerTimeline,
    stall_symbols: list[tuple[float, float, str]],
    t: float,
) -> str:
    if line.joined is not None and t < line.joined:
        return " "
    if line.departed_at is not None and t >= line.departed_at:
        return " "
    if line.finished_at is not None and t >= line.finished_at:
        return "$"
    for start, end, symbol in stall_symbols:
        if start <= t < end:
            return symbol
    if (
        line.playback_started_at is None
        or t < line.playback_started_at
    ):
        return "."
    return "="


def _horizon(timelines: TimelineSet) -> float:
    """Where the time axis ends: the last peer's finish or departure.

    The trace's last event is the run's ``max_time`` cap, which can
    lie far beyond every session; it is kept only while some peer was
    still present (neither finished nor departed) when the run ended.
    """
    ends = []
    for line in timelines.timelines.values():
        if line.finished_at is None and line.departed_at is None:
            return timelines.last_time
        ends.append(max(
            t for t in (line.finished_at, line.departed_at)
            if t is not None
        ))
    return max(ends)


def render_gantt(
    timelines: TimelineSet,
    attributions: Sequence[StallAttribution] = (),
    width: int = 72,
) -> str:
    """Render per-peer playback timelines with cause-marked stalls.

    Args:
        timelines: the reconstructed trace.
        attributions: verdicts from
            :func:`~repro.obs.causes.attribute_stalls`; stalls without
            a matching verdict render as ``#``.
        width: columns in the time axis.

    Raises:
        TraceError: ``width`` is below 10 columns.
    """
    if width < 10:
        raise TraceError(f"width must be >= 10, got {width}")
    if not timelines.timelines:
        return "(no peers in trace)"
    horizon = max(_horizon(timelines), 1e-9)
    scale = horizon / width

    verdicts: dict[tuple[str, float], str] = {
        (a.peer, a.start): CAUSE_SYMBOLS.get(a.cause, "#")
        for a in attributions
    }

    rows: list[str] = []
    for name, line in timelines.timelines.items():
        stall_symbols: list[tuple[float, float, str]] = []
        for span in line.stalls:
            if span.start is None:
                continue
            end = span.end if span.end is not None else horizon
            symbol = verdicts.get((name, span.start), "#")
            stall_symbols.append((span.start, end, symbol))
        row = [
            _symbol_at(line, stall_symbols, column * scale)
            for column in range(width)
        ]
        rows.append(f"{name:>8s} |{''.join(row)}|")

    axis = f"{'':>8s} 0{'':{width - 1}s}{horizon:.0f}s"
    return "\n".join([*rows, axis, _LEGEND])

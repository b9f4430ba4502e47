"""Ablations beyond the paper's figures (DESIGN.md A1–A5).

These answer the questions the paper leaves open: where the
segment-size sweet spot lies (A1, its Section IV discussion), whether
adaptive pooling helps under churn (A2), how much the duration
splicing overhead costs in bytes (A3), how splicing behaves under
variable bandwidth (A4, the paper's future work), and what the
duration-adaptive splicer from Section VII's future work buys (A5).

Every swarm-running ablation routes its independent runs through a
:class:`~repro.parallel.SweepExecutor` (serial by default), so the
consolidated reproduction can fan them out across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.segment_size import AdaptiveDurationPlanner
from ..core.segments import SpliceResult
from ..core.splicer import DurationSplicer, GopSplicer
from ..p2p.churn import ChurnConfig
from ..parallel import SplicerSpec, SquareWave, SweepExecutor, cell_for
from ..units import kB_per_s
from ..video.bitstream import Bitstream
from .config import (
    PAPER_BANDWIDTHS_KB,
    ExperimentConfig,
    make_paper_video,
)
from .runner import CellResult, FigureResult

#: Durations swept by the segment-size ablation, seconds.
A1_DURATIONS: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def run_segment_size_sweep(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    bandwidths_kb: tuple[int, ...] = (128, 512),
    durations: tuple[float, ...] = A1_DURATIONS,
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """A1 — stall count across a wide range of segment durations.

    The paper's Section IV argues the segment must be neither too
    small (TCP overhead) nor too large (coarse scheduling); this sweep
    locates the sweet spot per bandwidth.
    """
    cfg = config or ExperimentConfig()
    sweep = executor or SweepExecutor(jobs=1)
    specs = [SplicerSpec("duration", d) for d in durations]
    cells = [
        cell_for(
            spec,
            bw,
            cfg,
            video=video,
            label=f"A1/{spec.technique} @ {bw} kB/s",
        )
        for spec in specs
        for bw in bandwidths_kb
    ]
    results = iter(sweep.run_cells(cells))
    series = {
        spec.technique: [next(results) for _ in bandwidths_kb]
        for spec in specs
    }
    return FigureResult(
        figure="A1",
        title="Stalls across segment durations",
        metric="stall_count",
        series=series,
    )


def run_churn(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    bandwidth_kb: int = 256,
    churn_fractions: tuple[float, ...] = (0.0, 0.25, 0.5),
    mean_lifetime: float = 60.0,
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """A2 — stalls under increasing peer departure rates.

    Peers "can leave the swarm anytime"; prefetching is the paper's
    antidote.  Reported per churn fraction at one bandwidth; the
    bandwidth column of each series is reused for the fraction.
    """
    cfg = config or ExperimentConfig()
    sweep = executor or SweepExecutor(jobs=1)
    splicer = SplicerSpec("duration", 4.0)
    cells = []
    for fraction in churn_fractions:
        churn = (
            ChurnConfig(mean_lifetime=mean_lifetime, fraction=fraction)
            if fraction > 0
            else None
        )
        cells.append(
            cell_for(
                splicer,
                bandwidth_kb,
                replace(cfg, churn=churn),
                video=video,
                label=f"A2/churn {int(fraction * 100)}%",
            )
        )
    results = sweep.run_cells(cells)
    series = {
        f"churn {int(fraction * 100)}%": [cell]
        for fraction, cell in zip(churn_fractions, results)
    }
    return FigureResult(
        figure="A2",
        title=f"Stalls under churn at {bandwidth_kb} kB/s",
        metric="stall_count",
        series=series,
    )


@dataclass(frozen=True, slots=True)
class OverheadRow:
    """A3 — byte overhead of one splicing technique.

    Attributes:
        technique: splicer name.
        segments: number of segments produced.
        total_bytes: spliced size in bytes.
        overhead_bytes: bytes added over the source stream.
        overhead_percent: overhead as percent of the source size.
    """

    technique: str
    segments: int
    total_bytes: int
    overhead_bytes: int
    overhead_percent: float


def run_overhead(
    video: Bitstream | None = None,
    durations: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
) -> list[OverheadRow]:
    """A3 — quantify "much more data to be transferred".

    Pure computation: splice the video each way and compare sizes.
    """
    stream = video if video is not None else make_paper_video()

    def row(splice: SpliceResult) -> OverheadRow:
        return OverheadRow(
            technique=splice.technique,
            segments=len(splice),
            total_bytes=splice.total_size,
            overhead_bytes=splice.overhead_bytes,
            overhead_percent=100.0 * splice.overhead_ratio,
        )

    rows = [row(GopSplicer().splice(stream))]
    rows.extend(
        row(DurationSplicer(duration).splice(stream))
        for duration in durations
    )
    return rows


def run_variable_bandwidth(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    base_kb: int = 256,
    amplitude: float = 0.5,
    period: float = 20.0,
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """A4 — splicing under oscillating bandwidth (paper future work).

    Every peer's access bandwidth follows a square wave between
    ``base * (1 - amplitude)`` and ``base * (1 + amplitude)`` with the
    given period, changing mid-run through the flow network so active
    transfers re-share immediately.
    """
    wave = SquareWave(amplitude=amplitude, period=period)
    cfg = config or ExperimentConfig()
    sweep = executor or SweepExecutor(jobs=1)
    specs = [
        SplicerSpec("gop"),
        SplicerSpec("duration", 2.0),
        SplicerSpec("duration", 4.0),
        SplicerSpec("duration", 8.0),
    ]
    cells = [
        cell_for(
            spec,
            base_kb,
            cfg,
            video=video,
            square_wave=wave,
            label=f"A4/{spec.technique}",
        )
        for spec in specs
    ]
    results = sweep.run_cells(cells)
    series = {
        # The byte/completion columns are meaningless under an
        # oscillating-bandwidth run; zero them as the original
        # ablation reported.
        spec.technique: [
            replace(
                cell,
                seeder_bytes=0.0,
                peer_bytes=0.0,
                finished_fraction=1.0,
            )
        ]
        for spec, cell in zip(specs, results)
    }
    return FigureResult(
        figure="A4",
        title=(
            f"Stalls under square-wave bandwidth "
            f"({base_kb} kB/s +/- {int(amplitude * 100)}%)"
        ),
        metric="stall_count",
        series=series,
    )


def run_preroll(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    bandwidth_kb: int = 256,
    prerolls: tuple[int, ...] = (1, 2, 3),
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """A7 — pre-roll buffering: trading startup for stalls.

    The paper's client starts on the first segment; HLS players
    pre-roll several.  Measures both observables per pre-roll depth.
    """
    cfg = config or ExperimentConfig()
    sweep = executor or SweepExecutor(jobs=1)
    splicer = SplicerSpec("duration", 4.0)
    cells = [
        cell_for(
            splicer,
            bandwidth_kb,
            cfg,
            video=video,
            preroll_segments=preroll,
            label=f"A7/preroll {preroll}",
        )
        for preroll in prerolls
    ]
    results = sweep.run_cells(cells)
    series = {
        f"preroll {preroll}": [
            replace(
                cell,
                seeder_bytes=0.0,
                peer_bytes=0.0,
                finished_fraction=1.0,
            )
        ]
        for preroll, cell in zip(prerolls, results)
    }
    return FigureResult(
        figure="A7",
        title=f"Pre-roll depth at {bandwidth_kb} kB/s",
        metric="stall_count",
        series=series,
    )


def run_swarm_scaling(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    bandwidth_kb: int = 256,
    swarm_sizes: tuple[int, ...] = (5, 10, 19, 38),
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """A8 — scalability: does P2P shed load from the origin?

    The paper motivates P2P by scalability; this sweep grows the swarm
    and reports stalls while the harness records how the seeder's
    share of the served bytes shrinks (``seeder_bytes`` vs
    ``peer_bytes`` in the cells).
    """
    cfg = config or ExperimentConfig()
    sweep = executor or SweepExecutor(jobs=1)
    splicer = SplicerSpec("duration", 4.0)
    cells = [
        cell_for(
            splicer,
            bandwidth_kb,
            replace(cfg, n_leechers=size),
            video=video,
            label=f"A8/{size} peers",
        )
        for size in swarm_sizes
    ]
    results = sweep.run_cells(cells)
    series = {
        f"{size} peers": [cell]
        for size, cell in zip(swarm_sizes, results)
    }
    return FigureResult(
        figure="A8",
        title=f"Swarm scaling at {bandwidth_kb} kB/s",
        metric="stall_count",
        series=series,
    )


def run_adaptive_splicing(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    bandwidths_kb: tuple[int, ...] = PAPER_BANDWIDTHS_KB,
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """A5 — duration-adaptive splicing (paper future work).

    For each bandwidth the :class:`AdaptiveDurationPlanner` picks a
    segment duration before splicing; compared against fixed 4-second
    splicing.
    """
    cfg = config or ExperimentConfig()
    sweep = executor or SweepExecutor(jobs=1)
    stream = video if video is not None else make_paper_video(cfg)
    planner = AdaptiveDurationPlanner(bitrate=stream.bitrate)
    cells = [
        cell_for(
            SplicerSpec(
                "duration", planner.pick(kB_per_s(bw)).duration
            ),
            bw,
            cfg,
            video=video,
            label=f"A5/adaptive @ {bw} kB/s",
        )
        for bw in bandwidths_kb
    ] + [
        cell_for(
            SplicerSpec("duration", 4.0),
            bw,
            cfg,
            video=video,
            label=f"A5/fixed 4s @ {bw} kB/s",
        )
        for bw in bandwidths_kb
    ]
    results = sweep.run_cells(cells)
    split = len(bandwidths_kb)
    return FigureResult(
        figure="A5",
        title="Adaptive segment duration vs fixed 4 s",
        metric="stall_count",
        series={
            "adaptive duration": results[:split],
            "fixed 4s": results[split:],
        },
    )

"""Sweep runner: one cell = one (technique, bandwidth, policy) point,
averaged over the configured seeds as the paper averages three runs.

The per-seed reduction is split into two shared pieces —
:func:`seed_stats` (one swarm run -> its scalar stats) and
:func:`merge_cell` (stats in seed order -> a :class:`CellResult`) — so
the serial path here and the parallel sweep executor
(:mod:`repro.parallel`) compute bit-identical cells.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from ..core.policy import DownloadPolicy
from ..core.segments import SpliceResult
from ..errors import ExperimentError
from ..obs.analyze import CellAnalysis, RunAnalysis, merge_analyses
from ..obs.context import Observability
from ..p2p.swarm import Swarm, SwarmResult
from .config import ExperimentConfig, make_swarm_config


@dataclass(frozen=True, slots=True)
class CellResult:
    """Seed-averaged metrics for one experimental cell.

    Attributes:
        bandwidth_kb: peer bandwidth of the cell, kB/s.
        stall_count: mean stalls per finishing peer, averaged over
            seeds.
        stall_duration: mean total stall seconds per finishing peer.
        startup_time: mean startup seconds per starting peer.
        seeder_bytes: mean bytes served by the seeder per run.
        peer_bytes: mean bytes served peer-to-peer per run.
        finished_fraction: fraction of peers that finished playback.
        analysis: stall diagnosis aggregated over the cell's seeds
            (only populated by analyzing sweeps; ``None`` otherwise).
    """

    bandwidth_kb: float
    stall_count: float
    stall_duration: float
    startup_time: float
    seeder_bytes: float
    peer_bytes: float
    finished_fraction: float
    analysis: CellAnalysis | None = None

    @property
    def rounded_stalls(self) -> int:
        """Stall count as the paper reports it ("rounded average")."""
        return round(self.stall_count)


@dataclass(frozen=True, slots=True)
class FigureResult:
    """One reproduced figure: labeled series over the bandwidth axis.

    Attributes:
        figure: figure identifier (e.g. ``"fig2"``).
        title: human-readable title.
        metric: which CellResult field the figure plots.
        series: label -> cells in bandwidth order.
    """

    figure: str
    title: str
    metric: str
    series: dict[str, list[CellResult]]

    def value(self, cell: CellResult) -> float:
        """Extract this figure's metric from a cell."""
        return float(getattr(cell, self.metric))


@dataclass(frozen=True, slots=True)
class SeedStats:
    """Scalar outcome of one swarm run (one seed of one cell).

    Picklable on purpose: worker processes ship these back to the
    parent instead of whole :class:`~repro.p2p.swarm.SwarmResult`
    objects.

    Attributes:
        stall_count: mean stalls per finishing peer.
        stall_duration: mean total stall seconds per finishing peer.
        startup_time: mean startup seconds per starting peer.
        seeder_bytes: bytes served by the seeder.
        peer_bytes: bytes served peer-to-peer.
        finished_fraction: fraction of peers that finished playback.
        events_fired: simulator callbacks the run executed.
        end_time: simulated seconds the run covered.
    """

    stall_count: float
    stall_duration: float
    startup_time: float
    seeder_bytes: float
    peer_bytes: float
    finished_fraction: float
    events_fired: int = 0
    end_time: float = 0.0


def seed_stats(
    result: SwarmResult, events_fired: int = 0, end_time: float = 0.0
) -> SeedStats:
    """Reduce one :class:`SwarmResult` to its cell-level scalars."""
    return SeedStats(
        stall_count=result.mean_stall_count(),
        stall_duration=result.mean_stall_duration(),
        startup_time=result.mean_startup_time(),
        seeder_bytes=result.seeder_bytes_uploaded,
        peer_bytes=result.peer_bytes_uploaded,
        finished_fraction=(
            len(result.finished_metrics()) / max(1, len(result.metrics))
        ),
        events_fired=events_fired,
        end_time=end_time,
    )


def merge_cell(
    bandwidth_kb: float,
    stats: Sequence[SeedStats],
    analyses: Sequence[RunAnalysis] | None = None,
) -> CellResult:
    """Average per-seed stats (in seed order) into one cell.

    Both execution paths — the serial loop below and the parallel
    executor's deterministic merge — call exactly this function, so a
    cell's floats are identical regardless of worker count.

    Args:
        analyses: per-seed stall diagnoses (in seed order) from an
            analyzing sweep; merged onto the cell when given.
    """
    if not stats:
        raise ExperimentError("cannot merge a cell with no seed runs")
    return CellResult(
        bandwidth_kb=bandwidth_kb,
        stall_count=statistics.fmean(s.stall_count for s in stats),
        stall_duration=statistics.fmean(s.stall_duration for s in stats),
        startup_time=statistics.fmean(s.startup_time for s in stats),
        seeder_bytes=statistics.fmean(s.seeder_bytes for s in stats),
        peer_bytes=statistics.fmean(s.peer_bytes for s in stats),
        finished_fraction=statistics.fmean(
            s.finished_fraction for s in stats
        ),
        analysis=merge_analyses(analyses) if analyses else None,
    )


def run_cell(
    splice: SpliceResult,
    bandwidth_kb: float,
    config: ExperimentConfig | None = None,
    policy: DownloadPolicy | None = None,
    obs: Observability | None = None,
) -> CellResult:
    """Run one cell: every configured seed, then average.

    Args:
        splice: the spliced video to stream.
        bandwidth_kb: peer bandwidth in kB/s.
        config: shared experiment parameters.
        policy: download policy override.
        obs: optional observability context shared by every run of the
            cell.  Counters and histograms accumulate across seeds
            (each run's histogram intervals are closed at run end);
            gauges keep the last run's value.  Tracing a multi-seed
            cell mixes restarting sim clocks in one trace — prefer a
            metrics-only context here and trace single runs instead.

    Returns:
        Seed-averaged :class:`CellResult`.
    """
    cfg = config or ExperimentConfig()
    stats: list[SeedStats] = []
    for seed in cfg.seeds:
        swarm_config = make_swarm_config(
            bandwidth_kb, seed, cfg, policy
        )
        swarm = Swarm(splice, swarm_config, obs=obs)
        result = swarm.run()
        stats.append(
            seed_stats(
                result,
                events_fired=swarm.sim.events_fired,
                end_time=swarm.sim.now,
            )
        )
    return merge_cell(bandwidth_kb, stats)

"""The work a single sweep run performs, parent- or worker-side.

:func:`execute_run` is the one code path that turns a
:class:`~repro.parallel.spec.RunSpec` into per-seed stats — the
executor calls it directly for in-process sweeps and via
:func:`pool_entry` inside pool workers.  Because both paths run the
same deterministic simulation on the same reconstructed inputs, a
cell's numbers are identical at any worker count.

:func:`pool_entry` must stay a module-level function (pickled by
reference into worker processes) and never raise: any exception is
folded into a failed :class:`RunOutcome` naming its cell, so one
crashed run reports itself instead of killing the sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from time import perf_counter

from ..experiments.config import make_swarm_config
from ..experiments.runner import SeedStats, seed_stats
from ..obs.analyze import RunAnalysis, analyze_observability
from ..obs.context import Observability
from ..obs.profile import EngineProfile
from ..p2p.swarm import Swarm, build_swarm
from ..units import kB_per_s
from .cache import memo_counts, publish_memo_delta, splice_for
from .snapshot import (
    MetricsSnapshot,
    ProfileSnapshot,
    snapshot_profile,
    snapshot_registry,
)
from .spec import RunSpec, SquareWave


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """What one (cell, seed) run produced — or how it failed.

    Attributes:
        cell_index: merge key (position of the cell in the sweep).
        seed_index: merge key (position of the seed in the cell).
        seed: the swarm seed that ran.
        label: the cell's human-readable identity.
        stats: per-seed scalars (``None`` when the run failed).
        error: ``"ExcType: message"`` when the run failed.
        wall_seconds: wall-clock time the run took where it executed.
        metrics: registry snapshot (pool runs with metrics collection
            only).
        analysis: the run's stall diagnosis (analyzing sweeps only);
            computed from the run's private trace where the run
            executed, so it is identical at any worker count.
        profile: per-category engine wall time measured where the run
            executed (profiling pool runs only).
        cached: the outcome was served from a
            :class:`~repro.parallel.store.ResultStore` instead of
            being computed this sweep; ``wall_seconds`` then reports
            what the *original* execution cost.
        pid: process id that executed the run (the parent for
            in-process sweeps, a pool worker otherwise).
    """

    cell_index: int
    seed_index: int
    seed: int
    label: str = ""
    stats: SeedStats | None = None
    error: str | None = None
    wall_seconds: float = 0.0
    metrics: MetricsSnapshot | None = None
    analysis: RunAnalysis | None = None
    profile: ProfileSnapshot | None = None
    cached: bool = False
    pid: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run completed and produced stats."""
        return self.error is None and self.stats is not None


def _schedule_square_wave(
    swarm: Swarm, base: float, wave: SquareWave
) -> None:
    """Toggle every leecher's bandwidth between the two wave levels."""
    low = base * (1.0 - wave.amplitude)
    high = base * (1.0 + wave.amplitude)

    def set_level(level: float, next_level: float) -> None:
        swarm.set_peer_bandwidth(level)
        swarm.sim.schedule(
            wave.period / 2.0, set_level, next_level, level
        )

    swarm.sim.schedule(wave.period / 2.0, set_level, low, high)


def execute_run(
    spec: RunSpec, obs: Observability | None = None
) -> RunOutcome:
    """Run one (cell, seed) swarm and reduce it to an outcome.

    Args:
        spec: the run to perform.
        obs: observability context the swarm records into (the parent's
            own context on the in-process path, a private registry in
            pool workers).  Exceptions propagate — isolation is
            :func:`pool_entry`'s job.
    """
    cell = spec.cell
    if obs is not None:
        memo_before = memo_counts()
    splice = splice_for(cell)
    if obs is not None:
        publish_memo_delta(obs.registry, memo_before)
    swarm_config = make_swarm_config(
        cell.bandwidth_kb, spec.seed, cell.config, cell.policy
    )
    if cell.preroll_segments is not None:
        swarm_config = replace(
            swarm_config, preroll_segments=cell.preroll_segments
        )
    if cell.fidelity is not None:
        swarm_config = replace(swarm_config, fidelity=cell.fidelity)
    swarm = build_swarm(splice, swarm_config, obs=obs)
    if cell.square_wave is not None:
        _schedule_square_wave(
            swarm, kB_per_s(cell.bandwidth_kb), cell.square_wave
        )
    started = perf_counter()
    result = swarm.run()
    return RunOutcome(
        cell_index=spec.cell_index,
        seed_index=spec.seed_index,
        seed=spec.seed,
        label=cell.describe(),
        stats=seed_stats(
            result,
            events_fired=swarm.sim.events_fired,
            end_time=swarm.sim.now,
        ),
        wall_seconds=perf_counter() - started,
        pid=os.getpid(),
    )


def pool_entry(spec: RunSpec) -> RunOutcome:
    """Worker-process entry point: never raises, always an outcome."""
    if spec.collect_analysis:
        # Same tracer configuration as the executor's in-process
        # analyzing path — the trace, and therefore the attribution,
        # must not depend on where the run executed.
        obs = Observability.tracing()
    elif spec.collect_metrics or spec.collect_profile:
        obs = Observability.metrics_only()
    else:
        obs = None
    if spec.collect_profile and obs is not None:
        obs.profile = EngineProfile()
    try:
        outcome = execute_run(spec, obs)
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        return RunOutcome(
            cell_index=spec.cell_index,
            seed_index=spec.seed_index,
            seed=spec.seed,
            label=spec.cell.describe(),
            error=f"{type(exc).__name__}: {exc}",
            pid=os.getpid(),
        )
    if obs is not None and spec.collect_metrics:
        outcome = replace(
            outcome, metrics=snapshot_registry(obs.registry)
        )
    if obs is not None and spec.collect_analysis:
        outcome = replace(
            outcome, analysis=analyze_observability(obs)
        )
    if obs is not None and obs.profile is not None:
        outcome = replace(
            outcome, profile=snapshot_profile(obs.profile)
        )
    return outcome

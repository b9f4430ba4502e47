"""The benchmark's workloads: inputs from a seed, set-up, passes, checks.

* ``scarce`` and ``ample`` run the paper's Fig. 2 grid row at one
  bandwidth: the four splicing techniques (GOP, 2/4/8-second
  durations) under adaptive pooling, with the paper's 19 leechers,
  2-minute video and 3600 s cap, each technique averaged over
  :data:`SEEDS_PER_TECHNIQUE` swarm seeds drawn from the benchmark
  seed.  One *pass* is one ``SweepExecutor(jobs=1).run_cells`` over
  those cells: one caller, closed loop, the next swarm run starting
  when the previous one ends.
* ``merge`` replays ``repro sweep merge`` of the quick Fig. 2-5 plans
  (K=2 shards computed during set-up) into a fresh target store: one
  pass absorbs the shard stores, replays every run as a store hit,
  writes the ops span logs and renders the four figure tables.  The
  benchmark seed orders the figures and each figure's shard sources;
  the plans themselves are fixed by ``repro sweep plan --quick``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

# Program functions are called through their modules, never imported
# by name, so the wrappers ``layers.LayerTrace`` installs on the module
# attributes see the benchmark's own calls too.
from repro.experiments import fig2, report, runner, sweep_service
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import CellResult
from repro.obs.context import Observability
from repro.parallel import ResultStore, SweepExecutor, cache
from repro.parallel.digest import content_digest

#: Workload name -> peer bandwidth in kB/s (``None``: no simulation).
WORKLOADS: dict[str, int | None] = {
    "scarce": 128,
    "ample": 768,
    "merge": None,
}

#: Swarm seeds each technique is averaged over in one pass.
SEEDS_PER_TECHNIQUE = 4

#: Shards the merge workload's plans are split into.
MERGE_SHARDS = 2

#: Figures the merge workload plans, shards and merges.
MERGE_FIGURES: tuple[str, ...] = ("2", "3", "4", "5")


def swarm_seeds(workload: str, seed: int) -> tuple[int, ...]:
    """The swarm seeds a benchmark seed expands to (deterministic)."""
    rng = random.Random(f"paperbench/{workload}/{seed}")
    return tuple(
        rng.randrange(1, 2**31) for _ in range(SEEDS_PER_TECHNIQUE)
    )


def simulation_cells(workload: str, seed: int) -> list:
    """The Fig. 2 cells of one simulation workload."""
    bandwidth = WORKLOADS[workload]
    if bandwidth is None:
        raise ValueError(f"{workload!r} runs no simulation")
    config = ExperimentConfig(seeds=swarm_seeds(workload, seed))
    return fig2.cells(config, bandwidths_kb=(bandwidth,))


def merge_order(seed: int) -> list[tuple[str, list[int]]]:
    """Figure order and, per figure, the order of its shard sources."""
    rng = random.Random(f"paperbench/merge/{seed}")
    figures = list(MERGE_FIGURES)
    rng.shuffle(figures)
    return [
        (figure, rng.sample(range(MERGE_SHARDS), MERGE_SHARDS))
        for figure in figures
    ]


# -- results and checks ----------------------------------------------


@dataclass
class PassResult:
    """One pass: its wall time, work and outputs.

    Attributes:
        wall_s: host seconds the pass took.
        unit_walls: host seconds of each timed unit of the pass, in
            pass order: each swarm run for ``scarce``/``ample``, the
            whole pass for ``merge``.
        unit_paces: what the caller's pacing probe returned just
            before each unit (empty without a probe).
        runs: swarm runs completed, simulated or served from a store.
        events: simulated events the pass delivered (for ``merge``,
            the events recorded in the served store entries).
        cells: every figure cell the pass produced.
        digest: content digest of the pass's outputs.
        problems: failed output checks, empty when all passed.
        store_hits: result-store hits (``merge`` only).
        store_misses: result-store misses (``merge`` only).
    """

    wall_s: float
    unit_walls: list[float]
    runs: int
    events: int
    cells: list[CellResult]
    digest: str
    problems: list[str] = field(default_factory=list)
    unit_paces: list[float] = field(default_factory=list)
    store_hits: int = 0
    store_misses: int = 0


def check_cells(cells: list[CellResult]) -> list[str]:
    """Non-finite cell values and impossible finished fractions."""
    problems = []
    for index, cell in enumerate(cells):
        for name in (
            "stall_count",
            "stall_duration",
            "startup_time",
            "seeder_bytes",
            "peer_bytes",
            "finished_fraction",
        ):
            value = getattr(cell, name)
            if not math.isfinite(value):
                problems.append(f"cell {index}: {name} is {value}")
        if not 0.0 <= cell.finished_fraction <= 1.0:
            problems.append(
                f"cell {index}: finished_fraction "
                f"{cell.finished_fraction} outside [0, 1]"
            )
    return problems


# -- simulation workloads --------------------------------------------


def prime_simulation(cells: list) -> None:
    """Set-up: encode the paper video and splice every technique."""
    for cell in cells:
        cache.splice_for(cell)


def simulation_pass(
    cells: list,
    obs: Observability | None = None,
    pace: Callable[[], float] | None = None,
) -> PassResult:
    """Run every seed of every cell once, serially, in this process.

    Runs go to the executor one at a time so each is timed on its
    own; the per-seed stats then merge into cells exactly as
    ``SweepExecutor.run_cells`` merges them.  ``pace``, when given,
    runs before each swarm run (outside its timing) and its results
    are kept in :attr:`PassResult.unit_paces`.
    """
    started = perf_counter()
    executor = SweepExecutor(jobs=1)
    specs = sweep_service.expand_runs(cells)
    outcomes = []
    unit_walls = []
    unit_paces = []
    try:
        for spec in specs:
            if pace is not None:
                unit_paces.append(pace())
            run_started = perf_counter()
            outcomes.extend(executor.map_runs([spec], obs=obs))
            unit_walls.append(perf_counter() - run_started)
    except Exception as exc:  # noqa: BLE001 - reported as a failed pass
        problem = f"pass failed: {type(exc).__name__}: {exc}"
    else:
        failures = [o for o in outcomes if not o.ok]
        problem = (
            f"{len(failures)} of {len(outcomes)} runs failed: "
            + "; ".join(f"{o.label}: {o.error}" for o in failures)
            if failures
            else None
        )
    wall = perf_counter() - started
    if problem is not None:
        return PassResult(
            wall_s=wall,
            unit_walls=unit_walls,
            runs=len(specs),
            events=0,
            cells=[],
            digest="",
            problems=[problem],
        )
    results = [
        runner.merge_cell(
            cell.bandwidth_kb,
            [o.stats for o in outcomes if o.cell_index == index],
        )
        for index, cell in enumerate(cells)
    ]
    return PassResult(
        wall_s=wall,
        unit_walls=unit_walls,
        unit_paces=unit_paces,
        runs=len(outcomes),
        events=executor.stats.events_fired,
        cells=results,
        digest=content_digest(results),
        problems=check_cells(results),
    )


# -- merge workload --------------------------------------------------


@dataclass
class MergeInputs:
    """What the merge workload's set-up leaves behind.

    Attributes:
        plans: figure -> sweep plan, in the seed's figure order.
        sources: figure -> shard store directories, in the seed's
            absorb order.
    """

    plans: dict[str, dict]
    sources: dict[str, list[Path]]


def _shard_store(root: Path, figure: str, shard: int) -> Path:
    return root / f"fig{figure}-shard{shard}"


def merge_inputs(root: Path, seed: int) -> MergeInputs:
    """The plans, and where :func:`merge_setup` puts their shards."""
    plans: dict[str, dict] = {}
    sources: dict[str, list[Path]] = {}
    for figure, shard_order in merge_order(seed):
        plans[figure] = sweep_service.build_plan(
            figure, quick=True, shards=MERGE_SHARDS
        )
        sources[figure] = [
            _shard_store(root, figure, shard) for shard in shard_order
        ]
    return MergeInputs(plans=plans, sources=sources)


def merge_setup(root: Path, seed: int) -> MergeInputs:
    """Set-up: plan every figure and run each shard into its store."""
    inputs = merge_inputs(root, seed)
    for figure, plan in inputs.plans.items():
        for shard in range(MERGE_SHARDS):
            store = ResultStore(_shard_store(root, figure, shard))
            sweep_service.run_shard(plan, shard, store, jobs=1)
    return inputs


@dataclass
class MergeReference:
    """The direct (unsharded, uncached) sweep the merge must reproduce.

    Attributes:
        tables: figure -> rendered table.
        runs: runs in one merge pass.
        events: simulated events of those runs.
    """

    tables: dict[str, str]
    runs: int
    events: int


def direct_sweep(inputs: MergeInputs) -> MergeReference:
    """Compute every figure directly, without shards or a store."""
    tables: dict[str, str] = {}
    runs = events = 0
    config = sweep_service.sweep_config(True, "exact")
    for figure in inputs.plans:
        executor = SweepExecutor(jobs=1)
        result = sweep_service.FIGURE_MODULES[figure].run(
            config,
            bandwidths_kb=sweep_service.QUICK_BANDWIDTHS_KB,
            executor=executor,
        )
        tables[figure] = report.format_figure(
            result, precision=sweep_service.FIGURE_PRECISION[figure]
        )
        runs += executor.stats.runs
        events += executor.stats.events_fired
    return MergeReference(tables=tables, runs=runs, events=events)


def merge_pass(
    inputs: MergeInputs,
    reference: MergeReference,
    target: Path,
    pace: Callable[[], float] | None = None,
) -> PassResult:
    """Merge every figure's shards into an empty store under ``target``.

    The caller empties the target stores between passes
    (:func:`empty_targets`) instead of deleting them: re-creating
    thousands of directories a second makes the timing follow the
    file system's allocator rather than the program.  ``pace`` works as
    in :func:`simulation_pass`; the whole pass is one timed unit.
    """
    unit_paces = [pace()] if pace is not None else []
    stores = []
    reports = []
    tables: dict[str, str] = {}
    started = perf_counter()
    for figure, plan in inputs.plans.items():
        store = ResultStore(target / f"fig{figure}")
        merged = sweep_service.merge_plan(
            plan, store, sources=inputs.sources[figure], jobs=1
        )
        tables[figure] = report.format_figure(
            merged.result, precision=merged.precision
        )
        stores.append(store)
        reports.append(merged)
    wall = perf_counter() - started
    cells = [
        cell
        for merged in reports
        for series in merged.result.series.values()
        for cell in series
    ]
    problems = check_cells(cells)
    for figure, table in tables.items():
        if table != reference.tables[figure]:
            problems.append(
                f"fig{figure}: merged table differs from the direct sweep"
            )
    runs = sum(merged.runs for merged in reports)
    cached = sum(merged.cached for merged in reports)
    computed = sum(merged.computed for merged in reports)
    if computed:
        problems.append(f"merge computed {computed} runs, expected 0")
    if cached != runs:
        problems.append(f"only {cached} of {runs} replayed runs were hits")
    if runs != reference.runs:
        problems.append(f"merged {runs} runs, the plans hold {reference.runs}")
    return PassResult(
        wall_s=wall,
        unit_walls=[wall],
        unit_paces=unit_paces,
        runs=runs,
        events=reference.events,
        cells=cells,
        digest=content_digest(tables),
        problems=problems,
        store_hits=sum(store.stats.hits for store in stores),
        store_misses=sum(store.stats.misses for store in stores),
    )


def empty_targets(inputs: MergeInputs, target: Path) -> None:
    """Remove every entry a :func:`merge_pass` committed under ``target``."""
    for figure in inputs.plans:
        ResultStore(target / f"fig{figure}").clear()

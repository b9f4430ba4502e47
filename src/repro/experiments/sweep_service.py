"""The sharded, resumable sweep service behind ``repro sweep``.

A figure sweep is a deterministic function of (figure, scale): every
machine that rebuilds it gets the same cells, the same
:class:`~repro.parallel.spec.RunSpec` expansion, and — thanks to the
canonical-JSON content digest — the same identity per run.  That
makes multi-machine sweeps a three-verb protocol over plain files:

* ``plan`` — expand the sweep, digest every run, and deterministically
  partition the digests into K shards (``int(digest, 16) % K``).  The
  plan document (schema :data:`SWEEP_SCHEMA`) records the digests it
  expects, so a shard runner on another machine can prove it rebuilt
  the *same* sweep before running a single cell.
* ``run`` — execute one shard into a
  :class:`~repro.parallel.store.ResultStore` directory.  Any shard can
  run on any machine, at any ``--jobs``, in any order; interrupted
  shards resume from their store.
* ``merge`` — union the shard stores (content-addressed entries make
  the union conflict-free) and replay the figure against the merged
  store: every run is a cache hit, and the resulting
  :class:`~repro.experiments.runner.FigureResult` is byte-identical to
  a single-machine run because the cached outcomes *are* the original
  per-run results, merged in the same (cell, seed) order.

Missing entries (a shard that never ran, a killed machine) are not an
error at merge time: the merge executor simply computes them — merge
degrades gracefully into resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..errors import StoreError
from ..jsonio import check_schema, read_json
from ..obs.ops import (
    NULL_HEARTBEAT,
    NULL_OPS,
    OpsLog,
    ShardHeartbeat,
    heartbeat_path,
    merge_ops_path,
    shard_ops_path,
)
from ..parallel import (
    ResultStore,
    SweepExecutor,
    SweepProgress,
)
from ..parallel.spec import CellSpec, RunSpec
from ..parallel.store import (
    STORE_SCHEMA,
    run_identity,
    sim_code_fingerprint,
)
from . import fig2, fig3, fig4, fig5
from .config import ExperimentConfig
from .runner import FigureResult

#: Version tag of the sweep-plan document.  Bump on any change to the
#: plan layout; runners reject plans they do not understand (the
#: policy mirrors ``repro.bench/1``, see ``docs/OBSERVABILITY.md``).
SWEEP_SCHEMA = "repro.sweep/1"

#: Figure modules the service can plan, keyed by CLI name.
FIGURE_MODULES = {
    "2": fig2,
    "3": fig3,
    "4": fig4,
    "5": fig5,
}

#: Table precision per figure (mirrors the ``repro figN`` commands).
FIGURE_PRECISION = {"2": 1, "3": 1, "4": 2, "5": 1}

#: The reduced bandwidth axis ``--quick`` sweeps use (mirrors
#: ``reproduce --quick --figure N``).
QUICK_BANDWIDTHS_KB: tuple[int, ...] = (128, 512)


def sweep_config(quick: bool, engine: str = "exact") -> ExperimentConfig:
    """The experiment config a plan's parameters describe.

    Exactly the config ``reproduce [--quick]`` builds, so a sharded
    sweep and a direct run compute identical cells.  ``engine`` names
    the swarm engine; ``"exact"`` is the only one, and the parameter
    stays only because ``paperbench/workloads.py`` passes it.
    """
    if engine != "exact":
        raise StoreError(f"unknown swarm engine {engine!r}")
    if quick:
        return ExperimentConfig(n_leechers=9, seeds=(7,))
    return ExperimentConfig()


def figure_cells(
    figure: str, config: ExperimentConfig, quick: bool
) -> list[CellSpec]:
    """Rebuild the figure's sweep cells from plan parameters."""
    module = FIGURE_MODULES.get(figure)
    if module is None:
        raise StoreError(
            f"unknown figure {figure!r} "
            f"(expected one of {', '.join(sorted(FIGURE_MODULES))})"
        )
    if quick:
        return module.cells(
            config, bandwidths_kb=QUICK_BANDWIDTHS_KB
        )
    return module.cells(config)


def expand_runs(cells: Sequence[CellSpec]) -> list[RunSpec]:
    """Expand cells into per-seed runs, exactly as ``run_cells`` does."""
    return [
        RunSpec(
            cell=cell,
            seed=seed,
            cell_index=cell_index,
            seed_index=seed_index,
        )
        for cell_index, cell in enumerate(cells)
        for seed_index, seed in enumerate(cell.config.seeds)
    ]


def shard_of(digest: str, shards: int) -> int:
    """Deterministic shard assignment of one run digest."""
    return int(digest, 16) % shards


def build_plan(
    figure: str,
    quick: bool = False,
    shards: int = 1,
) -> dict:
    """Expand, digest, and partition one figure sweep into a plan."""
    if shards < 1:
        raise StoreError(f"shards must be >= 1: {shards}")
    config = sweep_config(quick)
    cells = figure_cells(figure, config, quick)
    specs = expand_runs(cells)
    runs = []
    for spec in specs:
        digest = run_identity(spec)
        runs.append(
            {
                "digest": digest,
                "shard": shard_of(digest, shards),
                "cell_index": spec.cell_index,
                "seed_index": spec.seed_index,
                "seed": spec.seed,
                "label": spec.cell.describe(),
            }
        )
    return {
        "schema": SWEEP_SCHEMA,
        "store_schema": STORE_SCHEMA,
        "sim_code": sim_code_fingerprint(),
        "figure": figure,
        "quick": quick,
        "shards": shards,
        "total_runs": len(runs),
        "runs": runs,
    }


def validate_plan(payload: object, what: str = "sweep plan") -> dict:
    """Check a plan document's shape; returns it on success.

    Args:
        what: how error messages name the document (loaders add the
            file path).

    Raises:
        StoreError: on schema drift or a structurally invalid plan.
    """
    check_schema(payload, SWEEP_SCHEMA, StoreError, what)
    figure = payload.get("figure")
    if figure not in FIGURE_MODULES:
        raise StoreError(f"sweep plan names unknown figure {figure!r}")
    quick = payload.get("quick")
    if not isinstance(quick, bool):
        raise StoreError(f"sweep plan quick must be a boolean: {quick!r}")
    shards = payload.get("shards")
    if not isinstance(shards, int) or shards < 1:
        raise StoreError(f"sweep plan shards must be >= 1: {shards!r}")
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        raise StoreError("sweep plan has no runs")
    for index, run in enumerate(runs):
        if not isinstance(run, dict):
            raise StoreError(f"sweep plan run #{index} is not an object")
        digest = run.get("digest")
        if not isinstance(digest, str) or not digest:
            raise StoreError(
                f"sweep plan run #{index} has no digest"
            )
        shard = run.get("shard")
        if not isinstance(shard, int) or not 0 <= shard < shards:
            raise StoreError(
                f"sweep plan run #{index} shard {shard!r} outside "
                f"[0, {shards})"
            )
    return payload


def load_plan(path: str | Path) -> dict:
    """Read and validate a plan written by ``repro sweep plan``."""
    return validate_plan(
        read_json(path, StoreError, "sweep plan"), f"sweep plan {path}"
    )


def _rebuild_specs(plan: dict) -> dict[str, RunSpec]:
    """Re-expand the plan's sweep and index the specs by digest.

    Raises:
        StoreError: when the rebuilt sweep does not produce the
            digests the plan expects — the plan was built by a
            different code version (or different defaults) and running
            it here would silently compute a *different* sweep.
    """
    config = sweep_config(plan["quick"])
    cells = figure_cells(plan["figure"], config, plan["quick"])
    specs = {
        run_identity(spec): spec for spec in expand_runs(cells)
    }
    planned = {run["digest"] for run in plan["runs"]}
    missing = planned - set(specs)
    if missing:
        sample = ", ".join(list(sorted(missing))[:3])
        raise StoreError(
            f"sweep plan is stale: {len(missing)} of "
            f"{len(planned)} planned runs do not exist in this "
            f"code version (e.g. {sample}); regenerate the plan with "
            f"'repro sweep plan'"
        )
    if len(specs) != len(planned):
        raise StoreError(
            f"sweep plan is stale: this code version expands the "
            f"sweep to {len(specs)} runs, the plan recorded "
            f"{len(planned)}; regenerate the plan"
        )
    return specs


@dataclass(frozen=True, slots=True)
class ShardReport:
    """What running one shard accomplished.

    Attributes:
        shard: the shard index that ran.
        shards: total shards in the plan.
        runs: runs belonging to this shard.
        computed: runs executed here and committed to the store.
        cached: runs already present in the store (a resumed shard).
    """

    shard: int
    shards: int
    runs: int
    computed: int
    cached: int


def run_shard(
    plan: dict,
    shard: int,
    store: ResultStore,
    jobs: int | None = 1,
    progress: SweepProgress | None = None,
    ops: bool = True,
) -> ShardReport:
    """Execute one shard of a plan into a result store.

    With ``ops`` (the default) the shard writes wall-clock telemetry
    next to the store: a ``repro.ops/1`` span log (one ``shard`` root
    span over per-run ``cell-run`` and ``store-commit`` spans) and an
    atomically-rewritten heartbeat that ``repro sweep status`` reads.
    Telemetry never influences results — the merged figure is
    byte-identical either way.

    Raises:
        StoreError: invalid shard index or a stale plan.
        SweepError: when any of the shard's runs failed.
    """
    shards = plan["shards"]
    if not 0 <= shard < shards:
        raise StoreError(
            f"shard must be in [0, {shards}): {shard}"
        )
    specs_by_digest = _rebuild_specs(plan)
    selected = [
        specs_by_digest[run["digest"]]
        for run in plan["runs"]
        if run["shard"] == shard
    ]
    selected.sort(key=lambda spec: (spec.cell_index, spec.seed_index))
    ops_log = (
        OpsLog(shard_ops_path(store.root, shard)) if ops else NULL_OPS
    )
    heartbeat = (
        ShardHeartbeat(
            heartbeat_path(store.root, shard),
            shard=shard,
            shards=shards,
        )
        if ops
        else NULL_HEARTBEAT
    )
    store.ops = ops_log
    executor = SweepExecutor(
        jobs=jobs,
        progress=progress,
        store=store,
        ops=ops_log,
        heartbeat=heartbeat,
    )
    try:
        with ops_log.span(
            "shard",
            figure=plan["figure"],
            shard=shard,
            shards=shards,
            runs=len(selected),
        ) as span:
            outcomes = executor.map_runs(selected)
            span.attrs["cached"] = sum(
                1 for o in outcomes if o.cached
            )
            span.attrs["failed"] = sum(
                1 for o in outcomes if not o.ok
            )
    finally:
        ops_log.close()
    failures = [o for o in outcomes if not o.ok]
    if failures:
        from ..errors import SweepError

        detail = "; ".join(
            f"{o.label} (seed {o.seed}): {o.error}" for o in failures
        )
        raise SweepError(
            f"{len(failures)} of {len(outcomes)} shard runs "
            f"failed: {detail}"
        )
    cached = sum(1 for o in outcomes if o.cached)
    return ShardReport(
        shard=shard,
        shards=shards,
        runs=len(outcomes),
        computed=len(outcomes) - cached,
        cached=cached,
    )


@dataclass(frozen=True, slots=True)
class MergeReport:
    """What merging a plan produced.

    Attributes:
        result: the final figure, byte-identical to a single-machine
            run of the same sweep.
        precision: table precision for rendering.
        absorbed: entries copied in from shard stores.
        runs: total runs of the sweep.
        cached: runs served from the merged store.
        computed: runs the merge had to compute (missing shards —
            merge doubles as resume).
    """

    result: FigureResult
    precision: int
    absorbed: int
    runs: int
    cached: int
    computed: int


def merge_plan(
    plan: dict,
    store: ResultStore,
    sources: Sequence[str | Path] = (),
    jobs: int | None = 1,
    progress: SweepProgress | None = None,
    ops: bool = True,
) -> MergeReport:
    """Merge shard stores and produce the plan's final figure.

    With ``ops`` (the default) the merge writes its own span log next
    to the target store: one ``merge`` root span over per-source
    ``store-absorb`` spans and the replay's ``cell-run`` spans (all
    cache hits when every shard ran; computed otherwise).
    """
    _rebuild_specs(plan)  # fail fast on a stale plan
    ops_log = OpsLog(merge_ops_path(store.root)) if ops else NULL_OPS
    store.ops = ops_log
    executor = SweepExecutor(
        jobs=jobs, progress=progress, store=store, ops=ops_log
    )
    config = sweep_config(plan["quick"])
    module = FIGURE_MODULES[plan["figure"]]
    try:
        with ops_log.span(
            "merge",
            figure=plan["figure"],
            shards=plan["shards"],
            sources=len(list(sources)),
        ) as span:
            absorbed = 0
            for source in sources:
                absorbed += store.absorb(source)
            span.attrs["absorbed"] = absorbed
            if plan["quick"]:
                result = module.run(
                    config,
                    bandwidths_kb=QUICK_BANDWIDTHS_KB,
                    executor=executor,
                )
            else:
                result = module.run(config, executor=executor)
    finally:
        ops_log.close()
    stats = executor.stats
    return MergeReport(
        result=result,
        precision=FIGURE_PRECISION[plan["figure"]],
        absorbed=absorbed,
        runs=stats.runs,
        cached=stats.runs_cached,
        computed=stats.runs - stats.runs_cached,
    )

"""The sweep executor: fan independent swarm runs out over processes.

The paper's evaluation is a grid of independent runs (technique x
bandwidth x policy x seed), which :class:`SweepExecutor` executes at a
configurable worker count:

* ``jobs=1`` (or a tracing context) — the pure in-process path:
  every run executes in the caller's process against the caller's
  observability context, byte-for-byte the behaviour of the old serial
  loops.
* ``jobs>1`` — runs are pickled to a ``ProcessPoolExecutor``;
  completion order is whatever the machine gives, but outcomes are
  merged in (cell, seed) order, so results — including the reduced
  metrics registry — are identical to the serial path.

Worker crashes never kill a sweep: each failed run comes back as a
failed :class:`~repro.parallel.worker.RunOutcome` naming its cell, and
:meth:`SweepExecutor.run_cells` raises one :class:`SweepError` listing
every failure after the surviving runs completed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import ExperimentError, SweepError
from ..experiments.runner import CellResult, merge_cell
from ..obs.analyze import analyze_observability
from ..obs.context import Observability
from ..obs.ops import NULL_HEARTBEAT, NULL_OPS, OpsLog, ShardHeartbeat
from .progress import NULL_PROGRESS, SweepProgress
from .snapshot import merge_snapshot
from .spec import CellSpec, RunSpec
from .store import ResultStore
from .worker import RunOutcome, execute_run, pool_entry

#: Environment variable overriding the auto-detected worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs() -> int:
    """Resolve the worker count: ``REPRO_JOBS`` env var, else cores.

    Core detection prefers the scheduling affinity mask (what a
    container is actually allowed to use) over the raw core count.
    """
    env = os.environ.get(JOBS_ENV_VAR, "").strip()
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ExperimentError(
                f"{JOBS_ENV_VAR} must be a positive integer: {env!r}"
            ) from None
        if jobs < 1:
            raise ExperimentError(
                f"{JOBS_ENV_VAR} must be >= 1: {jobs}"
            )
        return jobs
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True, slots=True)
class SweepStats:
    """Cumulative totals across everything an executor has run.

    ``events_fired``/``sim_seconds`` count work *this* executor
    actually performed: runs served from the result store contribute
    to ``runs``/``runs_cached`` but fired no events now, so a fully
    warm sweep reports zero events.

    Attributes:
        runs: swarm runs completed, failed, or served from the store.
        failures: runs that failed.
        runs_cached: runs served from the result store.
        cells_cached: cells whose every seed run was a store hit
            (maintained by :meth:`SweepExecutor.run_cells`).
        cells_computed: cells where at least one run was computed.
        events_fired: simulator callbacks executed across all runs.
        sim_seconds: simulated seconds covered across all runs.
    """

    runs: int = 0
    failures: int = 0
    runs_cached: int = 0
    cells_cached: int = 0
    cells_computed: int = 0
    events_fired: int = 0
    sim_seconds: float = 0.0


class SweepExecutor:
    """Execute independent swarm runs at a configurable worker count.

    Args:
        jobs: worker processes; ``None`` auto-detects via
            :func:`default_jobs`.  ``1`` never creates a pool.
        timeout: optional wall-clock deadline in seconds for one
            parallel sweep; runs still unfinished at the deadline are
            reported as failed outcomes naming their cell (best
            effort: already-running workers are abandoned, not
            killed).
        progress: optional live progress reporter, notified once per
            finished run in completion order.  Display only: it never
            influences results, and it silences itself when its stream
            is not a TTY.
        store: optional persistent result store.  Runs whose content
            digest is already committed are served from disk (and
            reported with ``cached=True``); fresh successful runs are
            committed as they finish, making interrupted sweeps
            resumable.  Ignored for traced sweeps, which must execute
            live (see :mod:`repro.parallel.store`).
        ops: optional wall-clock span log
            (:class:`~repro.obs.ops.OpsLog`); one ``cell-run`` span
            is emitted per settled run, in completion order, under
            whatever span the caller holds open.  Telemetry only: it
            never influences results.
        heartbeat: optional shard heartbeat
            (:class:`~repro.obs.ops.ShardHeartbeat`), begun/updated/
            finished around each :meth:`map_runs` like the progress
            reporter.
    """

    def __init__(
        self,
        jobs: int | None = None,
        timeout: float | None = None,
        progress: SweepProgress | None = None,
        store: ResultStore | None = None,
        ops: OpsLog | None = None,
        heartbeat: ShardHeartbeat | None = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ExperimentError(f"jobs must be >= 1: {jobs}")
        if timeout is not None and timeout <= 0:
            raise ExperimentError(
                f"timeout must be positive: {timeout}"
            )
        self.jobs = jobs if jobs is not None else default_jobs()
        self.timeout = timeout
        self.progress = progress if progress is not None else NULL_PROGRESS
        self.store = store
        self.ops = ops if ops is not None else NULL_OPS
        self.heartbeat = (
            heartbeat if heartbeat is not None else NULL_HEARTBEAT
        )
        self._stats = SweepStats()

    @property
    def stats(self) -> SweepStats:
        """Cumulative totals across every sweep this executor ran."""
        return self._stats

    def map_runs(
        self,
        specs: Sequence[RunSpec],
        obs: Observability | None = None,
        analyze: bool = False,
    ) -> list[RunOutcome]:
        """Execute runs and return outcomes in (cell, seed) order.

        The in-process path (``jobs=1``, or ``obs`` with tracing
        enabled — a trace must stay on one clock in one process) runs
        specs sequentially against ``obs`` itself and propagates
        exceptions exactly like the serial loops did.  The pool path
        isolates failures into the returned outcomes and, when ``obs``
        is given, reduces each worker's metrics snapshot into
        ``obs.registry`` in deterministic order.

        When a :class:`~repro.parallel.store.ResultStore` is attached,
        each spec is first looked up by content digest: hits skip
        execution entirely (their stored outcome, with its metrics
        snapshot when the sweep is observed, joins the deterministic
        merge), and fresh successful runs are committed to the store
        as they finish.  Traced sweeps bypass the store — a trace must
        be recorded live.

        Args:
            analyze: trace every run into a private ring buffer and
                attach a :class:`~repro.obs.analyze.RunAnalysis` to
                its outcome.  Each analysis is computed from that
                run's own trace where the run executed, so verdicts
                are identical at any worker count.
        """
        specs = list(specs)
        tracing = obs is not None and obs.tracing_enabled
        store = self.store if not tracing else None
        in_process = self.jobs == 1 or tracing
        progress = self.progress
        progress.begin(specs)
        self.heartbeat.begin(len(specs))
        crashed = True
        try:
            cached: list[RunOutcome] = []
            pending: list[RunSpec] = []
            invalid_before = (
                store.stats.invalidations if store is not None else 0
            )
            if store is None:
                pending = specs
            else:
                for spec in specs:
                    hit = store.get(
                        spec,
                        need_metrics=obs is not None,
                        need_analysis=analyze,
                    )
                    if hit is None:
                        pending.append(spec)
                    else:
                        cached.append(hit)
                        self._observe(hit)
            if in_process:
                fresh = self._map_in_process(
                    pending, obs, analyze=analyze, store=store
                )
            else:
                fresh = self._map_pool(
                    pending,
                    collect=obs is not None,
                    analyze=analyze,
                    store=store,
                )
            outcomes = cached + fresh
            outcomes.sort(key=lambda o: (o.cell_index, o.seed_index))
            if obs is not None:
                for outcome in outcomes:
                    if outcome.metrics is not None:
                        merge_snapshot(obs.registry, outcome.metrics)
            crashed = False
        finally:
            progress.finish()
            self.heartbeat.finish("failed" if crashed else "done")
        if store is not None and obs is not None:
            self._publish_store_counters(
                obs,
                outcomes,
                store.stats.invalidations - invalid_before,
            )
        self._account(outcomes)
        return outcomes

    def _observe(self, outcome: RunOutcome) -> None:
        """One settled run: notify progress, ops log, and heartbeat.

        Called in completion order (non-deterministic on the pool
        path), which is fine: all three sinks are display/telemetry,
        never data.  A cached hit's ``wall_seconds`` reports the
        *original* compute cost, so its span here has zero duration —
        serving it cost no wall time now.
        """
        self.progress.update(outcome)
        if self.ops.enabled:
            attrs = {
                "cell": outcome.label,
                "seed": outcome.seed,
                "cached": outcome.cached,
                "pid": outcome.pid,
            }
            if outcome.error is not None:
                attrs["error"] = outcome.error
            self.ops.record(
                "cell-run",
                duration_s=(
                    0.0 if outcome.cached else outcome.wall_seconds
                ),
                status="ok" if outcome.ok else "failed",
                **attrs,
            )
        self.heartbeat.update(outcome)

    def _map_in_process(
        self,
        specs: list[RunSpec],
        obs: Observability | None,
        analyze: bool,
        store: ResultStore | None,
    ) -> list[RunOutcome]:
        """The sequential path, with or without store commits.

        Without a store this is byte-for-byte the old serial loop:
        runs record straight into ``obs`` and exceptions propagate.
        With a store, runs adopt the pool's semantics instead —
        private registry reduced via snapshots, failures folded into
        outcomes — because a committed entry must be self-contained
        (usable by a later pooled sweep) and a crash mid-sweep must
        leave every finished run safely on disk.
        """
        outcomes: list[RunOutcome] = []
        for spec in specs:
            if store is not None:
                outcome = pool_entry(
                    replace(
                        spec,
                        collect_metrics=obs is not None,
                        collect_analysis=analyze,
                    )
                )
                if outcome.ok:
                    store.put(spec, outcome)
            else:
                spec = replace(spec, collect_metrics=False)
                if analyze:
                    outcome = self._run_analyzed(spec, obs)
                else:
                    outcome = execute_run(spec, obs)
            self._observe(outcome)
            outcomes.append(outcome)
        return outcomes

    @staticmethod
    def _publish_store_counters(
        obs: Observability,
        outcomes: list[RunOutcome],
        invalidations: int,
    ) -> None:
        """Surface store traffic as ``parallel.cache.store.*``.

        Hits/misses/stores are counted from the sweep's own outcomes,
        so the numbers reflect this sweep regardless of how much other
        traffic the store object saw; invalidations (entries found but
        rejected — schema drift, corruption) come from the store's
        delta over the sweep.
        """
        hits = sum(1 for o in outcomes if o.cached)
        misses = len(outcomes) - hits
        registry = obs.registry
        if hits:
            registry.counter("parallel.cache.store.hits").inc(hits)
        if misses:
            registry.counter("parallel.cache.store.misses").inc(misses)
        stored = sum(1 for o in outcomes if o.ok and not o.cached)
        if stored:
            registry.counter("parallel.cache.store.stores").inc(stored)
        if invalidations:
            registry.counter(
                "parallel.cache.store.invalidations"
            ).inc(invalidations)

    @staticmethod
    def _run_analyzed(
        spec: RunSpec, obs: Observability | None
    ) -> RunOutcome:
        """In-process analyzed run: private trace, shared registry.

        The run records into a fresh tracer configured exactly like
        the pool workers' (:meth:`Observability.tracing`), while
        metrics still accumulate into the caller's registry.  When the
        caller's own tracer is live, the run's events are replayed
        into it afterwards so an analyzing sweep still fills the
        caller's trace.
        """
        run_obs = Observability.tracing()
        if obs is not None:
            run_obs.registry = obs.registry
        outcome = execute_run(spec, run_obs)
        outcome = replace(
            outcome, analysis=analyze_observability(run_obs)
        )
        if obs is not None and obs.tracer.enabled:
            for event in run_obs.events():
                obs.tracer.emit(event)
        return outcome

    def _map_pool(
        self,
        specs: list[RunSpec],
        collect: bool,
        analyze: bool = False,
        store: ResultStore | None = None,
    ) -> list[RunOutcome]:
        if not specs:
            return []
        workers = max(1, min(self.jobs, len(specs)))
        pool = ProcessPoolExecutor(max_workers=workers)
        timed_out = False
        outcomes: list[RunOutcome] = []
        try:
            futures = {
                pool.submit(
                    pool_entry,
                    replace(
                        spec,
                        collect_metrics=collect,
                        collect_analysis=analyze,
                    ),
                ): spec
                for spec in specs
            }
            yielded: set = set()
            try:
                # Consume in completion order so the progress reporter
                # sees runs as workers finish; determinism comes from
                # the caller's (cell, seed) sort afterwards.
                for future in as_completed(
                    futures, timeout=self.timeout
                ):
                    yielded.add(future)
                    outcome = self._settle(future, futures[future])
                    if store is not None and outcome.ok:
                        # Commit as workers finish, not at sweep end:
                        # this is what makes an interrupted sweep
                        # resumable from the store.
                        store.put(futures[future], outcome)
                    outcomes.append(outcome)
                    self._observe(outcome)
            except FuturesTimeout:
                timed_out = True
                for future, spec in futures.items():
                    if future in yielded:
                        continue
                    if future.done():
                        outcomes.append(self._settle(future, spec))
                        continue
                    future.cancel()
                    outcomes.append(
                        self._failed(
                            spec,
                            f"TimeoutError: sweep deadline "
                            f"({self.timeout}s) exceeded",
                        )
                    )
        finally:
            pool.shutdown(wait=not timed_out, cancel_futures=True)
        return outcomes

    def _settle(self, future, spec: RunSpec) -> RunOutcome:
        try:
            return future.result()
        except BaseException as exc:  # noqa: BLE001
            # A worker died hard (e.g. the pool broke) or the outcome
            # failed to unpickle; blame the run, keep the sweep.
            return self._failed(spec, f"{type(exc).__name__}: {exc}")

    @staticmethod
    def _failed(spec: RunSpec, error: str) -> RunOutcome:
        return RunOutcome(
            cell_index=spec.cell_index,
            seed_index=spec.seed_index,
            seed=spec.seed,
            label=spec.cell.describe(),
            error=error,
            pid=os.getpid(),
        )

    def _account(self, outcomes: list[RunOutcome]) -> None:
        stats = self._stats
        runs = stats.runs
        failures = stats.failures
        runs_cached = stats.runs_cached
        events = stats.events_fired
        sim_seconds = stats.sim_seconds
        for outcome in outcomes:
            runs += 1
            if not outcome.ok:
                failures += 1
            elif outcome.cached:
                # A store hit performed no simulation now; its events
                # belong to the run that originally computed it.
                runs_cached += 1
            else:
                events += outcome.stats.events_fired
                sim_seconds += outcome.stats.end_time
        self._stats = replace(
            stats,
            runs=runs,
            failures=failures,
            runs_cached=runs_cached,
            events_fired=events,
            sim_seconds=sim_seconds,
        )

    def run_cells(
        self,
        cells: Sequence[CellSpec],
        obs: Observability | None = None,
        analyze: bool = False,
    ) -> list[CellResult]:
        """Run every seed of every cell; merge to cells in input order.

        Args:
            cells: the sweep, one spec per experimental cell.
            obs: optional observability context (see :meth:`map_runs`).
            analyze: also trace + diagnose every run and attach the
                merged :class:`~repro.obs.analyze.CellAnalysis` to
                each cell's result.

        Returns:
            One seed-averaged :class:`CellResult` per input cell, in
            input order, numerically identical at any worker count.

        Raises:
            SweepError: when any run failed on the pool path; the
                message lists every failing (cell, seed).
        """
        cells = list(cells)
        specs = [
            RunSpec(
                cell=cell,
                seed=seed,
                cell_index=cell_index,
                seed_index=seed_index,
            )
            for cell_index, cell in enumerate(cells)
            for seed_index, seed in enumerate(cell.config.seeds)
        ]
        outcomes = self.map_runs(specs, obs=obs, analyze=analyze)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            detail = "; ".join(
                f"{o.label} (seed {o.seed}): {o.error}"
                for o in failures
            )
            raise SweepError(
                f"{len(failures)} of {len(outcomes)} sweep runs "
                f"failed: {detail}"
            )
        results: list[CellResult] = []
        position = 0
        cells_cached = 0
        cells_computed = 0
        for cell in cells:
            count = len(cell.config.seeds)
            group = outcomes[position : position + count]
            position += count
            if all(o.cached for o in group):
                cells_cached += 1
            else:
                cells_computed += 1
            analyses = [
                o.analysis for o in group if o.analysis is not None
            ]
            results.append(
                merge_cell(
                    cell.bandwidth_kb,
                    [o.stats for o in group],
                    analyses=analyses if analyze else None,
                )
            )
        self._stats = replace(
            self._stats,
            cells_cached=self._stats.cells_cached + cells_cached,
            cells_computed=self._stats.cells_computed + cells_computed,
        )
        return results

"""Persistent, content-addressed cache of sweep run results.

A sweep cell is a pure function of its spec: the same
:class:`~repro.parallel.spec.CellSpec` and seed always produce the
same :class:`~repro.experiments.runner.SeedStats`.  PR 6's canonical
JSON :func:`~repro.parallel.digest.content_digest` turns that purity
into an *identity* — two processes, two machines, or two weeks compute
the same digest for the same spec — and this module turns the identity
into a disk cache:

* **warm re-runs**: re-running a sweep only computes cells whose spec
  changed; unchanged cells are disk hits whose merged results are
  byte-identical at any ``--jobs`` count (the cached object *is* the
  :class:`~repro.parallel.worker.RunOutcome` the original run
  produced);
* **resumability**: the executor commits each successful run as it
  finishes, so an interrupted sweep re-run against the same store
  picks up exactly where it left off;
* **sharding**: stores are plain directories of digest-named files —
  any shard of a sweep can run on any machine and the shard stores
  merge by file union (``repro sweep merge``).

Keys incorporate :data:`STORE_SCHEMA` so a format change never
misreads old entries: bump the version and every old entry simply
misses (see ``docs/OBSERVABILITY.md`` for the schema-version policy).
Keys also incorporate :func:`sim_code_fingerprint`, a digest of the
simulation source, so an edit to the code that computes results misses
the cache instead of being served results the old code produced.

What is *not* cached: traced runs (a trace must be recorded live, on
one clock, in one process) and profiled runs (an engine profile
measures *this* machine executing — a cache hit has no host time).
The executor bypasses the store for both.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import StoreError
from ..jsonio import replace_atomically
from ..obs.ops import NULL_OPS, OpsLog
from .digest import content_digest
from .spec import RunSpec
from .worker import RunOutcome

#: Version tag of the result-store entry layout.  Bump the integer on
#: any change to what an entry contains or how it is keyed; old
#: entries then miss instead of being misread (the policy mirrors
#: ``repro.bench/1``, see ``docs/OBSERVABILITY.md``).
STORE_SCHEMA = "repro.store/1"

#: Environment variable naming a default store directory.
STORE_ENV_VAR = "REPRO_STORE"

#: Default store directory (relative to the working directory).
DEFAULT_STORE_DIR = ".repro-store"


def source_digest(root: Path) -> str:
    """sha256 over every ``.py`` file under ``root``.

    Files are taken in sorted path order and each contributes its
    root-relative path, its length and its bytes, so renaming, moving
    or editing any file changes the digest.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(root).as_posix()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def sim_code_fingerprint() -> str:
    """Digest of the whole ``repro`` source, computed once per process.

    The whole package, not a hand-kept list of simulation layers: a
    result depends on shared helpers (``repro.units``,
    ``repro.bwest``), on analysis rules cached inside entries
    (``repro.obs.causes``), and on the layout of the pickled
    dataclasses an entry holds, which live outside the simulator.
    """
    return source_digest(Path(__file__).resolve().parents[1])


def run_identity(spec: RunSpec, schema: str = STORE_SCHEMA) -> str:
    """The content digest that *is* a run's cache identity.

    Only what determines the simulation's output participates: the
    code that simulates (:func:`sim_code_fingerprint`), the cell spec
    (technique, bandwidth, config — including fidelity, seeds, churn
    —, policy, video identity) and the run's seed.  The executor-side
    merge keys (``cell_index``/``seed_index``) and the observability
    collection flags do not: the same run requested by two different
    sweeps, or with different instrumentation, is still the same run.
    """
    return content_digest(
        (schema, sim_code_fingerprint(), spec.cell, spec.seed)
    )


@dataclass(frozen=True, slots=True)
class StoreStats:
    """Cumulative cache traffic of one :class:`ResultStore` instance.

    Attributes:
        hits: lookups served from disk.
        misses: lookups that found no usable entry (including entries
            lacking a component the caller needs, e.g. a metrics
            snapshot).
        stores: entries committed.
        invalidations: entries found but rejected — schema mismatch,
            digest mismatch, or a corrupt/unreadable file.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0


class ResultStore:
    """A directory of :class:`RunOutcome` entries keyed by content.

    Layout: ``<root>/<k[:2]>/<k>.pkl`` where ``k`` is
    :func:`run_identity` of the run.  Entries are committed atomically
    (:func:`~repro.jsonio.replace_atomically`), so concurrent writers — pool
    workers, parallel shards on a shared filesystem — can only ever
    race to write equivalent entries, never corrupt one.

    Args:
        root: store directory; created on first commit.
        schema: entry-layout version (tests inject a fake one to
            exercise invalidation); everything else should use the
            default :data:`STORE_SCHEMA`.
        ops: optional wall-clock span log; each commit emits a
            ``store-commit`` span and each :meth:`absorb` source a
            ``store-absorb`` span, parented under whatever span the
            orchestration layer holds open.  Also assignable after
            construction (the sweep service attaches its shard log).
    """

    def __init__(
        self,
        root: str | Path,
        schema: str = STORE_SCHEMA,
        ops: OpsLog | None = None,
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self.ops = ops if ops is not None else NULL_OPS
        self._stats = StoreStats()

    @property
    def stats(self) -> StoreStats:
        """Cumulative hit/miss/store/invalidation totals."""
        return self._stats

    def run_key(self, spec: RunSpec) -> str:
        """The run's cache key (see :func:`run_identity`)."""
        return run_identity(spec, self.schema)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(
        self,
        spec: RunSpec,
        *,
        need_metrics: bool = False,
        need_analysis: bool = False,
    ) -> RunOutcome | None:
        """The cached outcome for ``spec``, or ``None`` on a miss.

        A returned outcome has ``cached=True`` and the *caller's*
        merge keys patched in, so it drops straight into the
        executor's deterministic (cell, seed) merge.

        Args:
            need_metrics: require a metrics snapshot in the entry (an
                observability-bearing sweep must reduce every run's
                counters, cached or not); entries without one miss.
            need_analysis: require a stall diagnosis in the entry;
                entries without one miss.
        """
        path = self._path(self.run_key(spec))
        try:
            payload = path.read_bytes()
        except OSError:
            self._count(misses=1)
            return None
        try:
            entry = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any corrupt entry misses
            self._count(misses=1, invalidations=1)
            return None
        outcome = self._validate(entry, self.run_key(spec))
        if outcome is None:
            self._count(misses=1, invalidations=1)
            return None
        if need_metrics and outcome.metrics is None:
            self._count(misses=1)
            return None
        if need_analysis and outcome.analysis is None:
            self._count(misses=1)
            return None
        self._count(hits=1)
        return replace(
            outcome,
            cell_index=spec.cell_index,
            seed_index=spec.seed_index,
            cached=True,
        )

    def _validate(self, entry: object, key: str) -> RunOutcome | None:
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != self.schema:
            return None
        if entry.get("key") != key:
            return None
        outcome = entry.get("outcome")
        if not isinstance(outcome, RunOutcome) or not outcome.ok:
            return None
        return outcome

    def put(self, spec: RunSpec, outcome: RunOutcome) -> None:
        """Commit one successful run's outcome.

        Failed outcomes are rejected (a crash is not a result), and
        the stored entry never carries an engine profile — host time
        is a property of the machine that ran, not of the run.
        """
        if not outcome.ok:
            raise StoreError(
                f"refusing to cache a failed run: {outcome.label!r} "
                f"({outcome.error})"
            )
        key = self.run_key(spec)
        entry = {
            "schema": self.schema,
            "key": key,
            "outcome": replace(outcome, profile=None, cached=False),
        }
        if self.ops.enabled:
            with self.ops.span(
                "store-commit",
                key=key,
                cell=outcome.label,
                seed=outcome.seed,
            ):
                self._commit(key, entry)
        else:
            self._commit(key, entry)
        self._count(stores=1)

    def _commit(self, key: str, entry: dict) -> None:
        replace_atomically(
            self._path(key),
            pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def keys(self) -> list[str]:
        """Every entry key in the store, sorted."""
        if not self.root.is_dir():
            return []
        found = [
            path.stem
            for path in self.root.glob("??/*.pkl")
        ]
        found.sort()
        return found

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in self.keys():
            try:
                self._path(key).unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def absorb(self, source: "ResultStore | str | Path") -> int:
        """Copy entries from ``source`` into this store (shard merge).

        Entries already present locally are kept (content-addressed
        keys make both copies equivalent).  Returns the number of
        entries copied.
        """
        other = (
            source
            if isinstance(source, ResultStore)
            else ResultStore(source, schema=self.schema)
        )
        if self.ops.enabled:
            with self.ops.span(
                "store-absorb", source=str(other.root)
            ) as span:
                copied = self._absorb(other)
                span.attrs["copied"] = copied
        else:
            copied = self._absorb(other)
        return copied

    def _absorb(self, other: "ResultStore") -> int:
        copied = 0
        for key in other.keys():
            target = self._path(key)
            if target.exists():
                continue
            replace_atomically(target, other._path(key).read_bytes())
            copied += 1
        return copied

    def _count(
        self,
        hits: int = 0,
        misses: int = 0,
        stores: int = 0,
        invalidations: int = 0,
    ) -> None:
        stats = self._stats
        self._stats = StoreStats(
            hits=stats.hits + hits,
            misses=stats.misses + misses,
            stores=stats.stores + stores,
            invalidations=stats.invalidations + invalidations,
        )


def default_store_root() -> Path:
    """The default store directory: ``$REPRO_STORE`` or
    ``.repro-store`` under the working directory."""
    env = os.environ.get(STORE_ENV_VAR, "").strip()
    return Path(env) if env else Path(DEFAULT_STORE_DIR)

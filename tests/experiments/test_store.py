"""Content-addressed result store: identity, parity, resumability.

The store's contract is threefold: (1) a run's cache key changes iff
something that determines the simulation's output changes, (2) a warm
sweep's merged results are byte-identical to the cold run at any
worker count, and (3) entries commit as runs finish, so an interrupted
sweep resumes from disk.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.policy import FixedPoolPolicy
from repro.errors import StoreError
from repro.experiments.config import ExperimentConfig
from repro.obs.context import Observability
from repro.parallel import (
    ResultStore,
    SplicerSpec,
    SweepExecutor,
    cell_for,
    run_identity,
)
from repro.parallel import store as store_module
from repro.parallel.spec import RunSpec


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(n_leechers=3, seeds=(5, 9), max_time=600.0)


def _cells(config, video):
    return [
        cell_for(SplicerSpec("gop"), 512, config, video=video,
                 label="store/gop @ 512"),
        cell_for(SplicerSpec("duration", 4.0), 256, config,
                 video=video, label="store/duration-4s @ 256"),
    ]


def _spec(config, video, **overrides):
    cell = cell_for(
        SplicerSpec("duration", 4.0), 256, config, video=video
    )
    if overrides:
        cell = replace(cell, **overrides)
    return RunSpec(cell=cell, seed=5, cell_index=0, seed_index=0)


class TestRunIdentity:
    def test_identity_is_stable(self, fast_config, short_video):
        a = run_identity(_spec(fast_config, short_video))
        b = run_identity(_spec(fast_config, short_video))
        assert a == b

    def test_merge_keys_do_not_participate(
        self, fast_config, short_video
    ):
        base = _spec(fast_config, short_video)
        moved = replace(base, cell_index=3, seed_index=1)
        flagged = replace(
            base, collect_metrics=True, collect_analysis=True
        )
        assert run_identity(moved) == run_identity(base)
        assert run_identity(flagged) == run_identity(base)

    def test_seed_changes_identity(self, fast_config, short_video):
        base = _spec(fast_config, short_video)
        reseeded = replace(base, seed=6)
        assert run_identity(reseeded) != run_identity(base)

    def test_splicer_param_changes_identity(
        self, fast_config, short_video
    ):
        base = _spec(fast_config, short_video)
        resliced = _spec(
            fast_config, short_video,
            splicer=SplicerSpec("duration", 8.0),
        )
        assert run_identity(resliced) != run_identity(base)

    def test_fidelity_changes_identity(
        self, fast_config, short_video
    ):
        base = _spec(fast_config, short_video)
        tiered = _spec(fast_config, short_video, fidelity="cohort")
        assert run_identity(tiered) != run_identity(base)

    def test_policy_changes_identity(self, fast_config, short_video):
        base = _spec(fast_config, short_video)
        pooled = _spec(
            fast_config, short_video, policy=FixedPoolPolicy(2)
        )
        assert run_identity(pooled) != run_identity(base)

    def test_schema_changes_identity(self, fast_config, short_video):
        base = _spec(fast_config, short_video)
        assert run_identity(base, schema="repro.store/999") != (
            run_identity(base)
        )


_IDENTITY_SCRIPT = """
from repro.experiments.config import ExperimentConfig
from repro.parallel import SplicerSpec, cell_for, run_identity
from repro.parallel.spec import RunSpec
from repro.parallel.store import sim_code_fingerprint

config = ExperimentConfig(n_leechers=3, seeds=(5,))
cell = cell_for(SplicerSpec("gop"), 512, config)
spec = RunSpec(cell=cell, seed=5, cell_index=0, seed_index=0)
print(sim_code_fingerprint(), run_identity(spec))
"""


def _other_fingerprint(monkeypatch):
    monkeypatch.setattr(
        store_module, "sim_code_fingerprint", lambda: "f" * 64
    )


class TestCodeFingerprint:
    def test_key_is_stable_across_processes(self):
        src = Path(store_module.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", _IDENTITY_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.split()
        config = ExperimentConfig(n_leechers=3, seeds=(5,))
        cell = cell_for(SplicerSpec("gop"), 512, config)
        spec = RunSpec(cell=cell, seed=5, cell_index=0, seed_index=0)
        assert out == [
            store_module.sim_code_fingerprint(),
            run_identity(spec),
        ]

    def test_fingerprint_changes_identity(
        self, fast_config, short_video, monkeypatch
    ):
        base = run_identity(_spec(fast_config, short_video))
        _other_fingerprint(monkeypatch)
        assert run_identity(_spec(fast_config, short_video)) != base

    def test_source_edit_changes_digest(self, tmp_path):
        package = tmp_path / "net"
        package.mkdir()
        module = package / "flownet.py"
        module.write_text("RATE = 1\n")
        packages = ("net",)
        before = store_module.source_digest(tmp_path, packages)
        assert store_module.source_digest(tmp_path, packages) == before
        module.write_text("RATE = 2\n")
        edited = store_module.source_digest(tmp_path, packages)
        assert edited != before
        module.rename(package / "solver.py")
        assert store_module.source_digest(tmp_path, packages) not in (
            before,
            edited,
        )

    def test_store_from_other_code_misses(
        self, fast_config, short_video, tmp_path, monkeypatch
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        cold = SweepExecutor(jobs=1, store=store).run_cells(cells)
        _other_fingerprint(monkeypatch)
        rerun = SweepExecutor(jobs=1, store=store)
        assert rerun.run_cells(cells) == cold
        assert rerun.stats.runs_cached == 0
        assert rerun.stats.cells_computed == len(cells)
        assert store.stats.hits == 0

    def test_plan_from_other_code_is_stale(self, tmp_path, monkeypatch):
        from repro.experiments.sweep_service import build_plan, run_shard

        _other_fingerprint(monkeypatch)
        plan = build_plan("2", quick=True)
        monkeypatch.undo()
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError, match="stale"):
            run_shard(plan, 0, store)
        assert len(store) == 0


class TestWarmSweep:
    def test_warm_rerun_hits_everything(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        cold = SweepExecutor(jobs=1, store=store).run_cells(cells)
        warm_exec = SweepExecutor(jobs=1, store=store)
        warm = warm_exec.run_cells(cells)
        assert warm == cold  # exact float equality
        stats = warm_exec.stats
        assert stats.runs_cached == stats.runs == 4
        assert stats.cells_cached == len(cells)
        assert stats.cells_computed == 0
        assert stats.events_fired == 0  # nothing was simulated

    def test_warm_hits_at_any_worker_count(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        cold = SweepExecutor(jobs=1, store=store).run_cells(cells)
        pooled_exec = SweepExecutor(jobs=4, store=store)
        pooled = pooled_exec.run_cells(cells)
        assert pooled == cold
        assert pooled_exec.stats.runs_cached == 4

    def test_cold_pooled_and_serial_fill_identical_stores(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        serial_store = ResultStore(tmp_path / "serial")
        pooled_store = ResultStore(tmp_path / "pooled")
        SweepExecutor(jobs=1, store=serial_store).run_cells(cells)
        SweepExecutor(jobs=4, store=pooled_store).run_cells(cells)
        assert serial_store.keys() == pooled_store.keys()

    def test_changed_cell_misses_unchanged_cells_hit(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        edited = [
            cells[0],
            cell_for(
                SplicerSpec("duration", 8.0), 256, fast_config,
                video=short_video,
                label="store/duration-8s @ 256",
            ),
        ]
        rerun = SweepExecutor(jobs=1, store=store)
        rerun.run_cells(edited)
        stats = rerun.stats
        assert stats.runs_cached == 2  # cells[0]'s two seeds
        assert stats.cells_cached == 1
        assert stats.cells_computed == 1


class TestResumability:
    def test_partial_store_resumes(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        # "Interrupted" sweep: only the first cell ever committed.
        SweepExecutor(jobs=1, store=store).run_cells(cells[:1])
        committed = len(store)
        resumed_exec = SweepExecutor(jobs=2, store=store)
        resumed = resumed_exec.run_cells(cells)
        stats = resumed_exec.stats
        assert stats.runs_cached == committed == 2
        assert stats.cells_cached == 1
        assert stats.cells_computed == 1
        cold = SweepExecutor(jobs=1).run_cells(cells)
        assert resumed == cold

    def test_commit_happens_per_run_not_per_sweep(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        # Both of the cell's seeds were committed individually.
        assert len(store) == 2


class TestComponentGating:
    def test_metrics_less_entry_misses_when_metrics_needed(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        obs = Observability.metrics_only()
        upgraded = SweepExecutor(jobs=1, store=store)
        upgraded.run_cells(cells, obs=obs)
        # Plain entries lack snapshots: the obs sweep recomputed...
        assert upgraded.stats.runs_cached == 0
        # ...and upgraded the entries, so a second obs sweep hits.
        second = SweepExecutor(jobs=1, store=store)
        second.run_cells(cells, obs=Observability.metrics_only())
        assert second.stats.runs_cached == 2

    def test_upgraded_entries_still_serve_plain_sweeps(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(
            cells, obs=Observability.metrics_only()
        )
        plain = SweepExecutor(jobs=1, store=store)
        plain.run_cells(cells)
        assert plain.stats.runs_cached == 2


class TestInvalidation:
    def test_schema_bump_orphans_old_entries(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        old = ResultStore(tmp_path / "store", schema="repro.store/0")
        SweepExecutor(jobs=1, store=old).run_cells(cells)
        # Same directory, current schema: the schema participates in
        # the key, so every old entry simply misses (different path).
        new = ResultStore(tmp_path / "store")
        rerun = SweepExecutor(jobs=1, store=new)
        rerun.run_cells(cells)
        assert rerun.stats.runs_cached == 0
        assert new.stats.misses == 2
        assert new.stats.stores == 2

    def test_schema_mismatch_inside_entry_invalidates(
        self, fast_config, short_video, tmp_path
    ):
        cell = _cells(fast_config, short_video)[1]
        spec = RunSpec(cell=cell, seed=5, cell_index=0, seed_index=0)
        old = ResultStore(tmp_path / "store", schema="repro.store/0")
        SweepExecutor(jobs=1, store=old).run_cells([cell])
        old_key = old.run_key(spec)
        new = ResultStore(tmp_path / "store")
        new_key = new.run_key(spec)
        # Plant the old-schema entry where the new schema looks.
        source = tmp_path / "store" / old_key[:2] / f"{old_key}.pkl"
        target = tmp_path / "store" / new_key[:2] / f"{new_key}.pkl"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert new.get(spec) is None
        assert new.stats.invalidations == 1

    def test_corrupt_entry_invalidates(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        for key in store.keys():
            (tmp_path / "store" / key[:2] / f"{key}.pkl").write_bytes(
                b"not a pickle"
            )
        rerun = SweepExecutor(jobs=1, store=store)
        outcome = rerun.run_cells(cells)
        assert rerun.stats.runs_cached == 0
        assert store.stats.invalidations == 2
        assert outcome  # recomputed fine

    def test_wrong_key_entry_invalidates(
        self, fast_config, short_video, tmp_path
    ):
        cell = _cells(fast_config, short_video)[0]
        spec_a = RunSpec(
            cell=cell, seed=5, cell_index=0, seed_index=0
        )
        spec_b = RunSpec(
            cell=cell, seed=9, cell_index=0, seed_index=1
        )
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells([cell])
        key_a = store.run_key(spec_a)
        key_b = store.run_key(spec_b)
        path_a = tmp_path / "store" / key_a[:2] / f"{key_a}.pkl"
        path_b = tmp_path / "store" / key_b[:2] / f"{key_b}.pkl"
        # Splice one run's entry under the other's key.
        path_a.parent.mkdir(parents=True, exist_ok=True)
        path_a.write_bytes(path_b.read_bytes())
        before = store.stats.invalidations
        assert store.get(spec_a) is None
        assert store.stats.invalidations == before + 1


class TestStoreApi:
    def test_put_rejects_failed_outcome(
        self, fast_config, short_video, tmp_path
    ):
        from repro.parallel.worker import RunOutcome

        store = ResultStore(tmp_path / "store")
        failed = RunOutcome(
            cell_index=0, seed_index=0, seed=5, label="x",
            error="boom",
        )
        with pytest.raises(StoreError):
            store.put(_spec(fast_config, short_video), failed)

    def test_entries_never_carry_profiles(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        for key in store.keys():
            raw = (
                tmp_path / "store" / key[:2] / f"{key}.pkl"
            ).read_bytes()
            entry = pickle.loads(raw)
            assert entry["outcome"].profile is None
            assert entry["outcome"].cached is False

    def test_absorb_unions_stores(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        SweepExecutor(jobs=1, store=left).run_cells(cells[:1])
        SweepExecutor(jobs=1, store=right).run_cells(cells[1:])
        merged = ResultStore(tmp_path / "merged")
        assert merged.absorb(left) == 2
        assert merged.absorb(right) == 2
        assert merged.absorb(left) == 0  # already present
        assert len(merged) == 4
        warm = SweepExecutor(jobs=1, store=merged)
        warm.run_cells(cells)
        assert warm.stats.runs_cached == 4

    def test_clear_empties_the_store(
        self, fast_config, short_video, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(
            _cells(fast_config, short_video)[:1]
        )
        assert store.clear() == 2
        assert len(store) == 0


class TestStoreCounters:
    def test_store_traffic_reaches_obs_registry(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        cold_obs = Observability.metrics_only()
        SweepExecutor(jobs=1, store=store).run_cells(
            cells, obs=cold_obs
        )
        cold = {
            name: counter.value
            for name, counter
            in cold_obs.registry.counters().items()
        }
        assert cold["parallel.cache.store.misses"] == 2
        assert cold["parallel.cache.store.stores"] == 2
        # Zero-valued counters are never materialized.
        assert cold.get("parallel.cache.store.hits", 0) == 0
        warm_obs = Observability.metrics_only()
        SweepExecutor(jobs=1, store=store).run_cells(
            cells, obs=warm_obs
        )
        warm = {
            name: counter.value
            for name, counter
            in warm_obs.registry.counters().items()
        }
        assert warm["parallel.cache.store.hits"] == 2
        assert warm.get("parallel.cache.store.misses", 0) == 0
        assert warm.get("parallel.cache.store.stores", 0) == 0

    def test_no_store_no_store_counters(
        self, fast_config, short_video
    ):
        cells = _cells(fast_config, short_video)[:1]
        obs = Observability.metrics_only()
        SweepExecutor(jobs=1).run_cells(cells, obs=obs)
        names = set(obs.registry.counters())
        assert not any(
            name.startswith("parallel.cache.store.")
            for name in names
        )

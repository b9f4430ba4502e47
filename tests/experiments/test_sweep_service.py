"""Sharded sweep service: plan determinism, partition, merge parity.

The protocol's guarantee: K shards run anywhere, at any worker count,
and the merged figure is byte-identical to a single-machine run —
because the plan's content digests pin the exact sweep and the merged
store serves the original per-run outcomes.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import StoreError
from repro.experiments import fig2, sweep_service
from repro.experiments.report import format_figure
from repro.experiments.sweep_service import (
    SWEEP_SCHEMA,
    build_plan,
    load_plan,
    merge_plan,
    run_shard,
    shard_of,
    validate_plan,
)
from repro.jsonio import write_json
from repro.obs.ops import (
    OPS_SCHEMA,
    fleet_status,
    heartbeat_path,
    load_ops,
    merge_ops_path,
    ops_root,
    read_heartbeat,
    shard_ops_path,
)
from repro.parallel import ResultStore, SweepExecutor


@pytest.fixture(scope="module")
def quick_plan():
    return build_plan("2", quick=True, shards=3)


class TestPlan:
    def test_plan_is_deterministic(self, quick_plan):
        again = build_plan("2", quick=True, shards=3)
        assert again == quick_plan

    def test_plan_shape(self, quick_plan):
        assert quick_plan["schema"] == SWEEP_SCHEMA
        assert quick_plan["figure"] == "2"
        assert quick_plan["shards"] == 3
        assert quick_plan["total_runs"] == len(quick_plan["runs"])
        # quick fig2: 4 techniques x 2 bandwidths x 1 seed
        assert quick_plan["total_runs"] == 8

    def test_plan_records_sim_code(self, quick_plan):
        from repro.obs.ops import render_fleet
        from repro.parallel.store import sim_code_fingerprint

        assert quick_plan["sim_code"] == sim_code_fingerprint()
        header = render_fleet(quick_plan, []).splitlines()[0]
        assert f"sim-code {sim_code_fingerprint()[:12]}" in header

    def test_every_run_lands_in_exactly_one_shard(self, quick_plan):
        for run in quick_plan["runs"]:
            assert run["shard"] == shard_of(run["digest"], 3)
            assert 0 <= run["shard"] < 3

    def test_digests_are_unique(self, quick_plan):
        digests = [run["digest"] for run in quick_plan["runs"]]
        assert len(set(digests)) == len(digests)

    def test_shard_count_scales_partition(self):
        single = build_plan("2", quick=True, shards=1)
        assert {run["shard"] for run in single["runs"]} == {0}
        # Same sweep, same digests — only the partition changes.
        wide = build_plan("2", quick=True, shards=5)
        assert [run["digest"] for run in wide["runs"]] == [
            run["digest"] for run in single["runs"]
        ]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(StoreError):
            build_plan("2", quick=True, shards=0)

    def test_rejects_unknown_figure(self):
        with pytest.raises(StoreError):
            build_plan("9", quick=True)

    def test_plan_round_trips_through_disk(
        self, quick_plan, tmp_path
    ):
        path = tmp_path / "plan.json"
        write_json(quick_plan, path)
        assert load_plan(path) == quick_plan


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(StoreError):
            validate_plan([1, 2])

    def test_rejects_wrong_schema(self, quick_plan):
        with pytest.raises(StoreError, match="schema"):
            validate_plan({**quick_plan, "schema": "repro.sweep/0"})

    def test_rejects_unknown_figure(self, quick_plan):
        with pytest.raises(StoreError, match="figure"):
            validate_plan({**quick_plan, "figure": "7"})

    def test_rejects_empty_runs(self, quick_plan):
        with pytest.raises(StoreError, match="no runs"):
            validate_plan({**quick_plan, "runs": []})

    def test_rejects_out_of_range_shard(self, quick_plan):
        runs = [dict(run) for run in quick_plan["runs"]]
        runs[0]["shard"] = 99
        with pytest.raises(StoreError, match="outside"):
            validate_plan({**quick_plan, "runs": runs})

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(StoreError, match="JSON"):
            load_plan(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(StoreError, match="cannot read"):
            load_plan(tmp_path / "absent.json")


class TestStalePlans:
    def test_tampered_digest_detected(self, quick_plan):
        runs = [dict(run) for run in quick_plan["runs"]]
        runs[0]["digest"] = "0" * 16
        stale = validate_plan({**quick_plan, "runs": runs})
        with pytest.raises(StoreError, match="stale"):
            sweep_service._rebuild_specs(stale)

    def test_bad_shard_index_rejected(self, quick_plan, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError, match="shard"):
            run_shard(quick_plan, 3, store)


@pytest.mark.slow
class TestShardedRunParity:
    def test_three_shards_merge_to_direct_run(self, tmp_path):
        plan = build_plan("2", quick=True, shards=3)
        reports = []
        for shard in range(3):
            store = ResultStore(tmp_path / f"shard-{shard}")
            reports.append(
                run_shard(plan, shard, store, jobs=2)
            )
        assert sum(r.runs for r in reports) == plan["total_runs"]
        assert all(r.cached == 0 for r in reports)

        merged = ResultStore(tmp_path / "merged")
        report = merge_plan(
            plan,
            merged,
            sources=[tmp_path / f"shard-{s}" for s in range(3)],
            jobs=2,
        )
        assert report.absorbed == plan["total_runs"]
        assert report.cached == plan["total_runs"]
        assert report.computed == 0

        config = sweep_service.sweep_config(True, "exact")
        direct = fig2.run(
            config,
            bandwidths_kb=sweep_service.QUICK_BANDWIDTHS_KB,
            executor=SweepExecutor(jobs=1),
        )
        assert format_figure(
            report.result, precision=report.precision
        ) == format_figure(direct, precision=1)

    def test_merge_computes_missing_shards(self, tmp_path):
        plan = build_plan("2", quick=True, shards=3)
        # Only shard 0 ever ran: merge must compute the rest.
        store = ResultStore(tmp_path / "shard-0")
        report0 = run_shard(plan, 0, store, jobs=2)
        merged = ResultStore(tmp_path / "merged")
        report = merge_plan(
            plan, merged, sources=[tmp_path / "shard-0"], jobs=2
        )
        assert report.cached == report0.runs
        assert report.computed == plan["total_runs"] - report0.runs

    def test_rerunning_a_shard_is_all_cache_hits(self, tmp_path):
        plan = build_plan("2", quick=True, shards=3)
        store = ResultStore(tmp_path / "store")
        first = run_shard(plan, 0, store, jobs=2)
        second = run_shard(plan, 0, store, jobs=1)
        assert second.runs == first.runs
        assert second.cached == first.runs
        assert second.computed == 0


class TestCliSweep:
    @pytest.mark.slow
    def test_plan_run_merge_round_trip(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        plan_path = tmp_path / "plan.json"
        assert main([
            "sweep", "plan", "--figure", "2", "--quick",
            "--shards", "2", "--output", str(plan_path),
        ]) == 0
        assert "2 shard(s)" in capsys.readouterr().out
        payload = json.loads(plan_path.read_text())
        assert payload["schema"] == SWEEP_SCHEMA

        for shard in ("0", "1"):
            assert main([
                "sweep", "run", str(plan_path),
                "--shard", shard,
                "--store", str(tmp_path / f"s{shard}"),
                "--jobs", "2",
            ]) == 0
        assert "shard 1/2" in capsys.readouterr().out

        assert main([
            "sweep", "merge", str(plan_path),
            "--store", str(tmp_path / "merged"),
            "--from", str(tmp_path / "s0"),
            "--from", str(tmp_path / "s1"),
        ]) == 0
        merged_out = capsys.readouterr()
        assert "fig2" in merged_out.out
        assert "0 computed" in merged_out.err

    def test_malformed_plan_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main([
            "sweep", "run", str(bad),
            "--shard", "0", "--store", str(tmp_path / "s"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "run", str(tmp_path / "plan.json"),
            "--shard", "0", "--store", str(tmp_path / "s"),
            "--jobs", "0",
        ]) == 2
        assert "--jobs" in capsys.readouterr().err


@pytest.mark.slow
class TestOpsTelemetry:
    def test_run_shard_writes_span_log(self, quick_plan, tmp_path):
        store = ResultStore(tmp_path / "s0")
        report = run_shard(quick_plan, 0, store, jobs=1)
        spans = load_ops(shard_ops_path(store.root, 0))
        roots = [s for s in spans if s.parent is None]
        assert [s.name for s in roots] == ["shard"]
        assert roots[0].attrs["runs"] == report.runs
        assert roots[0].attrs["failed"] == 0
        cell_runs = [s for s in spans if s.name == "cell-run"]
        assert len(cell_runs) == report.runs
        commits = [s for s in spans if s.name == "store-commit"]
        assert len(commits) == report.computed
        # Every other span hangs off the shard root.
        assert all(
            s.parent == roots[0].id
            for s in spans
            if s is not roots[0]
        )

    def test_run_shard_writes_heartbeat(self, quick_plan, tmp_path):
        store = ResultStore(tmp_path / "s0")
        report = run_shard(quick_plan, 0, store, jobs=1)
        payload = read_heartbeat(heartbeat_path(store.root, 0))
        assert payload["schema"] == OPS_SCHEMA
        assert payload["state"] == "done"
        assert payload["shard"] == 0
        assert payload["shards"] == 3
        assert payload["pid"] == os.getpid()
        assert payload["runs_done"] == report.runs
        assert payload["runs_computed"] == report.computed
        assert payload["in_flight"] == 0

    def test_ops_false_writes_nothing(self, quick_plan, tmp_path):
        store = ResultStore(tmp_path / "s0")
        run_shard(quick_plan, 0, store, jobs=1, ops=False)
        assert not ops_root(store.root).exists()

    def test_merge_writes_span_log(self, quick_plan, tmp_path):
        shard_store = ResultStore(tmp_path / "s0")
        report0 = run_shard(quick_plan, 0, shard_store, jobs=1)
        merged = ResultStore(tmp_path / "merged")
        merge_plan(
            quick_plan, merged, sources=[shard_store.root], jobs=1
        )
        spans = load_ops(merge_ops_path(merged.root))
        roots = [s for s in spans if s.parent is None]
        assert [s.name for s in roots] == ["merge"]
        assert roots[0].attrs["absorbed"] == report0.runs
        absorbs = [s for s in spans if s.name == "store-absorb"]
        assert len(absorbs) == 1
        assert absorbs[0].attrs["copied"] == report0.runs


class TestFleetView:
    def beat(self, updated, shard=0, state="running", done=0,
             total=3, rate=None):
        return {
            "schema": OPS_SCHEMA,
            "kind": "heartbeat",
            "shard": shard,
            "shards": 3,
            "pid": 1,
            "state": state,
            "started": updated - 10.0,
            "updated": updated,
            "runs_total": total,
            "runs_done": done,
            "runs_computed": done,
            "runs_cached": 0,
            "runs_failed": 0,
            "in_flight": total - done,
            "last_commit": None,
            "rate_runs_per_s": rate,
            "eta_s": None,
        }

    def test_planned_counts_come_from_the_plan(self, quick_plan):
        statuses = fleet_status(quick_plan, [], now=0.0)
        assert len(statuses) == 3
        assert sum(s.planned for s in statuses) == 8
        assert all(s.state == "missing" for s in statuses)

    def test_stalled_shard_flagged_as_straggler(self, quick_plan):
        now = 1000.0
        statuses = fleet_status(
            quick_plan,
            [
                self.beat(now - 1.0, shard=0, done=2, rate=2.0),
                self.beat(now - 1.0, shard=1, done=2, rate=2.0),
                self.beat(now - 1.0, shard=2, done=1, rate=0.2),
            ],
            now=now,
        )
        assert [s.straggler for s in statuses] == [
            False, False, True,
        ]

    def test_killed_shard_detected_by_stale_heartbeat(
        self, quick_plan
    ):
        now = 1000.0
        statuses = fleet_status(
            quick_plan,
            [
                self.beat(now - 1.0, shard=0, done=3, state="done"),
                self.beat(now - 300.0, shard=1, done=1, rate=1.0),
            ],
            now=now,
            stale_after=30.0,
        )
        assert statuses[1].state == "dead"
        assert statuses[2].state == "missing"

    @pytest.mark.slow
    def test_cli_status_renders_fleet(
        self, quick_plan, tmp_path, capsys
    ):
        import time

        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        write_json(quick_plan, plan_path)
        store = ResultStore(tmp_path / "s0")
        run_shard(quick_plan, 0, store, jobs=1)
        assert main([
            "sweep", "status", str(plan_path),
            "--store", str(store.root),
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep fleet: figure 2 (quick)" in out
        assert "shard 0" in out
        assert "done" in out
        assert "no heartbeat" in out

        # A stale still-"running" heartbeat from a killed worker.
        dead = self.beat(time.time() - 300.0, shard=1, done=1)
        heartbeat_path(tmp_path / "s1", 1).parent.mkdir(
            parents=True, exist_ok=True
        )
        heartbeat_path(tmp_path / "s1", 1).write_text(
            json.dumps(dead), encoding="utf-8"
        )
        assert main([
            "sweep", "status", str(plan_path),
            "--store", str(store.root),
            "--store", str(tmp_path / "s1"),
        ]) == 0
        assert "DEAD" in capsys.readouterr().out

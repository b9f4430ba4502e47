"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_quick_flag(self):
        args = build_parser().parse_args(["fig2", "--quick"])
        assert args.quick

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_reproduce_trace_flags(self):
        args = build_parser().parse_args(
            ["reproduce", "--figure", "2", "--trace", "/tmp/t.jsonl"]
        )
        assert args.figure == "2"
        assert args.trace == "/tmp/t.jsonl"

    def test_reproduce_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--figure", "9"])


class TestCommands:
    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "gop" in out
        assert "duration-8s" in out
        assert "%" in out

    def test_rspec(self, capsys):
        assert main(["rspec", "--peers", "2", "--capacity", "1024"]) == 0
        out = capsys.readouterr().out
        assert "<rspec" in out
        assert 'capacity="1024"' in out

    def test_timeline(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    "--peers",
                    "2",
                    "--bandwidth",
                    "512",
                    "--duration",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "peer-1" in out
        assert "$" in out  # someone finished
        assert "legend:" in out

    @pytest.mark.slow
    def test_quickstart(self, capsys):
        assert main(["quickstart", "--bandwidth", "512"]) == 0
        out = capsys.readouterr().out
        assert "gop" in out
        assert "duration-4s" in out

    @pytest.mark.slow
    def test_quick_figure(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Adaptive pooling" in out
        assert "128 kB/s" in out


class TestVersionEnvironment:
    def test_version_prints_environment_block(self, capsys):
        import platform

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert platform.python_version() in out
        assert "cpus" in out
        assert "numpy" in out

        from repro.parallel.store import sim_code_fingerprint

        assert f"sim-code {sim_code_fingerprint()[:12]}" in out


class TestProgressFlag:
    def test_bare_flag_selects_live(self):
        args = build_parser().parse_args(
            ["reproduce", "--progress"]
        )
        assert args.progress == "live"

    def test_plain_mode(self):
        args = build_parser().parse_args(
            ["reproduce", "--progress", "plain"]
        )
        assert args.progress == "plain"

    def test_default_is_off(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.progress is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["reproduce", "--progress", "fancy"]
            )


class TestBenchCommand:
    def test_list_names_every_suite(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "flownet" in out
        assert "fig2_stalls" in out
        assert "parallel_speedup" in out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "no_such_suite"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite" in err
        assert "repro bench list" in err

    def test_quick_suite_writes_valid_artifact(
        self, capsys, tmp_path
    ):
        from repro.obs.bench import load_artifact

        target = tmp_path / "BENCH_fig1_rspec.json"
        assert (
            main(
                [
                    "bench",
                    "fig1_rspec",
                    "--quick",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "suite fig1_rspec: 1 case(s)" in out
        payload = load_artifact(target)
        assert payload["quick"] is True
        assert payload["cases"][0]["id"] == "build_serialize_parse"


class TestCompareCommand:
    @pytest.fixture()
    def artifact_pair(self, tmp_path):
        """A baseline artifact and a path for a candidate copy."""
        import json

        from repro.obs.bench import BenchHarness

        harness = BenchHarness("demo", results_dir=tmp_path)
        harness.case("c", lambda: None, digest_of=("w", 1))
        harness.annotate(events_fired=1000)
        baseline = harness.write(tmp_path / "baseline.json")
        payload = json.loads(baseline.read_text())
        return baseline, tmp_path / "candidate.json", payload

    def test_self_compare_exits_0(self, capsys, artifact_pair):
        baseline, _, _ = artifact_pair
        assert main(["compare", str(baseline), str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_injected_slowdown_exits_1(self, capsys, artifact_pair):
        import json

        baseline, candidate, payload = artifact_pair
        timing = payload["cases"][0]["timing"]
        for name in ("best_s", "mean_s"):
            timing[name] *= 1.5  # 50% slower, well past any threshold
        payload["cases"][0]["events_per_sec"] = None
        candidate.write_text(json.dumps(payload))
        assert (
            main(
                [
                    "compare",
                    str(baseline),
                    str(candidate),
                    "--threshold",
                    "20",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "1 regression(s)" in out

    def test_malformed_artifact_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.bench/999"}')
        assert main(["compare", str(bad), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["compare", str(missing), str(missing)]) == 2
        assert "cannot read artifact" in capsys.readouterr().err

    def test_custom_metric_selection(self, capsys, artifact_pair):
        import json

        baseline, candidate, payload = artifact_pair
        payload["cases"][0]["metrics"] = {"stalls": 99.0}
        candidate.write_text(json.dumps(payload))
        base_payload = json.loads(baseline.read_text())
        base_payload["cases"][0]["metrics"] = {"stalls": 10.0}
        baseline.write_text(json.dumps(base_payload))
        assert (
            main(
                [
                    "compare",
                    str(baseline),
                    str(candidate),
                    "--metric",
                    "metrics.stalls",
                ]
            )
            == 1
        )
        assert "metrics.stalls" in capsys.readouterr().out


class TestManifestFlag:
    @pytest.mark.slow
    def test_reproduce_writes_run_manifest(self, capsys, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        assert (
            main(
                [
                    "reproduce",
                    "--quick",
                    "--figure",
                    "2",
                    "--manifest",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"run manifest -> {path}" in out
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.manifest/1"
        assert "--figure 2" in payload["command"]
        assert payload["env"]["usable_cores"] >= 1
        sweep = payload["sweep"]
        assert sweep["runs"] > 0
        assert sweep["events_fired"] > 0
        assert sweep["wall_seconds"] > 0
        assert sweep["cells_per_sec"] == pytest.approx(
            (sweep["cells_cached"] + sweep["cells_computed"])
            / sweep["wall_seconds"]
        )

    def test_unwritable_manifest_exits_2(self, capsys, tmp_path):
        # Parse-level smoke for the flag without running a sweep.
        args = build_parser().parse_args(
            ["reproduce", "--manifest", str(tmp_path / "m.json")]
        )
        assert args.manifest == str(tmp_path / "m.json")


class TestOpsCommand:
    def write_log(self, path):
        from repro.obs.ops import OpsLog

        clock = iter(float(i) for i in range(100))
        log = OpsLog(path, clock=lambda: next(clock))
        with log.span("shard", shard=0):
            log.record(
                "cell-run", duration_s=1.0, cell="gop @ 128", seed=7
            )
        log.close()

    def test_renders_tree_and_critical_path(self, capsys, tmp_path):
        path = tmp_path / "shard-0.ops.jsonl"
        self.write_log(path)
        assert main(["ops", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shard" in out
        assert "gop @ 128 seed 7" in out
        assert "critical path" in out

    def test_depth_flag_truncates(self, capsys, tmp_path):
        path = tmp_path / "shard-0.ops.jsonl"
        self.write_log(path)
        assert main(["ops", str(path), "--depth", "1"]) == 0
        assert "gop @ 128" not in capsys.readouterr().out.split(
            "critical path"
        )[0]

    def test_malformed_log_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope", encoding="utf-8")
        assert main(["ops", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_log_exits_2(self, capsys, tmp_path):
        assert main(["ops", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepOpsFlags:
    def test_ops_on_by_default(self):
        args = build_parser().parse_args(
            ["sweep", "run", "plan.json", "--shard", "0",
             "--store", "s"]
        )
        assert not args.no_ops

    def test_no_ops_flag(self):
        args = build_parser().parse_args(
            ["sweep", "run", "plan.json", "--shard", "0",
             "--store", "s", "--no-ops"]
        )
        assert args.no_ops

    def test_status_collects_stores(self):
        args = build_parser().parse_args(
            ["sweep", "status", "plan.json",
             "--store", "a", "--store", "b"]
        )
        assert args.stores == ["a", "b"]
        assert not args.watch
        assert args.interval == 2.0
        assert args.stale == 30.0
        assert args.straggler == 0.5

    def test_status_requires_a_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "status", "plan.json"]
            )


class TestCacheFlags:
    def test_bare_cache_selects_default_root(self):
        args = build_parser().parse_args(["reproduce", "--cache"])
        assert args.cache == ""  # sentinel: use default_store_root()

    def test_cache_with_directory(self, tmp_path):
        args = build_parser().parse_args(
            ["reproduce", "--cache", str(tmp_path / "store")]
        )
        assert args.cache == str(tmp_path / "store")

    def test_cache_off_by_default(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.cache is None
        assert not args.resume
        assert not args.no_cache

    @pytest.mark.slow
    def test_warm_rerun_is_pure_cache(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "store")
        argv = [
            "reproduce", "--quick", "--figure", "2",
            "--cache", store,
        ]
        assert main(argv + ["--manifest",
                            str(tmp_path / "m1.json")]) == 0
        cold = capsys.readouterr()
        assert main(argv + ["--manifest",
                            str(tmp_path / "m2.json")]) == 0
        warm = capsys.readouterr()
        # The figure table is byte-identical; only the manifest
        # pointer line differs between the two invocations.
        def strip(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("run manifest ->")
            ]
        assert strip(warm.out) == strip(cold.out)
        assert "0 of 8 runs cached" in cold.err
        assert "8 of 8 runs cached" in warm.err
        m1 = json.loads((tmp_path / "m1.json").read_text())
        m2 = json.loads((tmp_path / "m2.json").read_text())
        assert m1["cache"] == {
            "enabled": True,
            "root": store,
            "schema": "repro.store/1",
            "hits": 0,
            "misses": 8,
            "stores": 8,
            "invalidations": 0,
            "runs_cached": 0,
        }
        assert m2["cache"]["hits"] == 8
        assert m2["cache"]["runs_cached"] == 8
        assert m2["sweep"]["events_fired"] == 0

    @pytest.mark.slow
    def test_no_cache_wins(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main([
            "reproduce", "--quick", "--figure", "2",
            "--cache", str(store), "--no-cache",
        ]) == 0
        captured = capsys.readouterr()
        assert "result store" not in captured.err
        assert not store.exists()

    @pytest.mark.slow
    def test_resume_implies_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert main([
            "reproduce", "--quick", "--figure", "2", "--resume",
        ]) == 0
        assert "runs resumed" in capsys.readouterr().err
        assert (tmp_path / "store").is_dir()


class TestTraceCommand:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read trace" in err

    def test_corrupt_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text("this is not json\n")
        code = main(["trace", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corrupt trace" in err

    def test_unknown_event_exits_2(self, capsys, tmp_path):
        path = tmp_path / "unknown.jsonl"
        path.write_text(
            '{"event": "NoSuchEvent", "time": 0.0, '
            '"category": "x", "severity": "info"}\n'
        )
        code = main(["trace", str(path)])
        assert code == 2
        assert "NoSuchEvent" in capsys.readouterr().err

    def test_stall_end_without_start_exits_2(self, capsys, tmp_path):
        from repro.obs import SimulationStarted, StallEnded, dump_jsonl

        path = tmp_path / "unmatched.jsonl"
        dump_jsonl(
            [
                SimulationStarted(time=0.0, pending=1),
                StallEnded(time=6.0, peer="p", segment=3, duration=1.0),
            ],
            str(path),
        )
        assert main(["trace", str(path)]) == 2
        assert "no matching StallStarted" in capsys.readouterr().err

    def test_summarizes_a_real_trace(self, capsys, tmp_path):
        from repro.obs import (
            EventTracer,
            PeerJoined,
            PlaybackStarted,
            StallEnded,
            StallStarted,
            dump_jsonl,
        )

        tracer = EventTracer()
        tracer.emit(PeerJoined(time=0.0, peer="peer-1"))
        tracer.emit(PlaybackStarted(
            time=2.0, peer="peer-1", startup_time=2.0
        ))
        tracer.emit(StallStarted(time=5.0, peer="peer-1", segment=3))
        tracer.emit(StallEnded(
            time=6.5, peer="peer-1", segment=3, duration=1.5
        ))
        path = tmp_path / "run.jsonl"
        dump_jsonl(tracer.events(), str(path))

        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "peer-1" in out
        assert "Events by category" in out
        assert "StallStarted x1" in out

    @pytest.mark.slow
    def test_reproduce_figure_trace_round_trip(self, capsys, tmp_path):
        """The acceptance flow: reproduce --figure 2 --trace, then
        summarize the trace with the trace subcommand."""
        path = tmp_path / "fig2.jsonl"
        assert (
            main(
                [
                    "reproduce",
                    "--quick",
                    "--figure",
                    "2",
                    "--trace",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "traced representative run" in out
        assert path.exists()

        from repro.obs import load_jsonl

        events = load_jsonl(str(path))
        layers = {event.category for event in events}
        assert {"engine", "tcp", "player"} <= layers
        assert "leecher" in layers or "swarm" in layers

        assert main(["trace", str(path)]) == 0
        summary = capsys.readouterr().out
        assert "peer-1" in summary
        assert "finished" in summary or "cut off" in summary

"""End-to-end observability: forced stalls, layer coverage, and the
trace-vs-SwarmResult cross-check behind ``repro trace``."""

from __future__ import annotations

import pytest

from repro.core.splicer import DurationSplicer
from repro.net.engine import Simulator
from repro.obs import (
    EventTracer,
    Observability,
    build_timelines,
    dump_jsonl,
    load_jsonl,
    peer_summaries,
)
from repro.p2p.swarm import Swarm, SwarmConfig
from repro.player.player import Player


class TestForcedStall:
    def test_stall_shows_up_as_paired_events(self):
        """Delay one segment on purpose; the trace must show
        StallStarted/StallEnded at exactly the stall's sim times."""
        sim = Simulator()
        tracer = EventTracer()
        player = Player(
            sim, [1.0, 1.0, 1.0], tracer=tracer, peer="peer-1"
        )
        player.segment_available(0)  # playback starts at t=0
        sim.schedule(2.5, player.segment_available, 1)  # late on purpose
        sim.schedule(2.5, player.segment_available, 2)
        sim.run()

        started = [e for e in tracer if e.name == "StallStarted"]
        ended = [e for e in tracer if e.name == "StallEnded"]
        assert len(started) == 1
        assert len(ended) == 1
        assert started[0].peer == ended[0].peer == "peer-1"
        assert started[0].segment == ended[0].segment == 1

        # Timestamps match the player's own metrics exactly.
        stall = player.metrics.stalls[0]
        assert started[0].time == stall.start == 1.0
        assert ended[0].time == stall.end == 2.5
        assert ended[0].duration == stall.duration == pytest.approx(1.5)

    def test_smooth_playback_emits_no_stall_events(self):
        sim = Simulator()
        tracer = EventTracer()
        player = Player(sim, [1.0, 1.0], tracer=tracer, peer="p")
        player.segment_available(0)
        player.segment_available(1)
        sim.run()
        names = {e.name for e in tracer}
        assert "StallStarted" not in names
        assert "StallEnded" not in names
        assert "PlaybackFinished" in names


def _traced_run(video, **overrides):
    splice = DurationSplicer(4.0).splice(video)
    defaults = dict(
        bandwidth=96_000.0,  # scarce on purpose: stalls guaranteed
        seeder_bandwidth=384_000.0,
        n_leechers=4,
        seed=7,
        max_time=600.0,
    )
    defaults.update(overrides)
    obs = Observability.tracing()
    result = Swarm(splice, SwarmConfig(**defaults), obs=obs).run()
    return obs, result


class TestSwarmTrace:
    def test_events_cover_at_least_four_layers(self, short_video):
        obs, _ = _traced_run(short_video)
        layers = {event.category for event in obs.events()}
        assert {"engine", "tcp", "leecher", "player"} <= layers

    def test_summary_matches_swarm_result_exactly(self, short_video):
        obs, result = _traced_run(short_video)
        summaries = peer_summaries(build_timelines(obs.events()))
        assert set(summaries) >= set(result.metrics)
        for name, metrics in result.metrics.items():
            summary = summaries[name]
            assert summary.stall_count == metrics.stall_count
            assert (
                summary.total_stall_duration
                == metrics.total_stall_duration
            )
            assert summary.startup_time == metrics.startup_time
            assert summary.finished == metrics.finished

    def test_stall_events_mirror_streaming_metrics(self, short_video):
        obs, result = _traced_run(short_video)
        assert any(
            m.stall_count > 0 for m in result.metrics.values()
        ), "scenario must force at least one stall"
        by_peer: dict[str, list] = {}
        for event in obs.events():
            if event.name in ("StallStarted", "StallEnded"):
                by_peer.setdefault(event.peer, []).append(event)
        for name, metrics in result.metrics.items():
            events = by_peer.get(name, [])
            completed = [
                (s, e)
                for s, e in zip(events[0::2], events[1::2])
                if s.name == "StallStarted" and e.name == "StallEnded"
            ]
            assert len(completed) >= metrics.stall_count
            for (started, ended), stall in zip(
                completed, metrics.stalls
            ):
                assert started.time == stall.start
                assert ended.time == stall.end

    def test_round_trip_preserves_swarm_trace(self, short_video, tmp_path):
        obs, _ = _traced_run(short_video)
        path = tmp_path / "swarm.jsonl"
        dump_jsonl(obs.events(), str(path))
        assert load_jsonl(str(path)) == obs.events()

    def test_metrics_registry_is_populated(self, short_video):
        obs, result = _traced_run(short_video)
        counters = obs.registry.counters()
        assert counters["swarm.joins"].value == 4
        assert counters["p2p.segments_received"].value > 0
        assert counters["player.stalls"].value == sum(
            m.stall_count for m in result.metrics.values()
        )
        gauges = obs.registry.gauges()
        assert gauges["swarm.end_time"].value == result.end_time
        assert (
            gauges["swarm.seeder_bytes_uploaded"].value
            == result.seeder_bytes_uploaded
        )
        pool = obs.registry.histograms()["p2p.pool_size"].summary()
        assert pool.minimum >= 1.0
        assert pool.total_weight > 0.0

"""Tests for figure JSON persistence and the ASCII session timeline."""

import pytest

from repro.core.splicer import DurationSplicer
from repro.errors import ExperimentError, TraceError
from repro.experiments.figio import figure_from_json, figure_to_json
from repro.experiments.runner import CellResult, FigureResult
from repro.obs import (
    Observability,
    attribute_stalls,
    build_timelines,
    render_gantt,
)
from repro.p2p.swarm import Swarm, SwarmConfig
from repro.units import kB_per_s


def make_figure():
    cell = CellResult(
        bandwidth_kb=128,
        stall_count=3.5,
        stall_duration=12.0,
        startup_time=2.25,
        seeder_bytes=1e6,
        peer_bytes=2e6,
        finished_fraction=1.0,
    )
    return FigureResult(
        figure="figX",
        title="Round trip",
        metric="stall_count",
        series={"gop": [cell]},
    )


class TestFigureJson:
    def test_roundtrip(self):
        original = make_figure()
        restored = figure_from_json(figure_to_json(original))
        assert restored == original

    def test_malformed_json_rejected(self):
        with pytest.raises(ExperimentError):
            figure_from_json("{not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(ExperimentError):
            figure_from_json('{"figure": "f"}')

    def test_json_is_stable(self):
        assert figure_to_json(make_figure()) == figure_to_json(
            make_figure()
        )


class TestTimeline:
    """``render_gantt`` over a traced run, as ``repro timeline`` draws it."""

    @pytest.fixture(scope="class")
    def timelines(self, short_video):
        splice = DurationSplicer(4.0).splice(short_video)
        config = SwarmConfig(
            bandwidth=kB_per_s(256),
            seeder_bandwidth=kB_per_s(2048),
            n_leechers=3,
            seed=3,
            join_stagger=1.0,
            max_time=600.0,
        )
        obs = Observability.tracing()
        Swarm(splice, config, obs=obs).run()
        return build_timelines(obs.events())

    @staticmethod
    def render(timelines, width):
        text = render_gantt(
            timelines, attribute_stalls(timelines), width=width
        )
        return [line for line in text.splitlines() if "|" in line]

    def test_one_row_per_peer(self, timelines):
        assert len(self.render(timelines, 40)) == 3

    def test_rows_have_requested_width(self, timelines):
        for line in self.render(timelines, 40):
            body = line.split("|")[1]
            assert len(body) == 40

    def test_finished_peers_end_with_dollar(self, timelines):
        # Every peer ends in a terminal state; all but the very last
        # finisher show '$' (the horizon is the last playback end, so
        # that peer's final column sits just before its own finish).
        endings = [
            line.rstrip("|")[-1] for line in self.render(timelines, 40)
        ]
        assert endings.count("$") >= len(endings) - 1
        assert all(symbol != "." for symbol in endings)

    def test_later_joiners_start_blank(self, timelines):
        body = self.render(timelines, 80)[-1].split("|")[1]
        assert body.startswith(" ")

    def test_axis_ends_at_last_peer_activity(self, timelines):
        """The trace runs to the 600 s cap; the axis must stop at the
        last finish so the sessions fill the chart."""
        last_finish = max(
            line.finished_at for line in timelines.timelines.values()
        )
        assert last_finish < timelines.last_time / 2
        text = render_gantt(timelines, width=40)
        assert text.splitlines()[3].endswith(f"{last_finish:.0f}s")
        # Only the first finisher shows a long '$' tail.
        body = self.render(timelines, 40)[-1].split("|")[1]
        assert body.count("$") < 10

    def test_unfinished_peer_keeps_trace_end(self):
        from repro.obs import PeerJoined, SimulationStarted

        timelines = build_timelines(
            [
                SimulationStarted(time=0.0, pending=1),
                PeerJoined(time=0.0, peer="p"),
                PeerJoined(time=900.0, peer="q"),
            ]
        )
        axis = render_gantt(timelines, width=20).splitlines()[2]
        assert axis.endswith("900s")

    def test_narrow_width_rejected(self, timelines):
        with pytest.raises(TraceError):
            render_gantt(timelines, width=5)

"""Tests for the GOP and duration splicers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.splicer import DurationSplicer, GopSplicer
from repro.errors import SpliceError
from repro.video.encoder import EncoderConfig, SyntheticEncoder
from repro.video.frames import FrameType
from repro.video.scene import generate_scene_plan


def encode(duration=24.0, seed=5):
    rng = random.Random(seed)
    plan = generate_scene_plan(duration, rng)
    return SyntheticEncoder(EncoderConfig()).encode(plan, rng)


@pytest.fixture(scope="module")
def stream():
    return encode()


class TestGopSplicer:
    def test_one_segment_per_gop(self, stream):
        result = GopSplicer().splice(stream)
        assert len(result) == len(stream.gops)

    def test_zero_overhead(self, stream):
        result = GopSplicer().splice(stream)
        assert result.overhead_bytes == 0
        assert result.total_size == stream.size

    def test_name(self):
        assert GopSplicer().name == "gop"
        assert GopSplicer(gops_per_segment=3).name == "gop-x3"

    def test_grouping(self, stream):
        result = GopSplicer(gops_per_segment=2).splice(stream)
        expected = (len(stream.gops) + 1) // 2
        assert len(result) == expected
        assert result.total_size == stream.size

    def test_invalid_grouping_rejected(self):
        with pytest.raises(SpliceError):
            GopSplicer(gops_per_segment=0)

    def test_segments_cover_stream(self, stream):
        result = GopSplicer().splice(stream)
        assert result.duration == pytest.approx(stream.duration)

    def test_no_inserted_frames(self, stream):
        result = GopSplicer().splice(stream)
        assert not any(s.inserted_i_frame for s in result.segments)


class TestDurationSplicer:
    def test_segment_count(self, stream):
        result = DurationSplicer(4.0).splice(stream)
        assert len(result) == 6  # 24 s / 4 s

    def test_name(self):
        assert DurationSplicer(4.0).name == "duration-4s"
        assert DurationSplicer(0.5).name == "duration-0.5s"

    def test_non_positive_duration_rejected(self):
        with pytest.raises(SpliceError):
            DurationSplicer(0.0)

    @pytest.mark.parametrize(
        "duration", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(SpliceError):
            DurationSplicer(duration)

    def test_segments_are_frame_accurate(self, stream):
        result = DurationSplicer(2.0).splice(stream)
        for segment in result.segments[:-1]:
            assert segment.duration == pytest.approx(2.0, abs=0.05)

    def test_every_segment_starts_with_i(self, stream):
        result = DurationSplicer(2.0).splice(stream)
        for segment in result.segments:
            assert segment.frames[0].frame_type is FrameType.I

    def test_overhead_is_positive(self, stream):
        result = DurationSplicer(2.0).splice(stream)
        assert result.overhead_bytes > 0

    def test_shorter_segments_cost_more(self, stream):
        two = DurationSplicer(2.0).splice(stream)
        eight = DurationSplicer(8.0).splice(stream)
        assert two.overhead_ratio > eight.overhead_ratio

    def test_overhead_matches_inserted_frames(self, stream):
        result = DurationSplicer(2.0).splice(stream)
        per_segment = sum(s.overhead for s in result.segments)
        assert per_segment == result.overhead_bytes

    def test_covers_whole_stream_duration(self, stream):
        result = DurationSplicer(4.0).splice(stream)
        assert result.duration == pytest.approx(stream.duration)

    def test_frame_count_preserved(self, stream):
        result = DurationSplicer(4.0).splice(stream)
        total = sum(len(s.frames) for s in result.segments)
        assert total == stream.frame_count

    def test_inserted_i_frame_uses_gop_i_size(self, stream):
        result = DurationSplicer(2.0).splice(stream)
        gop_i_sizes = {}
        for gop in stream.gops:
            for frame in gop.frames:
                gop_i_sizes[frame.index] = gop.i_frame.size
        for segment in result.segments:
            if segment.inserted_i_frame:
                first = segment.frames[0]
                assert first.size == gop_i_sizes[first.index]

    def test_cut_on_existing_i_frame_adds_nothing(self, stream):
        # The very first segment starts on the stream's real I-frame.
        result = DurationSplicer(4.0).splice(stream)
        assert not result.segments[0].inserted_i_frame

    @settings(max_examples=10, deadline=None)
    @given(
        duration=st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0]),
        seed=st.integers(min_value=0, max_value=2**10),
    )
    def test_property_partition(self, duration, seed):
        """Segments partition the stream: every frame exactly once."""
        source = encode(duration=12.0, seed=seed)
        result = DurationSplicer(duration).splice(source)
        indices = [
            frame.index
            for segment in result.segments
            for frame in segment.frames
        ]
        assert indices == list(range(source.frame_count))


class TestSplicerComparisons:
    def test_gop_and_duration_cover_same_playtime(self, stream):
        gop = GopSplicer().splice(stream)
        duration = DurationSplicer(4.0).splice(stream)
        assert gop.duration == pytest.approx(duration.duration)

    def test_gop_size_variance_exceeds_duration_splicing(self, stream):
        gop_sizes = GopSplicer().splice(stream).segment_sizes()
        dur_sizes = DurationSplicer(2.0).splice(stream).segment_sizes()

        def spread(sizes):
            return max(sizes) / max(1, min(sizes))

        assert spread(gop_sizes) > spread(dur_sizes)

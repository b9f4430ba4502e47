"""Video splicers (paper Section II).

Two techniques:

* :class:`GopSplicer` — cut at closed-GOP boundaries.  Zero byte
  overhead, but segment sizes track scene content and can be wildly
  uneven (one 10-second stationary shot becomes one enormous segment).
* :class:`DurationSplicer` — cut every ``target_duration`` seconds,
  frame-accurately.  Every cut that lands mid-GOP converts the frame at
  the cut into a fresh I-frame so the segment stays independently
  decodable — that inserted I-frame is the technique's byte overhead.
"""

from __future__ import annotations

import abc
import math

from ..errors import SpliceError
from ..video.bitstream import Bitstream
from ..video.frames import Frame, FrameType
from .segments import Segment, SpliceResult


class Splicer(abc.ABC):
    """Strategy interface: turn a bitstream into playable segments."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short technique name used in reports (e.g. ``"duration-4s"``)."""

    @abc.abstractmethod
    def splice(self, stream: Bitstream) -> SpliceResult:
        """Splice ``stream`` into segments.

        Returns:
            A validated :class:`SpliceResult` whose segments exactly
            cover the stream in order.
        """


class GopSplicer(Splicer):
    """Cut the stream at closed-GOP boundaries.

    Open GOPs (whose head may reference the previous GOP — the paper's
    Section II-A distinction) are never split from their predecessor:
    a cut is legal only in front of a closed (IDR) GOP, so on an
    open-GOP stream each segment is a closed GOP plus any open GOPs
    that depend on it.

    Args:
        gops_per_segment: number of consecutive closed groups per
            segment (paper uses 1: "we spliced the video based on
            GOP").
    """

    def __init__(self, gops_per_segment: int = 1) -> None:
        if gops_per_segment < 1:
            raise SpliceError(
                f"gops_per_segment must be >= 1, got {gops_per_segment}"
            )
        self._gops_per_segment = gops_per_segment

    @property
    def name(self) -> str:
        if self._gops_per_segment == 1:
            return "gop"
        return f"gop-x{self._gops_per_segment}"

    @property
    def gops_per_segment(self) -> int:
        """Number of closed groups per segment."""
        return self._gops_per_segment

    def splice(self, stream: Bitstream) -> SpliceResult:
        groups = self._closed_groups(stream)
        segments: list[Segment] = []
        for start in range(0, len(groups), self._gops_per_segment):
            chunk = groups[start : start + self._gops_per_segment]
            frames: list[Frame] = []
            for group in chunk:
                for gop in group:
                    frames.extend(gop.frames)
            segments.append(
                Segment(index=len(segments), frames=tuple(frames))
            )
        return SpliceResult(
            technique=self.name,
            segments=tuple(segments),
            source_size=stream.size,
        )

    @staticmethod
    def _closed_groups(stream: Bitstream) -> list[list]:
        """Group GOPs so every group starts at a closed boundary."""
        if not stream.gops[0].closed:
            raise SpliceError(
                "stream starts with an open GOP; nothing can decode it"
            )
        groups: list[list] = []
        for gop in stream.gops:
            if gop.closed:
                groups.append([gop])
            else:
                groups[-1].append(gop)
        return groups


class DurationSplicer(Splicer):
    """Cut the stream every ``target_duration`` seconds, frame-accurately.

    The cut lands on the first frame whose presentation time reaches
    the next multiple of the target duration.  When that frame is not
    an I-frame it is re-encoded as one; the new I-frame's size is taken
    from the leading I-frame of the GOP the cut fell inside (the
    content there is the same, so its intra-coded cost is a faithful
    estimate).  This inserted I-frame is the overhead the paper calls
    "much more data to be transferred".

    Args:
        target_duration: segment duration in seconds (paper: 2, 4, 8).
    """

    def __init__(self, target_duration: float) -> None:
        if not (math.isfinite(target_duration) and target_duration > 0):
            raise SpliceError(
                "target_duration must be positive and finite, "
                f"got {target_duration}"
            )
        self._target_duration = target_duration

    @property
    def name(self) -> str:
        if self._target_duration == int(self._target_duration):
            return f"duration-{int(self._target_duration)}s"
        return f"duration-{self._target_duration}s"

    @property
    def target_duration(self) -> float:
        """Configured segment duration in seconds."""
        return self._target_duration

    def splice(self, stream: Bitstream) -> SpliceResult:
        gop_i_size = self._i_frame_size_by_frame(stream)
        segments: list[Segment] = []
        current: list[Frame] = []
        inserted = False
        original_first_size = 0
        next_cut = self._target_duration

        def close_segment() -> None:
            nonlocal current, inserted, original_first_size
            segments.append(
                Segment(
                    index=len(segments),
                    frames=tuple(current),
                    inserted_i_frame=inserted,
                    original_first_frame_size=(
                        original_first_size or current[0].size
                    ),
                )
            )
            current = []
            inserted = False
            original_first_size = 0

        for frame in stream.frames():
            if current and frame.pts >= next_cut - 1e-9:
                close_segment()
                next_cut += self._target_duration
            if not current and frame.frame_type is not FrameType.I:
                original_first_size = frame.size
                frame = frame.as_type(FrameType.I, gop_i_size[frame.index])
                inserted = True
            current.append(frame)
        close_segment()
        return SpliceResult(
            technique=self.name,
            segments=tuple(segments),
            source_size=stream.size,
        )

    @staticmethod
    def _i_frame_size_by_frame(stream: Bitstream) -> dict[int, int]:
        """Map every frame index to its GOP's I-frame size."""
        mapping: dict[int, int] = {}
        for gop in stream.gops:
            i_size = gop.i_frame.size
            for frame in gop.frames:
                mapping[frame.index] = i_size
        return mapping

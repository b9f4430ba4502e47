"""Shared fixtures: small, fast videos and swarm builders."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

# Allow running the tests without installing the package first.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.video.encoder import EncoderConfig, SyntheticEncoder
from repro.video.scene import generate_scene_plan


@pytest.fixture(scope="session")
def short_video():
    """A 24-second synthetic video (fast to splice and stream)."""
    rng = random.Random(42)
    plan = generate_scene_plan(24.0, rng)
    return SyntheticEncoder(
        EncoderConfig(bitrate=950_000.0)
    ).encode(plan, rng)


@pytest.fixture(scope="session")
def tiny_video():
    """A 8-second video for the fastest integration tests."""
    rng = random.Random(7)
    plan = generate_scene_plan(8.0, rng)
    return SyntheticEncoder(
        EncoderConfig(bitrate=800_000.0)
    ).encode(plan, rng)

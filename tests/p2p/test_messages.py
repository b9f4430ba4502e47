"""Tests for the protocol message set."""

import dataclasses

import pytest

from repro.errors import ProtocolError
from repro.p2p.messages import Manifest

from .helpers import ALL_MESSAGES


class TestValidation:
    def test_manifest_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            Manifest(
                info_hash="x",
                segment_sizes=(1, 2),
                segment_durations=(1.0,),
            )

    def test_manifest_segment_count(self):
        msg = Manifest(
            info_hash="x",
            segment_sizes=(1, 2),
            segment_durations=(1.0, 2.0),
        )
        assert msg.segment_count == 2


class TestImmutability:
    """Sender and receiver share one message object; it must not change."""

    @pytest.mark.parametrize(
        "message", ALL_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_fields_cannot_be_assigned(self, message):
        field = dataclasses.fields(message)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(message, field, getattr(message, field))

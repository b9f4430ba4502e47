"""The one wire-format fact the simulation charges for.

Control messages are delivered as objects and cost no link bandwidth,
but every segment transfer carries a ``PIECE`` header on the data
plane, as BitTorrent's piece message does.  Its size goes into the
byte count of each segment's TCP transfer.
"""

from __future__ import annotations


def piece_wire_overhead(peer_id: str, index: int, size: int) -> int:
    """Bytes of ``PIECE`` header carried with one segment transfer.

    The header is ``u32 len | u8 id | u16 len | peer id | u32 index |
    u64 size``, all integers big-endian, the peer id in UTF-8: 19 fixed
    bytes plus the encoded peer id.  ``index`` and ``size`` travel as
    fixed-width fields, so only the peer id changes the total.
    """
    return 19 + len(peer_id.encode("utf-8"))

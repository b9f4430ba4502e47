"""BitTorrent-like P2P streaming protocol.

The paper's application "implemented our own BitTorrent like messaging
protocol" over Java sockets; the seeder splices the video and every
peer both leeches and seeds.  This package is that application:

* :mod:`repro.p2p.messages` — the message set, delivered as frozen
  objects (no byte codec: the simulator never puts bytes on a socket);
* :mod:`repro.p2p.wire` — the per-segment ``PIECE`` header size that
  every segment transfer is charged for;
* :mod:`repro.p2p.tracker` — swarm membership;
* :mod:`repro.p2p.peer` — plumbing shared by all peers;
* :mod:`repro.p2p.seeder` / :mod:`repro.p2p.leecher` — the two roles;
* :mod:`repro.p2p.churn` — peer-departure model;
* :mod:`repro.p2p.swarm` — end-to-end session orchestration;
* :mod:`repro.p2p.scale` — vectorized cohort/fluid backends for
  10³–10⁶-peer sessions (``SwarmConfig.fidelity``).
"""

from .churn import ChurnModel
from .leecher import Leecher, LeecherConfig
from .messages import (
    Bitfield,
    Goodbye,
    Handshake,
    Have,
    Manifest,
    ManifestRequest,
    Message,
    Request,
    RequestRejected,
)
from .scale import CohortSwarm, FluidSwarm
from .seeder import Seeder
from .selection import (
    PieceSelector,
    RarestFirstSelector,
    SequentialSelector,
    WindowedRarestSelector,
)
from .swarm import FIDELITY_TIERS, Swarm, SwarmConfig, build_swarm
from .tracker import Tracker

__all__ = [
    "Bitfield",
    "ChurnModel",
    "CohortSwarm",
    "FIDELITY_TIERS",
    "FluidSwarm",
    "Goodbye",
    "Handshake",
    "Have",
    "Leecher",
    "LeecherConfig",
    "Manifest",
    "ManifestRequest",
    "Message",
    "PieceSelector",
    "RarestFirstSelector",
    "Request",
    "RequestRejected",
    "Seeder",
    "SequentialSelector",
    "Swarm",
    "WindowedRarestSelector",
    "SwarmConfig",
    "Tracker",
    "build_swarm",
]

"""Discrete-event network simulator.

A flow-level model of the paper's GENI star topology:

* :mod:`repro.net.engine` — the event loop and simulated clock;
* :mod:`repro.net.link` — capacity/latency/loss links;
* :mod:`repro.net.flownet` — max-min fair bandwidth sharing across
  concurrent flows (one bottleneck-ordered water-fill over all flows,
  with same-timestamp updates coalesced into one solve);
* :mod:`repro.net.tcp` — an analytic TCP connection model layered on
  the flow network: handshake, slow-start ramp, Mathis loss cap;
* :mod:`repro.net.topology` — nodes, star topology, routing.
"""

from .engine import EventHandle, Simulator
from .flownet import Flow, FlowNetwork
from .link import Link
from .monitor import LinkMonitor, LinkUtilization
from .tcp import TcpParams, TcpTransfer, ppspp_params, start_tcp_transfer
from .topology import Node, StarTopology

__all__ = [
    "EventHandle",
    "Flow",
    "FlowNetwork",
    "Link",
    "LinkMonitor",
    "LinkUtilization",
    "Node",
    "Simulator",
    "StarTopology",
    "TcpParams",
    "TcpTransfer",
    "ppspp_params",
    "start_tcp_transfer",
]

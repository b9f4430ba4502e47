"""Flow-level bandwidth sharing with max-min fairness.

Concurrent transfers are *fluid flows* over routes of links.  Whenever
the set of flows (or a capacity or per-flow rate cap) changes, rates
are re-solved by one bottleneck-ordered water-fill over every active
flow.  Each round takes the link with the smallest fair share (its
remaining capacity over its unfrozen flows) and freezes its flows at
that share, unless some flow's own cap is lower still, in which case
that one flow freezes at its cap.  Shares of the links the round
touched are refreshed and the next bottleneck is taken — the textbook
max-min fair allocation.

This is the standard abstraction for simulating TCP sharing at the
timescale of segment downloads: each flow's cap is supplied by the TCP
model (slow-start ramp, Mathis loss ceiling) and the network solves the
induced sharing exactly instead of simulating packets.

A flow's rate is computed only from its own links' capacities and the
rates already frozen on those links, with strict tie-breaks (link name,
then ``(cap, flow id)``) and no tolerance grouping.  So flows that
share no link, directly or transitively, cannot influence each other's
rates, bit for bit: one solve over the whole network gives every
link-connected part exactly the rates it would get alone.

Same-timestamp updates coalesce.  Rates only matter across intervals of
nonzero simulated time, so a burst of updates landing at one instant
(window ramps, multi-flow churn) marks the network dirty and defers the
solve to the engine's end-of-timestamp barrier
(:meth:`~repro.net.engine.Simulator.call_at_timestamp_end`) — one
solve instead of one per call.  Reading :attr:`Flow.rate` flushes
pending work first, so callers always observe solved rates.

The naive solver (global progressive filling on every update, per-flow
per-link byte accounting, full completion rescans) survives as
:class:`repro.net.reference.ReferenceFlowNetwork` — the executable
specification the property tests cross-check against.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable

from ..errors import NetworkError
from .engine import EventHandle, Simulator
from .link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry

#: Bytes below which a flow counts as complete (float-drift guard).
_COMPLETION_EPSILON = 1e-3


class Flow:
    """One fluid transfer across a route of links.

    Created via :meth:`FlowNetwork.start_flow`; read-only for callers.
    """

    __slots__ = (
        "id",
        "route",
        "size",
        "remaining",
        "_rate",
        "rate_limit",
        "min_efficient_rate",
        "on_complete",
        "started_at",
        "completed_at",
        "cancelled",
        "_network",
    )

    def __init__(
        self,
        flow_id: int,
        route: tuple[Link, ...],
        size: float,
        rate_limit: float | None,
        on_complete: Callable[["Flow"], None] | None,
        started_at: float,
        min_efficient_rate: float = 0.0,
        network: "FlowNetwork | None" = None,
    ) -> None:
        self.id = flow_id
        self.route = route
        self.size = size
        self.remaining = size
        self._rate = 0.0
        self.rate_limit = rate_limit
        self.min_efficient_rate = min_efficient_rate
        self.on_complete = on_complete
        self.started_at = started_at
        self.completed_at: float | None = None
        self.cancelled = False
        self._network = network

    @property
    def rate(self) -> float:
        """Allocated rate in bytes/second.

        Reading flushes any deferred re-solve first, so the value is
        always the solved allocation for the network's current state.
        """
        network = self._network
        if network is not None and network._dirty:
            network._flush()
        return self._rate

    @property
    def transferred(self) -> float:
        """Bytes moved so far."""
        return self.size - self.remaining

    @property
    def active(self) -> bool:
        """Whether the flow is still moving data."""
        return self.completed_at is None and not self.cancelled

    def __repr__(self) -> str:
        return (
            f"Flow(#{self.id}, size={self.size:.0f}, "
            f"remaining={self.remaining:.0f}, rate={self._rate:.0f}B/s)"
        )


class FlowNetwork:
    """The set of links and currently-active flows.

    Args:
        sim: the simulator supplying the clock and event queue.
        registry: optional metrics registry; when given, the solver
            publishes counters (``net.flownet.*``) for updates,
            coalesced updates, solves, and solved flow counts.
            Recording never changes allocations.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self._sim = sim
        self._flows: dict[Flow, None] = {}
        self._flow_ids = itertools.count(1)
        self._last_update = 0.0
        self._completion_event: EventHandle | None = None
        self._link_bytes: dict[str, float] = {}
        # Aggregate allocated rate per link, refreshed at solve time so
        # byte accounting is O(links) per advance instead of
        # O(flows x route).
        self._link_rates: dict[str, float] = {}
        self._dirty = False
        self._barrier_pending = False
        self._capacity_generation = 0
        if registry is None:
            self._updates = None
            self._coalesced = None
            self._resolves = None
            self._resolved_flows = None
        else:
            self._updates = registry.counter("net.flownet.updates")
            self._coalesced = registry.counter(
                "net.flownet.coalesced_updates"
            )
            self._resolves = registry.counter("net.flownet.resolves")
            self._resolved_flows = registry.counter(
                "net.flownet.resolved_flows"
            )

    @property
    def sim(self) -> Simulator:
        """The simulator driving this network."""
        return self._sim

    @property
    def active_flows(self) -> list[Flow]:
        """Currently-active flows (snapshot copy)."""
        return list(self._flows)

    @property
    def capacity_generation(self) -> int:
        """Bumped on every :meth:`set_capacity`.

        Lets callers cache path properties derived from capacities
        (e.g. the TCP model's bottleneck rate) and invalidate in O(1).
        """
        return self._capacity_generation

    def flows_on(self, link: Link) -> int:
        """Number of active flows traversing ``link``."""
        return sum(1 for flow in self._flows if link in flow.route)

    def bytes_carried(self, link: Link) -> float:
        """Cumulative bytes this link has carried (for utilization)."""
        self._advance()
        return self._link_bytes.get(link.name, 0.0)

    def start_flow(
        self,
        route: list[Link] | tuple[Link, ...],
        size: float,
        rate_limit: float | None = None,
        on_complete: Callable[[Flow], None] | None = None,
        min_efficient_rate: float = 0.0,
    ) -> Flow:
        """Begin a transfer of ``size`` bytes over ``route``.

        Args:
            route: ordered links the flow traverses (non-empty).
            size: bytes to move (> 0).
            rate_limit: optional cap in bytes/second (e.g. a TCP
                congestion window); ``None`` means link-limited only.
            on_complete: called with the flow when the last byte lands.
            min_efficient_rate: the TCP window floor in bytes/second
                (≈ MSS/RTT).  A fair share below this puts a real TCP
                connection in the retransmission-timeout regime, so
                goodput degrades quadratically below the floor; 0
                disables the penalty.

        Returns:
            The new :class:`Flow`.
        """
        route = tuple(route)
        if not route:
            raise NetworkError("flow route must contain at least one link")
        if size <= 0:
            raise NetworkError(f"flow size must be positive, got {size}")
        if rate_limit is not None and rate_limit <= 0:
            raise NetworkError(
                f"rate_limit must be positive or None, got {rate_limit}"
            )
        if min_efficient_rate < 0:
            raise NetworkError(
                f"min_efficient_rate must be >= 0, got {min_efficient_rate}"
            )
        self._advance()
        flow = Flow(
            next(self._flow_ids),
            route,
            size,
            rate_limit,
            on_complete,
            self._sim.now,
            min_efficient_rate,
            network=self,
        )
        self._flows[flow] = None
        self._mark_dirty()
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an active flow (no completion callback fires)."""
        if not flow.active or flow not in self._flows:
            return
        self._advance()
        flow.cancelled = True
        self._remove_flow(flow)

    def set_rate_limit(self, flow: Flow, rate_limit: float | None) -> None:
        """Change a flow's rate cap (TCP window ramp); triggers resharing."""
        if rate_limit is not None and rate_limit <= 0:
            raise NetworkError(
                f"rate_limit must be positive or None, got {rate_limit}"
            )
        if not flow.active:
            return
        self._advance()
        flow.rate_limit = rate_limit
        if flow in self._flows:
            self._mark_dirty()

    def set_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity at runtime (variable-bandwidth runs)."""
        self._advance()
        link.capacity = capacity
        self._capacity_generation += 1
        if self.flows_on(link):
            self._mark_dirty()

    # ------------------------------------------------------------------
    # deferred solving

    def _remove_flow(self, flow: Flow) -> None:
        """Detach a finished/cancelled flow and dirty the network."""
        del self._flows[flow]
        flow._network = None
        self._mark_dirty()

    def _mark_dirty(self) -> None:
        if self._updates is not None:
            self._updates.inc()
            if self._dirty:
                self._coalesced.inc()
        self._dirty = True
        if not self._barrier_pending:
            self._barrier_pending = True
            self._sim.call_at_timestamp_end(self._on_barrier)

    def _on_barrier(self) -> None:
        self._barrier_pending = False
        self._flush()

    def _flush(self) -> None:
        """Re-solve every rate and refresh the completion event."""
        if self._dirty:
            self._dirty = False
            self._fill()
            self._reschedule_completion()

    def _fill(self) -> None:
        """Bottleneck-ordered max-min water-fill with rate caps.

        Each round freezes either the lowest-capped unfrozen flow at its
        cap (when that cap is at most the smallest link share) or every
        unfrozen flow on the smallest-share link at that share.  A
        share is a link's remaining capacity over its unfrozen flows;
        the heap holds one fresh entry per touched link and stale
        entries are dropped when they surface.
        """
        flows = self._flows
        remaining: dict[str, float] = {}
        members: dict[str, list[Flow]] = {}
        capped: list[tuple[float, int, Flow]] = []
        for flow in flows:
            for link in flow.route:
                on_link = members.get(link.name)
                if on_link is None:
                    members[link.name] = [flow]
                    remaining[link.name] = link.capacity
                else:
                    on_link.append(flow)
            if flow.rate_limit is not None:
                capped.append((flow.rate_limit, flow.id, flow))
        capped.sort()
        unfrozen = {name: len(on_link) for name, on_link in members.items()}
        heap = [
            (remaining[name] / count, name) for name, count in unfrozen.items()
        ]
        heapq.heapify(heap)
        frozen: set[Flow] = set()
        next_cap = 0
        while heap:
            share, name = heap[0]
            count = unfrozen[name]
            if not count or remaining[name] / count != share:
                heapq.heappop(heap)
                continue
            while next_cap < len(capped) and capped[next_cap][2] in frozen:
                next_cap += 1
            if next_cap < len(capped) and capped[next_cap][0] <= share:
                rate, _, flow = capped[next_cap]
                group = [flow]
            else:
                heapq.heappop(heap)
                rate = share
                group = [flow for flow in members[name] if flow not in frozen]
            touched: dict[str, None] = {}
            for flow in group:
                flow._rate = rate
                frozen.add(flow)
                for link in flow.route:
                    remaining[link.name] -= rate
                    unfrozen[link.name] -= 1
                    touched[link.name] = None
            for touched_name in touched:
                count = unfrozen[touched_name]
                if count:
                    heapq.heappush(
                        heap, (remaining[touched_name] / count, touched_name)
                    )

        # TCP window floor: a share below ~MSS/RTT leaves a real
        # connection timeout-bound; goodput falls off quadratically.
        link_rates = dict.fromkeys(members, 0.0)
        for flow in flows:
            floor = flow.min_efficient_rate
            if floor > 0 and 0 < flow._rate < floor:
                flow._rate = flow._rate * flow._rate / floor
            for link in flow.route:
                link_rates[link.name] += flow._rate
        self._link_rates = link_rates

        if self._resolves is not None:
            self._resolves.inc()
            self._resolved_flows.inc(len(flows))

    # ------------------------------------------------------------------
    # time advance and completions

    def _advance(self) -> None:
        """Credit every active flow with progress since the last update.

        Rates are constant across the advanced interval: the network
        can only be dirty within the current timestamp (the engine
        barrier flushes it before the clock moves), so the cached
        ``_rate``/``_link_rates`` values are exactly the rates that
        applied since ``_last_update``.
        """
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining = max(
                    0.0, flow.remaining - flow._rate * elapsed
                )
            link_bytes = self._link_bytes
            for name, rate in self._link_rates.items():
                if rate:
                    link_bytes[name] = (
                        link_bytes.get(name, 0.0) + rate * elapsed
                    )
        self._last_update = now

    def _reschedule_completion(self) -> None:
        """Arm one event at the soonest full-completion ETA."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        soonest = float("inf")
        for flow in self._flows:
            rate = flow._rate
            if rate > 0:
                eta = flow.remaining / rate
                if eta < soonest:
                    soonest = eta
        if soonest < float("inf"):
            self._completion_event = self._sim.schedule(
                soonest, self._on_completion_due
            )

    def _on_completion_due(self) -> None:
        self._completion_event = None
        self._advance()
        # Insertion order is flow-id order, so callbacks fire by id.
        done = [
            flow
            for flow in self._flows
            if flow.remaining <= _COMPLETION_EPSILON
        ]
        if not done:
            # Scheduled ETA drifted past the actual crossing by a few
            # ULPs; re-arm and let the next firing catch it.
            self._reschedule_completion()
            return
        now = self._sim.now
        for flow in done:
            flow.remaining = 0.0
            flow.completed_at = now
            self._remove_flow(flow)
        self._flush()
        for flow in done:
            if flow.on_complete is not None:
                flow.on_complete(flow)

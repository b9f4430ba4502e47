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

State that changes only when a flow starts or ends is kept between
solves instead of rebuilt by each one: every link's insertion-ordered
flow membership and the ``(cap, flow id)`` order of the capped flows.
Each solve still starts from every link's capacity and subtracts frozen
rates in the same order, so kept state never changes a rate's float.
A link's carried bytes are credited when a flow leaves it, not on every
advance.

The naive solver (global progressive filling on every update) lives in
the test suite as the executable specification the property tests
cross-check against.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
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
        "_names",
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
        self._names = tuple([link.name for link in route])
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


def _check_rate_limit(rate_limit: float | None) -> None:
    # ``not > 0`` also rejects NaN, which has no place in the cap order.
    if rate_limit is not None and not rate_limit > 0:
        raise NetworkError(
            f"rate_limit must be positive or None, got {rate_limit}"
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
        # Kept across solves; only start_flow, set_rate_limit and
        # _remove_flow change them.  Link name -> (link, its active
        # flows in id order), and the capped flows in (cap, id) order.
        self._links: dict[str, tuple[Link, dict[Flow, None]]] = {}
        self._capped: list[tuple[float, int, Flow]] = []
        self._flow_ids = itertools.count(1)
        self._last_update = 0.0
        self._completion_event: EventHandle | None = None
        # Bytes each removed flow moved, per link; summed exactly on
        # read so the total never decreases.
        self._link_bytes: dict[str, list[float]] = {}
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
        entry = self._links.get(link.name)
        return 0 if entry is None else len(entry[1])

    def bytes_carried(self, link: Link) -> float:
        """Cumulative bytes this link has carried (for utilization).

        Removed flows were credited when they left; active flows add
        what they have moved so far.
        """
        self._advance()
        parts = list(self._link_bytes.get(link.name, ()))
        entry = self._links.get(link.name)
        if entry is not None:
            parts.extend(flow.transferred for flow in entry[1])
        return math.fsum(parts)

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
            route: ordered links the flow traverses (non-empty, each
                link at most once).
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
        if len(set(route)) != len(route):
            raise NetworkError("flow route must not repeat a link")
        if size <= 0:
            raise NetworkError(f"flow size must be positive, got {size}")
        _check_rate_limit(rate_limit)
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
        links = self._links
        for link in route:
            entry = links.get(link.name)
            if entry is None:
                links[link.name] = (link, {flow: None})
            else:
                entry[1][flow] = None
        if rate_limit is not None:
            bisect.insort(self._capped, (rate_limit, flow.id, flow))
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
        _check_rate_limit(rate_limit)
        if not flow.active:
            return
        self._advance()
        if flow not in self._flows:
            flow.rate_limit = rate_limit
            return
        self._uncap(flow)
        flow.rate_limit = rate_limit
        if rate_limit is not None:
            bisect.insort(self._capped, (rate_limit, flow.id, flow))
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

    def _uncap(self, flow: Flow) -> None:
        """Drop ``flow``'s entry from the cap order, if it has one."""
        if flow.rate_limit is not None:
            capped = self._capped
            del capped[bisect.bisect_left(capped, (flow.rate_limit, flow.id))]

    def _remove_flow(self, flow: Flow) -> None:
        """Detach a finished/cancelled flow, credit its bytes, dirty."""
        del self._flows[flow]
        moved = flow.size - flow.remaining
        links = self._links
        link_bytes = self._link_bytes
        for name in flow._names:
            on_link = links[name][1]
            del on_link[flow]
            if not on_link:
                del links[name]
            if moved:
                link_bytes.setdefault(name, []).append(moved)
        self._uncap(flow)
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
            self._reschedule_completion(self._fill())

    def _fill(self) -> float:
        """Bottleneck-ordered max-min water-fill with rate caps.

        Each round freezes either the lowest-capped unfrozen flow at its
        cap (when that cap is at most the smallest link share) or every
        unfrozen flow on the smallest-share link at that share.  A
        share is a link's remaining capacity over its unfrozen flows;
        the heap holds one fresh entry per touched link and stale
        entries are dropped when they surface.

        Returns:
            The soonest completion ETA over the solved rates (``inf``
            when no flow moves), found in the window-floor pass.
        """
        links = self._links
        capped = self._capped
        remaining: dict[str, float] = {}
        unfrozen: dict[str, int] = {}
        heap: list[tuple[float, str]] = []
        for name, (link, on_link) in links.items():
            capacity = remaining[name] = link.capacity
            count = unfrozen[name] = len(on_link)
            heap.append((capacity / count, name))
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
                group = [
                    flow for flow in links[name][1] if flow not in frozen
                ]
            touched: dict[str, None] = {}
            for flow in group:
                flow._rate = rate
                frozen.add(flow)
                for link_name in flow._names:
                    remaining[link_name] -= rate
                    unfrozen[link_name] -= 1
                    touched[link_name] = None
            for touched_name in touched:
                count = unfrozen[touched_name]
                if count:
                    heapq.heappush(
                        heap, (remaining[touched_name] / count, touched_name)
                    )

        # TCP window floor: a share below ~MSS/RTT leaves a real
        # connection timeout-bound; goodput falls off quadratically.
        soonest = math.inf
        for flow in self._flows:
            rate = flow._rate
            floor = flow.min_efficient_rate
            if floor > 0 and 0 < rate < floor:
                rate = flow._rate = rate * rate / floor
            if rate > 0:
                eta = flow.remaining / rate
                if eta < soonest:
                    soonest = eta

        if self._resolves is not None:
            self._resolves.inc()
            self._resolved_flows.inc(len(self._flows))
        return soonest

    # ------------------------------------------------------------------
    # time advance and completions

    def _advance(self) -> None:
        """Credit every active flow with progress since the last update.

        Rates are constant across the advanced interval: the network
        can only be dirty within the current timestamp (the engine
        barrier flushes it before the clock moves), so the cached
        ``_rate`` values are exactly the rates that applied since
        ``_last_update``.
        """
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining = max(
                    0.0, flow.remaining - flow._rate * elapsed
                )
        self._last_update = now

    def _reschedule_completion(self, soonest: float | None = None) -> None:
        """Arm one event at the soonest full-completion ETA.

        ``soonest`` comes from the solve; without it the flows are
        rescanned (the drift re-arm in :meth:`_on_completion_due`).
        """
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if soonest is None:
            soonest = min(
                (
                    flow.remaining / flow._rate
                    for flow in self._flows
                    if flow._rate > 0
                ),
                default=math.inf,
            )
        if soonest < math.inf:
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

"""The global progressive-filling flow solver, kept as an executable spec.

:class:`ReferenceFlowNetwork` is the naive solver: every flow
arrival/departure/cap/capacity change triggers a *global* progressive
filling over all flows (rates rise together until a link saturates or
a flow hits its cap), byte accounting walks every flow's whole route
on every advance, and completions rescan every flow.
:class:`~repro.net.flownet.FlowNetwork` replaced it with one
bottleneck-ordered water-fill per coalesced timestamp.  The two reach
the same max-min allocation by different arithmetic, so this one is
deliberately simple and *defines* correctness for the other:

* the property tests in ``tests/net/test_incremental_solver.py``
  cross-check the production solver against it on randomized
  topologies, caps, and update schedules;
* ``benchmarks/bench_flownet.py`` uses it as the baseline the
  production solver's speedup is measured against.

It mirrors the public :class:`~repro.net.flownet.FlowNetwork` surface
(``start_flow`` / ``cancel_flow`` / ``set_rate_limit`` /
``set_capacity`` / ``bytes_carried`` / ``capacity_generation``) so the
TCP model and benchmark harnesses can drive either interchangeably.
Do not use it outside tests and benchmarks.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.errors import NetworkError
from repro.net.engine import EventHandle, Simulator
from repro.net.flownet import _COMPLETION_EPSILON, Flow
from repro.net.link import Link

#: Rate increments below this are treated as zero in progressive filling.
_RATE_EPSILON = 1e-9


class ReferenceFlowNetwork:
    """Globally re-solving max-min flow network (progressive filling)."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._flows: list[Flow] = []
        self._flow_ids = itertools.count(1)
        self._last_update = 0.0
        self._completion_event: EventHandle | None = None
        self._link_bytes: dict[str, float] = {}
        self._capacity_generation = 0

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
        """Bumped on every :meth:`set_capacity` (API parity)."""
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
        """Begin a transfer of ``size`` bytes over ``route``."""
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
        )
        self._flows.append(flow)
        self._recompute()
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an active flow (no completion callback fires)."""
        if not flow.active:
            return
        self._advance()
        flow.cancelled = True
        self._flows.remove(flow)
        self._recompute()

    def set_rate_limit(self, flow: Flow, rate_limit: float | None) -> None:
        """Change a flow's rate cap; triggers global resharing."""
        if rate_limit is not None and rate_limit <= 0:
            raise NetworkError(
                f"rate_limit must be positive or None, got {rate_limit}"
            )
        if not flow.active:
            return
        self._advance()
        flow.rate_limit = rate_limit
        self._recompute()

    def set_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity at runtime."""
        self._advance()
        link.capacity = capacity
        self._capacity_generation += 1
        self._recompute()

    # ------------------------------------------------------------------
    # internals

    def _advance(self) -> None:
        """Credit every active flow with progress since the last update."""
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                moved = flow._rate * elapsed
                flow.remaining = max(0.0, flow.remaining - moved)
                for link in flow.route:
                    self._link_bytes[link.name] = (
                        self._link_bytes.get(link.name, 0.0) + moved
                    )
        self._last_update = now

    def _recompute(self) -> None:
        """Re-solve all rates globally and reschedule the completion."""
        self._allocate_max_min()
        self._reschedule_completion()

    def _allocate_max_min(self) -> None:
        """Progressive-filling max-min fair allocation with rate caps."""
        unfrozen = set(self._flows)
        for flow in self._flows:
            flow._rate = 0.0
        link_remaining: dict[str, float] = {}
        link_unfrozen: dict[str, set[Flow]] = {}
        links: dict[str, Link] = {}
        for flow in self._flows:
            for link in flow.route:
                links[link.name] = link
                link_remaining.setdefault(link.name, link.capacity)
                link_unfrozen.setdefault(link.name, set()).add(flow)

        while unfrozen:
            delta = min(
                (
                    link_remaining[name] / len(members)
                    for name, members in link_unfrozen.items()
                    if members
                ),
                default=float("inf"),
            )
            # repro: lint-ok[D3] min() reduction is order-independent
            for flow in unfrozen:
                if flow.rate_limit is not None:
                    delta = min(delta, flow.rate_limit - flow._rate)
            if delta == float("inf"):
                break
            delta = max(delta, 0.0)

            if delta > 0:
                # repro: lint-ok[D3] same delta added to each flow
                for flow in unfrozen:
                    flow._rate += delta
                for name, members in link_unfrozen.items():
                    link_remaining[name] -= delta * len(members)

            newly_frozen = {
                flow
                # repro: lint-ok[D3] builds a set; order-free
                for flow in unfrozen
                if flow.rate_limit is not None
                and flow._rate >= flow.rate_limit - _RATE_EPSILON
            }
            for name, members in link_unfrozen.items():
                if link_remaining[name] <= _RATE_EPSILON * max(
                    1.0, links[name].capacity
                ):
                    newly_frozen |= members
            if not newly_frozen:
                if delta <= 0:
                    newly_frozen = set(unfrozen)
                else:
                    continue
            unfrozen -= newly_frozen
            for members in link_unfrozen.values():
                members -= newly_frozen

        for flow in self._flows:
            floor = flow.min_efficient_rate
            if floor > 0 and 0 < flow._rate < floor:
                flow._rate = flow._rate * flow._rate / floor

    def _reschedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        soonest: float | None = None
        for flow in self._flows:
            if flow._rate <= 0:
                continue
            eta = flow.remaining / flow._rate
            if soonest is None or eta < soonest:
                soonest = eta
        if soonest is not None:
            self._completion_event = self._sim.schedule(
                soonest, self._on_completion_due
            )

    def _on_completion_due(self) -> None:
        self._completion_event = None
        self._advance()
        done = [
            flow
            for flow in self._flows
            if flow.remaining <= _COMPLETION_EPSILON
        ]
        for flow in done:
            flow.remaining = 0.0
            flow.completed_at = self._sim.now
            self._flows.remove(flow)
        self._recompute()
        for flow in done:
            if flow.on_complete is not None:
                flow.on_complete(flow)

"""Production solver vs the brute-force global reference.

:class:`~repro.net.flownet.FlowNetwork` runs one bottleneck-ordered
water-fill over all active flows, once per coalesced timestamp;
:class:`~tests.net.reference.ReferenceFlowNetwork` runs global
progressive filling on every update.  For randomized topologies, caps,
and update schedules (including same-instant bursts), both must agree
on every observable: allocated rates, completion sets and times, and
per-link byte accounting.

Agreement is asserted to a tight relative tolerance rather than
bit-for-bit: the two algorithms reach the same max-min allocation by
different float operations (a water-fill share is remaining capacity
over unfrozen flows; a progressive-filling rate is a sum of uniform
increments), so they may round differently in the last ULP.

What *is* exact is decomposition: a flow's water-fill rate depends only
on its own link-connected part of the network.  Running two
link-disjoint parts on one network must give every flow the very same
float it gets when its part runs alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.engine import Simulator
from repro.net.flownet import FlowNetwork
from repro.net.link import Link
from tests.net.reference import ReferenceFlowNetwork

_REL = 1e-9


@st.composite
def update_schedules(draw):
    """Random links plus a timed schedule of network updates.

    Delays are drawn from a small set that includes zero so several
    updates frequently land on the same simulated instant — the
    coalescing path must behave identically to back-to-back global
    re-solves.
    """
    n_links = draw(st.integers(min_value=1, max_value=5))
    capacities = [
        draw(st.floats(min_value=10.0, max_value=10_000.0))
        for _ in range(n_links)
    ]
    n_ops = draw(st.integers(min_value=1, max_value=12))
    ops = []
    time = 0.0
    for _ in range(n_ops):
        time += draw(st.sampled_from([0.0, 0.0, 0.01, 0.5, 1.7]))
        kind = draw(
            st.sampled_from(
                ["start", "start", "start", "cancel", "limit", "capacity"]
            )
        )
        if kind == "start":
            route = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_links - 1),
                    min_size=1,
                    max_size=n_links,
                    unique=True,
                )
            )
            size = draw(st.floats(min_value=10.0, max_value=5_000.0))
            limit = draw(
                st.one_of(
                    st.none(),
                    st.floats(min_value=1.0, max_value=20_000.0),
                )
            )
            floor = draw(
                st.sampled_from([0.0, 0.0, 50.0, 400.0])
            )
            ops.append((time, "start", (route, size, limit, floor)))
        elif kind == "cancel":
            ops.append((time, "cancel", draw(st.integers(0, 11))))
        elif kind == "limit":
            limit = draw(
                st.one_of(
                    st.none(),
                    st.floats(min_value=1.0, max_value=20_000.0),
                )
            )
            ops.append((time, "limit", (draw(st.integers(0, 11)), limit)))
        else:
            value = draw(st.floats(min_value=10.0, max_value=10_000.0))
            ops.append(
                (time, "capacity", (draw(st.integers(0, n_links - 1)), value))
            )
    return capacities, ops


def _execute(network_cls, capacities, ops, probe=None):
    """Run one schedule against a network class; return observables.

    ``probe(network, links)``, when given, runs after every operation
    and every completion callback.
    """
    sim = Simulator()
    network = network_cls(sim)
    links = [
        Link(f"l{i}", capacity) for i, capacity in enumerate(capacities)
    ]
    started: list = []
    completions: dict[int, float] = {}

    def completed(index) -> None:
        completions.setdefault(index, sim.now)
        if probe is not None:
            probe(network, links)

    def apply(kind, payload) -> None:
        if kind == "start":
            route, size, limit, floor = payload
            index = len(started)
            started.append(
                network.start_flow(
                    [links[i] for i in route],
                    size,
                    rate_limit=limit,
                    on_complete=lambda f, i=index: completed(i),
                    min_efficient_rate=floor,
                )
            )
        elif kind == "cancel":
            if payload < len(started):
                network.cancel_flow(started[payload])
        elif kind == "limit":
            index, limit = payload
            if index < len(started) and started[index].active:
                network.set_rate_limit(started[index], limit)
        else:
            index, value = payload
            network.set_capacity(links[index], value)
        if probe is not None:
            probe(network, links)

    for time, kind, payload in ops:
        sim.schedule_at(time, apply, kind, payload)
    sim.run()
    rates = [flow.rate if flow.active else None for flow in started]
    carried = [network.bytes_carried(link) for link in links]
    return completions, rates, carried


class TestIncrementalMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(schedule=update_schedules())
    def test_same_completions_rates_and_accounting(self, schedule):
        capacities, ops = schedule
        ref_done, ref_rates, ref_carried = _execute(
            ReferenceFlowNetwork, capacities, ops
        )
        inc_done, inc_rates, inc_carried = _execute(
            FlowNetwork, capacities, ops
        )

        assert inc_done.keys() == ref_done.keys()
        for index, time in ref_done.items():
            assert inc_done[index] == pytest.approx(time, rel=_REL)
        assert len(inc_rates) == len(ref_rates)
        for incremental, reference in zip(inc_rates, ref_rates):
            if reference is None:
                assert incremental is None
            else:
                assert incremental == pytest.approx(reference, rel=_REL)
        for incremental, reference in zip(inc_carried, ref_carried):
            assert incremental == pytest.approx(
                reference, rel=1e-6, abs=1e-3
            )

    @settings(max_examples=100, deadline=None)
    @given(schedule=update_schedules())
    def test_incremental_solver_is_deterministic(self, schedule):
        capacities, ops = schedule
        first = _execute(FlowNetwork, capacities, ops)
        second = _execute(FlowNetwork, capacities, ops)
        assert first == second


def _check_kept_state(network, links):
    """The state kept across solves equals a rebuild from ``_flows``."""
    flows = list(network._flows)
    members: dict[str, list] = {}
    for flow in flows:
        for link in flow.route:
            members.setdefault(link.name, []).append(flow)
    assert {
        name: list(on_link) for name, (_, on_link) in network._links.items()
    } == members
    assert network._capped == sorted(
        (flow.rate_limit, flow.id, flow)
        for flow in flows
        if flow.rate_limit is not None
    )
    for link in links:
        assert network.flows_on(link) == sum(
            link in flow.route for flow in flows
        )
    # A from-scratch solve over the same flows, started in the same
    # (id) order, gives the very same floats.
    fresh = FlowNetwork(Simulator())
    twins = [
        fresh.start_flow(
            flow.route,
            flow.size,
            rate_limit=flow.rate_limit,
            min_efficient_rate=flow.min_efficient_rate,
        )
        for flow in flows
    ]
    assert [flow.rate for flow in flows] == [twin.rate for twin in twins]


class TestKeptState:
    @settings(max_examples=200, deadline=None)
    @given(schedule=update_schedules())
    def test_membership_cap_order_and_rates_match_a_rebuild(self, schedule):
        capacities, ops = schedule
        _execute(FlowNetwork, capacities, ops, probe=_check_kept_state)


class TestByteAccounting:
    @settings(max_examples=200, deadline=None)
    @given(schedule=update_schedules())
    def test_bytes_carried_tracks_reference_and_never_decreases(
        self, schedule
    ):
        capacities, ops = schedule
        samples: dict[type, list[list[float]]] = {}
        for network_cls in (ReferenceFlowNetwork, FlowNetwork):
            taken = samples[network_cls] = []
            _execute(
                network_cls,
                capacities,
                ops,
                probe=lambda network, links, taken=taken: taken.append(
                    [network.bytes_carried(link) for link in links]
                ),
            )
        reference = samples[ReferenceFlowNetwork]
        incremental = samples[FlowNetwork]
        assert len(incremental) == len(reference)
        for got, want in zip(incremental, reference):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-3)
        for earlier, later in zip(incremental, incremental[1:]):
            assert all(b >= a for a, b in zip(earlier, later))


class TestStaticAllocationParity:
    """Pure-allocation cross-check: rates right after a burst of starts."""

    @settings(max_examples=200, deadline=None)
    @given(schedule=update_schedules())
    def test_rates_match_before_any_time_passes(self, schedule):
        capacities, ops = schedule
        starts = [op for op in ops if op[1] == "start"]

        def allocate(network_cls):
            sim = Simulator()
            network = network_cls(sim)
            links = [
                Link(f"l{i}", capacity)
                for i, capacity in enumerate(capacities)
            ]
            flows = [
                network.start_flow(
                    [links[i] for i in route],
                    size,
                    rate_limit=limit,
                    min_efficient_rate=floor,
                )
                for _, _, (route, size, limit, floor) in starts
            ]
            return [flow.rate for flow in flows]

        reference = allocate(ReferenceFlowNetwork)
        incremental = allocate(FlowNetwork)
        for got, want in zip(incremental, reference):
            assert got == pytest.approx(want, rel=_REL)


@st.composite
def disjoint_parts(draw):
    """Two link-disjoint random sub-networks and an interleaving.

    Capacities and caps mix free floats with a few fixed values so that
    equal caps, equal link shares, cap-equals-share ties, and shares
    that differ only in the last bits (thirds reached by different
    float operations) all occur.
    """
    capacity = st.one_of(
        st.sampled_from([90.0, 100.0, 200.0, 300.0, 900.0]),
        st.floats(min_value=10.0, max_value=10_000.0),
    )
    cap = st.one_of(
        st.none(),
        st.sampled_from([30.0, 100.0 / 3, 50.0, 100.0, 150.0]),
        st.floats(min_value=1.0, max_value=20_000.0),
    )
    parts = []
    for prefix in ("a", "b"):
        n_links = draw(st.integers(min_value=1, max_value=4))
        capacities = [draw(capacity) for _ in range(n_links)]
        flows = [
            (
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=n_links - 1),
                        min_size=1,
                        max_size=n_links,
                        unique=True,
                    )
                ),
                draw(cap),
                draw(st.sampled_from([0.0, 0.0, 50.0, 400.0])),
            )
            for _ in range(draw(st.integers(min_value=1, max_value=8)))
        ]
        parts.append((prefix, capacities, flows))
    if draw(st.booleans()):
        # A near-copy of the first part: every share differs from its
        # twin's in the last bits, the case a tolerance would merge.
        scale = 1.0 + draw(st.sampled_from([1e-15, 1e-12, 1e-10]))
        _, capacities, flows = parts[0]
        parts[1] = (
            "b",
            [capacity * scale for capacity in capacities],
            [
                (route, None if limit is None else limit * scale, floor)
                for route, limit, floor in flows
            ],
        )
    order = draw(
        st.permutations([0] * len(parts[0][2]) + [1] * len(parts[1][2]))
    )
    return parts, order


def _start_parts(parts, order):
    """Start every flow of ``parts`` in ``order``; return rates per part."""
    network = FlowNetwork(Simulator())
    links = [
        [Link(f"{prefix}{i}", capacity) for i, capacity in enumerate(caps)]
        for prefix, caps, _ in parts
    ]
    pending = [iter(flows) for _, _, flows in parts]
    started: list[list] = [[] for _ in parts]
    for index in order:
        route, limit, floor = next(pending[index])
        started[index].append(
            network.start_flow(
                [links[index][i] for i in route],
                1e9,
                rate_limit=limit,
                min_efficient_rate=floor,
            )
        )
    return [[flow.rate for flow in flows] for flows in started]


class TestExactDecomposition:
    @settings(max_examples=300, deadline=None)
    @given(case=disjoint_parts())
    def test_disjoint_parts_get_their_solo_rates_exactly(self, case):
        parts, order = case
        together = _start_parts(parts, order)
        for index, part in enumerate(parts):
            alone = _start_parts([part], [0] * len(part[2]))[0]
            assert together[index] == alone

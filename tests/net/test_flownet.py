"""Tests for the max-min fair flow network."""

import pytest

from repro.errors import NetworkError
from repro.net.engine import Simulator
from repro.net.flownet import FlowNetwork
from repro.net.link import Link


@pytest.fixture()
def net():
    sim = Simulator()
    return sim, FlowNetwork(sim)


class TestBasics:
    def test_single_flow_uses_full_capacity(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        done = []
        network.start_flow([link], 2000.0, on_complete=lambda f: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_flow_requires_route(self, net):
        _, network = net
        with pytest.raises(NetworkError):
            network.start_flow([], 100.0)

    def test_flow_requires_positive_size(self, net):
        _, network = net
        with pytest.raises(NetworkError):
            network.start_flow([Link("l", 1)], 0.0)

    def test_invalid_rate_limit_rejected(self, net):
        _, network = net
        with pytest.raises(NetworkError):
            network.start_flow([Link("l", 1)], 1.0, rate_limit=0.0)

    def test_nan_rate_limit_rejected(self, net):
        _, network = net
        link = Link("l", 1)
        with pytest.raises(NetworkError):
            network.start_flow([link], 1.0, rate_limit=float("nan"))
        flow = network.start_flow([link], 1.0)
        with pytest.raises(NetworkError):
            network.set_rate_limit(flow, float("nan"))

    def test_route_must_not_repeat_a_link(self, net):
        _, network = net
        link = Link("l", 1)
        with pytest.raises(NetworkError):
            network.start_flow([link, Link("m", 1), link], 1.0)

    def test_transferred_tracks_progress(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        flow = network.start_flow([link], 2000.0)
        sim.schedule(1.0, lambda: None)
        sim.run(until=1.0)
        network._advance()
        assert flow.transferred == pytest.approx(1000.0)


class TestFairSharing:
    def test_equal_split_on_shared_link(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = {}
        network.start_flow(
            [link], 1000.0, on_complete=lambda f: ends.setdefault("a", sim.now)
        )
        network.start_flow(
            [link], 1000.0, on_complete=lambda f: ends.setdefault("b", sim.now)
        )
        sim.run()
        # Both share 500 B/s until the first finishes; identical sizes
        # finish together at 2 s.
        assert ends["a"] == pytest.approx(2.0)
        assert ends["b"] == pytest.approx(2.0)

    def test_remaining_flow_speeds_up_after_completion(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = {}
        network.start_flow(
            [link], 500.0, on_complete=lambda f: ends.setdefault("small", sim.now)
        )
        network.start_flow(
            [link], 1500.0, on_complete=lambda f: ends.setdefault("big", sim.now)
        )
        sim.run()
        # Share 500 each: small done at 1 s (500 B); big then has 1000 B
        # left at full 1000 B/s -> done at 2 s.
        assert ends["small"] == pytest.approx(1.0)
        assert ends["big"] == pytest.approx(2.0)

    def test_bottleneck_on_second_link(self, net):
        sim, network = net
        fat = Link("fat", 10_000.0)
        thin = Link("thin", 100.0)
        done = []
        network.start_flow(
            [fat, thin], 200.0, on_complete=lambda f: done.append(sim.now)
        )
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_rate_limit_caps_flow(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        done = []
        network.start_flow(
            [link],
            500.0,
            rate_limit=100.0,
            on_complete=lambda f: done.append(sim.now),
        )
        sim.run()
        assert done == [pytest.approx(5.0)]

    def test_capped_flow_releases_share_to_others(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = {}
        network.start_flow(
            [link],
            100.0,
            rate_limit=100.0,
            on_complete=lambda f: ends.setdefault("capped", sim.now),
        )
        network.start_flow(
            [link],
            900.0,
            on_complete=lambda f: ends.setdefault("free", sim.now),
        )
        sim.run()
        # Capped flow gets 100, free flow gets the remaining 900.
        assert ends["capped"] == pytest.approx(1.0)
        assert ends["free"] == pytest.approx(1.0)

    def test_max_min_three_flows_two_links(self, net):
        sim, network = net
        a = Link("a", 300.0)
        b = Link("b", 900.0)
        rates = {}
        f1 = network.start_flow([a], 1e9)
        f2 = network.start_flow([a, b], 1e9)
        f3 = network.start_flow([b], 1e9)
        # a: f1+f2 share 300 -> 150 each; b: f3 gets 900-150 = 750.
        assert f1.rate == pytest.approx(150.0)
        assert f2.rate == pytest.approx(150.0)
        assert f3.rate == pytest.approx(750.0)


class TestDynamics:
    def test_cancel_stops_flow_without_callback(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        done = []
        flow = network.start_flow(
            [link], 1000.0, on_complete=lambda f: done.append("x")
        )
        network.cancel_flow(flow)
        sim.run()
        assert done == []
        assert not flow.active

    def test_cancel_releases_capacity(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = []
        slow = network.start_flow([link], 10_000.0)
        network.start_flow(
            [link], 1000.0, on_complete=lambda f: ends.append(sim.now)
        )
        sim.schedule(0.5, lambda: network.cancel_flow(slow))
        sim.run()
        # 0.5 s at 500 B/s = 250 B, then 750 B at 1000 B/s.
        assert ends == [pytest.approx(1.25)]

    def test_set_rate_limit_mid_flight(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = []
        flow = network.start_flow(
            [link],
            1000.0,
            rate_limit=100.0,
            on_complete=lambda f: ends.append(sim.now),
        )
        sim.schedule(1.0, lambda: network.set_rate_limit(flow, 900.0))
        sim.run()
        # 100 B in the first second, then 900 B at 900 B/s.
        assert ends == [pytest.approx(2.0)]

    def test_set_capacity_mid_flight(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = []
        network.start_flow(
            [link], 2000.0, on_complete=lambda f: ends.append(sim.now)
        )
        sim.schedule(1.0, lambda: network.set_capacity(link, 500.0))
        sim.run()
        # 1000 B in the first second, then 1000 B at 500 B/s.
        assert ends == [pytest.approx(3.0)]

    def test_window_floor_degrades_goodput(self, net):
        sim, network = net
        link = Link("l", 100.0)
        ends = []
        network.start_flow(
            [link],
            100.0,
            min_efficient_rate=200.0,
            on_complete=lambda f: ends.append(sim.now),
        )
        sim.run()
        # Share 100 < floor 200 -> goodput 100 * 100/200 = 50 B/s.
        assert ends == [pytest.approx(2.0)]

    def test_window_floor_inactive_above_floor(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = []
        network.start_flow(
            [link],
            1000.0,
            min_efficient_rate=200.0,
            on_complete=lambda f: ends.append(sim.now),
        )
        sim.run()
        assert ends == [pytest.approx(1.0)]


class TestAccounting:
    def test_bytes_carried(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        network.start_flow([link], 1500.0)
        sim.run()
        assert network.bytes_carried(link) == pytest.approx(1500.0)

    def test_flows_on_counts_active(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        network.start_flow([link], 1e6)
        network.start_flow([link], 1e6)
        assert network.flows_on(link) == 2

    def test_conservation_across_many_flows(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        total = 0.0
        for size in (100.0, 300.0, 700.0, 1100.0):
            network.start_flow([link], size)
            total += size
        sim.run()
        assert network.bytes_carried(link) == pytest.approx(total)


class TestSameTimestampEdgeCases:
    def test_cancel_scheduled_at_completion_timestamp(self, net):
        # A completes at t=1.0 and a cancel of B lands at the same
        # instant: the cancel must not resurrect or complete B, and the
        # survivor picks up the freed share.
        sim, network = net
        link = Link("l", 1000.0)
        ends = {}
        network.start_flow(
            [link], 500.0, on_complete=lambda f: ends.setdefault("a", sim.now)
        )
        b = network.start_flow(
            [link], 5000.0, on_complete=lambda f: ends.setdefault("b", sim.now)
        )
        sim.schedule(1.0, lambda: network.cancel_flow(b))
        sim.run()
        # A and B share 500 each until t=1.0, when A finishes (500 B)
        # and B is cancelled in the same instant.
        assert ends == {"a": pytest.approx(1.0)}
        assert b.cancelled and not b.active

    def test_completion_callback_cancels_sibling_same_timestamp(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = {}
        b = network.start_flow(
            [link], 5000.0, on_complete=lambda f: ends.setdefault("b", sim.now)
        )
        network.start_flow(
            [link],
            500.0,
            on_complete=lambda f: (
                ends.setdefault("a", sim.now),
                network.cancel_flow(b),
            ),
        )
        c = network.start_flow([link], 1e9)
        sim.run(until=2.0)
        assert ends == {"a": pytest.approx(1.5)}
        assert not b.active
        # With A done and B cancelled, C owns the whole link.
        assert c.rate == pytest.approx(1000.0)

    def test_epsilon_completion_sweeps_other_links(self, net):
        # B sits within the completion epsilon on a link A does not
        # cross when A's completion event fires; the sweep must still
        # pick it up at the same instant.
        sim, network = net
        a_link = Link("a", 1000.0)
        b_link = Link("b", 1000.0)
        ends = {}
        network.start_flow(
            [a_link], 1000.0, on_complete=lambda f: ends.setdefault("a", sim.now)
        )
        network.start_flow(
            [b_link],
            1000.0005,
            on_complete=lambda f: ends.setdefault("b", sim.now),
        )
        sim.run()
        assert ends["a"] == pytest.approx(1.0)
        assert ends["b"] == ends["a"]


class TestMinEfficientRateEdgeCases:
    def test_capacity_drop_mid_flow_retriggers_penalty(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = []
        network.start_flow(
            [link],
            2000.0,
            min_efficient_rate=200.0,
            on_complete=lambda f: ends.append(sim.now),
        )
        sim.schedule(1.0, lambda: network.set_capacity(link, 100.0))
        sim.run()
        # 1000 B in the first second above the floor; then the share
        # drops to 100 < 200, goodput 100^2/200 = 50 B/s for 1000 B.
        assert ends == [pytest.approx(21.0)]

    def test_rate_cap_below_floor_is_penalized(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = []
        network.start_flow(
            [link],
            100.0,
            rate_limit=100.0,
            min_efficient_rate=200.0,
            on_complete=lambda f: ends.append(sim.now),
        )
        sim.run()
        # Capped at 100 < floor 200 -> goodput 100^2/200 = 50 B/s.
        assert ends == [pytest.approx(2.0)]

    def test_cap_above_floor_unaffected(self, net):
        sim, network = net
        link = Link("l", 1000.0)
        ends = []
        network.start_flow(
            [link],
            500.0,
            rate_limit=500.0,
            min_efficient_rate=200.0,
            on_complete=lambda f: ends.append(sim.now),
        )
        sim.run()
        assert ends == [pytest.approx(1.0)]


class TestPerNetworkFlowIds:
    def test_ids_start_at_one_per_network(self):
        for _ in range(2):
            sim = Simulator()
            network = FlowNetwork(sim)
            link = Link("l", 1000.0)
            first = network.start_flow([link], 1.0)
            second = network.start_flow([link], 1.0)
            assert first.id == 1
            assert second.id == 2

    def test_concurrent_networks_do_not_share_ids(self):
        sim_a, sim_b = Simulator(), Simulator()
        net_a, net_b = FlowNetwork(sim_a), FlowNetwork(sim_b)
        flow_a = net_a.start_flow([Link("a", 1.0)], 1.0)
        flow_b = net_b.start_flow([Link("b", 1.0)], 1.0)
        assert flow_a.id == flow_b.id == 1


class TestIncrementalRecomputation:
    @staticmethod
    def _instrumented():
        from repro.obs.metrics import MetricsRegistry

        sim = Simulator()
        registry = MetricsRegistry()
        network = FlowNetwork(sim, registry=registry)
        return sim, network, registry

    def test_same_timestamp_starts_coalesce_into_one_solve(self):
        sim, network, registry = self._instrumented()
        link = Link("l", 1000.0)
        flows = [network.start_flow([link], 1e6) for _ in range(4)]
        sim.run(until=0.5)
        assert registry.counter("net.flownet.updates").value == 4
        assert registry.counter("net.flownet.coalesced_updates").value == 3
        assert registry.counter("net.flownet.resolves").value == 1
        assert registry.counter("net.flownet.resolved_flows").value == 4
        assert all(f.rate == pytest.approx(250.0) for f in flows)

    def test_cap_change_keeps_disjoint_flow_rate(self):
        sim, network, registry = self._instrumented()
        a = Link("a", 1000.0)
        b = Link("b", 800.0)
        flow_a = network.start_flow([a], 1e9)
        flow_b = network.start_flow([b], 1e9)
        sim.run(until=1.0)
        solves_before = registry.counter("net.flownet.resolves").value
        network.set_rate_limit(flow_a, 300.0)
        sim.run(until=2.0)
        # One coalesced solve; flow_b's rate on its own link holds.
        assert (
            registry.counter("net.flownet.resolves").value
            == solves_before + 1
        )
        assert flow_a.rate == pytest.approx(300.0)
        assert flow_b.rate == pytest.approx(800.0)

    def test_bridging_flow_couples_rates_across_links(self):
        sim, network, _ = self._instrumented()
        a = Link("a", 300.0)
        b = Link("b", 900.0)
        f1 = network.start_flow([a], 1e9)
        f3 = network.start_flow([b], 1e9)
        f2 = network.start_flow([a, b], 1e9)
        # a: f1+f2 share 300 -> 150 each; b: f3 gets 900-150 = 750.
        assert f1.rate == pytest.approx(150.0)
        assert f2.rate == pytest.approx(150.0)
        assert f3.rate == pytest.approx(750.0)

    def test_bridge_cancel_restores_solo_link_rates(self):
        sim, network, registry = self._instrumented()
        a = Link("a", 300.0)
        b = Link("b", 900.0)
        f1 = network.start_flow([a], 1e9)
        bridge = network.start_flow([a, b], 1e9)
        f3 = network.start_flow([b], 1e9)
        sim.run(until=1.0)
        network.cancel_flow(bridge)
        sim.run(until=2.0)
        assert f1.rate == pytest.approx(300.0)
        assert f3.rate == pytest.approx(900.0)
        # Without the bridge, churn on one link leaves the other alone.
        solves_before = registry.counter("net.flownet.resolves").value
        network.set_rate_limit(f1, 100.0)
        sim.run(until=3.0)
        assert (
            registry.counter("net.flownet.resolves").value
            == solves_before + 1
        )
        assert registry.counter("net.flownet.resolved_flows").value >= 1
        assert f3.rate == pytest.approx(900.0)

    def test_rates_are_fresh_without_running_the_sim(self):
        sim = Simulator()
        network = FlowNetwork(sim)
        link = Link("l", 1000.0)
        first = network.start_flow([link], 1e6)
        assert first.rate == pytest.approx(1000.0)
        second = network.start_flow([link], 1e6)
        # Reading a rate flushes the deferred re-solve.
        assert first.rate == pytest.approx(500.0)
        assert second.rate == pytest.approx(500.0)

"""Integration tests for full swarm sessions."""

import pytest

from repro.core.policy import FixedPoolPolicy
from repro.core.splicer import DurationSplicer, GopSplicer
from repro.errors import ConfigurationError, SwarmError
from repro.p2p.churn import ChurnConfig
from repro.p2p.swarm import Swarm, SwarmConfig, SwarmResult
from repro.units import kB_per_s


def small_config(**overrides):
    defaults = dict(
        bandwidth=kB_per_s(512),
        seeder_bandwidth=kB_per_s(1024),
        n_leechers=4,
        seed=3,
        join_stagger=1.0,
        max_time=600.0,
    )
    defaults.update(overrides)
    return SwarmConfig(**defaults)


@pytest.fixture(scope="module")
def splice(short_video):
    return DurationSplicer(4.0).splice(short_video)


class TestConfigValidation:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            SwarmConfig(bandwidth=0)

    def test_zero_leechers_rejected(self):
        with pytest.raises(ConfigurationError):
            SwarmConfig(bandwidth=1, n_leechers=0)

    def test_negative_stagger_rejected(self):
        with pytest.raises(ConfigurationError):
            SwarmConfig(bandwidth=1, join_stagger=-1)

    @pytest.mark.parametrize(
        "field",
        [
            "bandwidth",
            "seeder_bandwidth",
            "bandwidth_hint",
            "peer_rtt",
            "seeder_rtt",
            "join_stagger",
            "max_time",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_setting_rejected(self, field, value):
        settings = {"bandwidth": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=field):
            SwarmConfig(**settings)


class TestFullSession(object):
    def test_everyone_finishes(self, splice):
        result = Swarm(splice, small_config()).run()
        assert result.all_finished
        assert len(result.finished_metrics()) == 4

    def test_metrics_per_peer(self, splice):
        result = Swarm(splice, small_config()).run()
        assert set(result.metrics) == {
            "peer-1",
            "peer-2",
            "peer-3",
            "peer-4",
        }
        for metrics in result.metrics.values():
            assert metrics.startup_time > 0
            assert metrics.bytes_downloaded == pytest.approx(
                splice.total_size
            )

    def test_deterministic_for_seed(self, splice):
        a = Swarm(splice, small_config(seed=9)).run()
        b = Swarm(splice, small_config(seed=9)).run()
        assert a.mean_startup_time() == b.mean_startup_time()
        assert a.mean_stall_count() == b.mean_stall_count()

    def test_peers_share_upload_load(self, splice):
        result = Swarm(splice, small_config(n_leechers=6)).run()
        assert result.peer_bytes_uploaded > 0

    def test_control_messages_flow(self, splice):
        result = Swarm(splice, small_config()).run()
        assert result.control_messages > 10

    def test_gop_splicing_also_streams(self, short_video):
        gop = GopSplicer().splice(short_video)
        result = Swarm(gop, small_config()).run()
        assert result.all_finished

    def test_seeder_bandwidth_defaults_to_peer(self, splice):
        config = SwarmConfig(
            bandwidth=kB_per_s(512),
            n_leechers=2,
            seed=1,
            max_time=600.0,
        )
        swarm = Swarm(splice, config)
        assert swarm.seeder.node.bandwidth == pytest.approx(
            kB_per_s(512)
        )

    def test_seeder_control_latency_is_seeder_rtt(self, splice):
        swarm = Swarm(splice, small_config())
        delay = swarm.control.delay("peer-1", "seeder")
        assert delay == pytest.approx(0.25)  # half of the 500 ms RTT

    def test_peer_control_latency_is_peer_rtt(self, splice):
        swarm = Swarm(splice, small_config())
        delay = swarm.control.delay("peer-1", "peer-2")
        assert delay == pytest.approx(0.025)


class TestSetPeerBandwidth:
    def test_set_peer_bandwidth_validates(self, splice):
        swarm = Swarm(splice, small_config())
        with pytest.raises(ConfigurationError, match="bandwidth"):
            swarm.set_peer_bandwidth(0.0)


class TestPolicies:
    def test_fixed_policy_plumbed(self, splice):
        config = small_config(policy=FixedPoolPolicy(2))
        swarm = Swarm(splice, config)
        result = swarm.run()
        assert result.all_finished

    def test_origin_one_at_a_time(self, splice):
        config = small_config(origin_one_at_a_time=True)
        swarm = Swarm(splice, config)
        assert swarm.leechers[0].config.cdn_sources == frozenset(
            {"seeder"}
        )
        result = swarm.run()
        assert result.all_finished


class TestChurnIntegration:
    def test_departures_recorded(self, splice):
        config = small_config(
            n_leechers=6,
            churn=ChurnConfig(
                fraction=0.9, mean_lifetime=10.0, min_lifetime=3.0
            ),
        )
        result = Swarm(splice, config).run()
        assert len(result.departed) > 0

    def test_survivors_still_finish(self, splice):
        config = small_config(
            n_leechers=6,
            churn=ChurnConfig(
                fraction=0.5, mean_lifetime=15.0, min_lifetime=5.0
            ),
        )
        result = Swarm(splice, config).run()
        departed = set(result.departed)
        survivors = [
            m
            for name, m in result.metrics.items()
            if name not in departed
        ]
        assert survivors
        assert all(m.finished for m in survivors)


class TestSwarmResult:
    def test_aggregates_raise_without_finishers(self):
        result = SwarmResult(
            metrics={},
            seeder_bytes_uploaded=0,
            peer_bytes_uploaded=0,
            control_messages=0,
            departed=(),
            end_time=0.0,
        )
        with pytest.raises(SwarmError):
            result.mean_stall_count()
        with pytest.raises(SwarmError):
            result.mean_startup_time()

"""Tests for the Cluster builder API and GroupNode wiring."""

import pytest

from repro.core.config import SpindleConfig
from repro.workloads import Cluster, continuous_sender


class TestClusterLifecycle:
    def test_requires_at_least_one_node(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_requires_subgroup_before_build(self):
        cluster = Cluster(2)
        with pytest.raises(RuntimeError, match="at least one subgroup"):
            cluster.build()

    def test_cannot_build_twice(self):
        cluster = Cluster(2)
        cluster.add_subgroup(message_size=64, window=2)
        cluster.build()
        with pytest.raises(RuntimeError, match="already built"):
            cluster.build()

    def test_cannot_add_subgroup_after_build(self):
        cluster = Cluster(2)
        cluster.add_subgroup(message_size=64, window=2)
        cluster.build()
        with pytest.raises(RuntimeError, match="already built"):
            cluster.add_subgroup()

    def test_cannot_enable_membership_after_build(self):
        cluster = Cluster(2)
        cluster.add_subgroup(message_size=64, window=2)
        cluster.build()
        with pytest.raises(RuntimeError, match="already built"):
            cluster.enable_membership()

    def test_subgroup_ids_sequential(self):
        cluster = Cluster(3)
        a = cluster.add_subgroup(message_size=64, window=2)
        b = cluster.add_subgroup(message_size=64, window=2)
        assert (a.subgroup_id, b.subgroup_id) == (0, 1)

    def test_non_member_has_no_endpoint(self):
        cluster = Cluster(3)
        cluster.add_subgroup(members=[0, 1], message_size=64, window=2)
        cluster.build()
        with pytest.raises(KeyError):
            cluster.mc(2, 0)

    def test_stop_parks_threads(self):
        cluster = Cluster(2)
        cluster.add_subgroup(message_size=64, window=2)
        cluster.build()
        cluster.run(until=1e-4)
        cluster.stop()
        cluster.run()
        assert all(not g.thread.running for g in cluster.groups.values())


class TestMetricsApi:
    def build_loaded(self):
        cluster = Cluster(3, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=512, window=8)
        cluster.build()
        for nid in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=30, size=512))
        cluster.run_to_quiescence()
        return cluster

    def test_per_node_throughput_covers_members(self):
        cluster = self.build_loaded()
        rates = cluster.per_node_throughput(0)
        assert sorted(rates) == [0, 1, 2]
        assert all(r > 0 for r in rates.values())

    def test_aggregate_is_mean_of_per_node(self):
        cluster = self.build_loaded()
        rates = cluster.per_node_throughput(0)
        assert cluster.aggregate_throughput(0) == pytest.approx(
            sum(rates.values()) / 3)

    def test_total_delivered(self):
        cluster = self.build_loaded()
        assert cluster.total_delivered(0) == 3 * 90

    def test_assert_all_delivered_detects_shortfall(self):
        cluster = self.build_loaded()
        with pytest.raises(AssertionError, match="delivered"):
            cluster.assert_all_delivered(0, per_sender=31)

    def test_mean_latency_positive_under_load(self):
        cluster = self.build_loaded()
        assert cluster.mean_latency(0) > 0


class TestSeedIsolation:
    def test_different_seeds_same_results_for_deterministic_load(self):
        """Without random workload elements, seeds don't change outcomes
        (determinism is structural, not RNG-dependent)."""
        def run(seed):
            cluster = Cluster(2, config=SpindleConfig.optimized(), seed=seed)
            cluster.add_subgroup(message_size=128, window=4)
            cluster.build()
            for nid in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(nid, 0), count=15, size=128))
            cluster.run_to_quiescence()
            return cluster.sim.now

        assert run(1) == run(2)

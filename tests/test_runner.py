"""Tests for the experiment runner (workloads.runner)."""

import pytest

from repro.core.config import SpindleConfig
from repro.rdma.latency import LatencyModel
from repro.sim.units import us
from repro.workloads import (
    delayed_senders, multi_subgroup, sender_set, single_subgroup)

#: Egress bandwidth of one NIC (100 Gbps, §4).
LINK = LatencyModel().link_bandwidth


class TestSingleSubgroup:
    def test_returns_complete_result(self):
        result = single_subgroup(3, "all", SpindleConfig.optimized(),
                                 message_size=1024, count=30, window=8)
        assert result.throughput > 0
        assert result.latency > 0
        assert result.delivered_per_node == 90
        assert result.rdma_writes > 0
        assert result.duration > 0

    def test_pattern_controls_senders(self):
        one = single_subgroup(4, "one", SpindleConfig.optimized(),
                              message_size=1024, count=30, window=8)
        all_ = single_subgroup(4, "all", SpindleConfig.optimized(),
                               message_size=1024, count=30, window=8)
        assert one.delivered_per_node == 30
        assert all_.delivered_per_node == 120

    def test_custom_latency_model(self):
        rdma = single_subgroup(3, "all", SpindleConfig.optimized(),
                               message_size=10240, count=40)
        tcp = single_subgroup(3, "all", SpindleConfig.optimized(),
                              message_size=10240, count=40,
                              latency_model=LatencyModel.tcp(),
                              max_time=300.0)
        assert tcp.throughput < rdma.throughput

    def test_seed_reproducibility(self):
        a = single_subgroup(3, "all", count=25, message_size=512, seed=3)
        b = single_subgroup(3, "all", count=25, message_size=512, seed=3)
        assert a.throughput == b.throughput
        assert a.latency == b.latency
        assert a.rdma_writes == b.rdma_writes


class TestMultiSubgroup:
    def test_inactive_subgroups_cost_baseline_throughput(self):
        solo = multi_subgroup(3, num_subgroups=1, active_subgroups=1,
                              config=SpindleConfig.baseline(),
                              message_size=1024, count=25, window=8)
        crowded = multi_subgroup(3, num_subgroups=10, active_subgroups=1,
                                 config=SpindleConfig.baseline(),
                                 message_size=1024, count=25, window=8)
        assert crowded.throughput < solo.throughput

    def test_active_fraction_extra_recorded(self):
        result = multi_subgroup(3, num_subgroups=4, active_subgroups=1,
                                message_size=1024, count=20, window=8)
        assert 0 < result.extras["active_fraction_node0"] <= 1.0

    def test_multiple_active_subgroups_aggregate(self):
        result = multi_subgroup(3, num_subgroups=2, active_subgroups=2,
                                message_size=1024, count=20, window=8)
        assert result.throughput > 0


class TestDelayedSenders:
    def test_counts_respected(self):
        result = delayed_senders(4, delayed=[0], delay=us(50),
                                 message_size=1024, count=30,
                                 delayed_count=10, window=8)
        assert result.delivered_per_node == 3 * 30 + 10

    def test_indefinite_mode_uses_burst(self):
        result = delayed_senders(4, delayed=[0, 1], delay=0.0,
                                 message_size=1024, count=30,
                                 indefinite=True, window=8)
        assert result.delivered_per_node == 2 * 30 + 2 * 2

    def test_interdelivery_extra_present(self):
        result = delayed_senders(3, delayed=[0], delay=us(100),
                                 message_size=1024, count=30,
                                 delayed_count=10, window=8)
        assert result.extras["interdelivery_continuous"] > 0


def _assert_under_the_wire(result, n, n_senders):
    """Every node's rate stays within what the senders' NICs can feed
    it: each sender writes every message to the n - 1 other members."""
    ceiling = n_senders * LINK / (n - 1)
    assert len(result.per_node_throughput) == n
    for nid, rate in result.per_node_throughput.items():
        assert 0 < rate <= ceiling, (
            f"node {nid} reads {rate / ceiling:.3f}x the ceiling")


class TestThroughputCeiling:
    @pytest.mark.parametrize("pattern", ["all", "half", "one"])
    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16])
    def test_fig16_shapes_stay_under_the_wire(self, n, pattern):
        result = single_subgroup(n, pattern, SpindleConfig.optimized(),
                                 count=200)
        _assert_under_the_wire(result, n, len(sender_set(n, pattern)))

    def test_multi_subgroup_stays_under_the_wire(self):
        # Fig. 13's shape: every node sends in both active subgroups
        # through its one NIC.
        result = multi_subgroup(8, num_subgroups=2, active_subgroups=2,
                                count=100)
        _assert_under_the_wire(result, 8, 8)

    def test_delayed_senders_stay_under_the_wire(self):
        # Fig. 10's "one, 100us" row, cut at §4.2.1's fixed count.
        result = delayed_senders(8, delayed=[0], delay=us(100), count=150,
                                 delayed_count=40)
        _assert_under_the_wire(result, 8, 8)

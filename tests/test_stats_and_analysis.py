"""Unit tests for the metrics (core.stats), analysis formatting, units,
and the experiment runner utilities."""

import pytest

from repro.analysis import figure_banner, format_table, gbps, ratio, usec
from repro.core.stats import CURVE_STRIDE, SubgroupStats
from repro.sim.units import GB, KB, MB, gb_per_s, ms, ns, sec, to_ms, to_us, us
from repro.smc import SlotValue
from repro.workloads import Cluster
from repro.workloads.runner import ExperimentResult, sender_set


class TestUnits:
    def test_time_conversions(self):
        assert us(1) == 1e-6
        assert ns(1) == 1e-9
        assert ms(1) == 1e-3
        assert sec(2.5) == 2.5
        assert to_us(1e-6) == pytest.approx(1.0)
        assert to_ms(1e-3) == pytest.approx(1.0)

    def test_sizes(self):
        assert KB == 1024 and MB == 1024 ** 2 and GB == 1024 ** 3
        assert gb_per_s(12.5) == 12.5e9


def _one_sender_stats():
    """A built two-node cluster whose subgroup has node 0 as its only
    sender, and each node's stats, for feeding by hand."""
    cluster = Cluster(2)
    cluster.add_subgroup(senders=[0])
    cluster.build()
    return cluster, [cluster.group(nid).stats(0) for nid in (0, 1)]


class TestSubgroupStats:
    def test_delivery_counters(self):
        stats = SubgroupStats()
        stats.record_delivery(1.0, 0, 100, 0.5)
        stats.record_delivery(2.0, 1, 100, 1.0)
        stats.record_delivery(3.0, 0, 100, 2.9)
        assert stats.delivered == 3
        assert stats.bytes_delivered == 300
        assert stats.first_delivery_time == 1.0
        assert stats.last_delivery_time == 3.0
        assert stats.mean_latency == pytest.approx((0.5 + 1.0 + 0.1) / 3)

    def test_throughput_spans_first_send_to_last_delivery(self):
        cluster, (sender, receiver) = _one_sender_stats()
        sender.record_send(0.0)
        # 10 KB reach the receiver in one burst at t = 10 s: a node that
        # never sent is still measured from the subgroup's first send.
        receiver.record_deliveries(
            [10.0] * 10, [(0, SlotValue(0, 0, 1024, None, 0.0))] * 10)
        assert cluster.node_throughput(1, (0,)) == 1024.0
        # 1 KB a second at the sender: the same rate.
        for t in range(1, 11):
            sender.record_delivery(float(t), 0, 1024, 0.0)
        assert cluster.per_node_throughput(0) == {0: 1024.0, 1: 1024.0}

    def test_throughput_until_fraction_excludes_tail(self):
        cluster, (sender, receiver) = _one_sender_stats()
        sender.record_send(0.0)
        count = 2 * CURVE_STRIDE
        for t in range(1, count + 1):
            receiver.record_delivery(float(t), 0, 1024, 0.0)
        # A long trickle tail: one more message at 1,000 seconds.
        receiver.record_delivery(1000.0, 0, 1024, 999.0)
        # The cut is the first sampled point past 85 % of the bytes.
        assert cluster.node_throughput(1, (0,), until_fraction=0.85) == 1024.0
        assert cluster.node_throughput(1, (0,)) == (count + 1) * 1024 / 1000.0

    def test_throughput_degenerate_cases(self):
        cluster, (sender, receiver) = _one_sender_stats()
        assert cluster.node_throughput(1, (0,)) == 0.0  # nothing sent
        sender.record_send(1.0)
        assert cluster.node_throughput(1, (0,)) == 0.0  # nothing delivered
        receiver.record_delivery(1.0, 0, 100, 1.0)
        assert cluster.node_throughput(1, (0,)) == 0.0  # no span

    def test_interdelivery_per_sender(self):
        stats = SubgroupStats()
        stats.record_delivery(1.0, 0, 10, 0.0)
        stats.record_delivery(2.0, 1, 10, 0.0)
        stats.record_delivery(4.0, 0, 10, 0.0)
        assert stats.mean_interdelivery(0) == pytest.approx(3.0)
        assert stats.mean_interdelivery(1) == 0.0  # single delivery
        assert stats.mean_interdelivery(9) == 0.0  # never delivered

    def test_batch_histograms_and_means(self):
        stats = SubgroupStats()
        stats.send_batches.update([1, 3])
        stats.receive_batches[10] += 1
        stats.delivery_batches.update([20, 40])
        send, receive, delivery = stats.mean_batches
        assert send == pytest.approx(2.0)
        assert receive == pytest.approx(10.0)
        assert delivery == pytest.approx(30.0)


class TestAnalysisFormatting:
    def test_gbps_and_usec(self):
        assert gbps(9.7e9) == "9.70"
        assert usec(1.5e-6) == "1.5"
        assert usec(2e-3) == "2000"

    def test_ratio(self):
        assert ratio(10, 2) == "5.0x"
        assert ratio(1, 0) == "inf"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long", 1234]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "1234" in lines[3]

    def test_figure_banner_contains_claim(self):
        banner = figure_banner("Figure 9", "title", "the claim")
        assert "Figure 9" in banner and "the claim" in banner


class TestRunnerUtilities:
    def test_sender_set_patterns(self):
        assert sender_set(8, "all") == list(range(8))
        assert sender_set(8, "half") == [0, 1, 2, 3]
        assert sender_set(8, "one") == [0]
        assert sender_set(1, "half") == [0]  # at least one sender
        with pytest.raises(ValueError):
            sender_set(8, "some")

    def test_experiment_result_derived_metrics(self):
        result = ExperimentResult(
            throughput=5e9, latency=100e-6, delivered_per_node=1000,
            duration=0.01, rdma_writes=5000, post_time=0.5,
            busy_time=1.0, sender_wait_fraction=0.5,
            mean_batches=(1.0, 2.0, 3.0), nulls_sent=0,
        )
        assert result.throughput_gbps == pytest.approx(5.0)
        assert result.latency_us == pytest.approx(100.0)
        assert result.post_fraction == pytest.approx(0.5)
        assert result.message_rate == pytest.approx(100_000)

    def test_experiment_result_zero_guards(self):
        result = ExperimentResult(
            throughput=0, latency=0, delivered_per_node=0, duration=0,
            rdma_writes=0, post_time=0, busy_time=0,
            sender_wait_fraction=0, mean_batches=(0, 0, 0), nulls_sent=0,
        )
        assert result.post_fraction == 0.0
        assert result.message_rate == 0.0

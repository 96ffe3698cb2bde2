"""Observing a node changes no statistic.

An endpoint with no delivery callback bills and records each delivery
batch in one pass and builds no per-message instant, row or
``Delivery``; an observed one also computes each upcall instant to wake
at (docs/ENGINE.md, "Above the scheduler"). The two paths must count
the same: the same closed-loop load runs with and without an
``on_delivery`` callback on one node, and every node's statistics —
the counters and batch histograms the protocol updates inline, plus the
delivery landmarks, the throughput curve and the per-sender gaps — are
equal, field by field and float for float.
"""

import pytest

from repro.core.config import SpindleConfig
from repro.workloads import Cluster, continuous_sender

NODES = 4
SIZE = 128
COUNT = 120

#: (config, delivery mode): the one-pass bill, and each configuration
#: whose upcalls are billed message by message or as one batch.
CASES = {
    "optimized": (SpindleConfig.optimized(), "atomic"),
    "baseline": (SpindleConfig.baseline(), "atomic"),
    "batched_upcall": (
        SpindleConfig.optimized().with_(batched_upcall=True), "atomic"),
    "copy_on_delivery": (
        SpindleConfig.optimized().with_(copy_on_delivery=True), "atomic"),
    "unordered": (SpindleConfig.optimized(), "unordered"),
}

#: The ``SubgroupStats`` the protocol updates inline: counts, the exact
#: batch ``Counter``s and the latency sums.
STATS_FIELDS = (
    "sent", "nulls_sent", "null_announce_pushes", "received", "delivered",
    "bytes_delivered", "nulls_skipped", "sends_blocked", "sender_wait_time",
    "sender_waits", "send_lock_wait_time", "send_lock_waits",
    "upcall_time", "upcalls", "send_batches", "receive_batches",
    "delivery_batches", "latency_sum", "latency_count", "latency_counts",
)


def _stats_snapshot(cluster):
    return {
        (nid, sg): {name: getattr(group.stats(sg), name)
                    for name in STATS_FIELDS}
        for nid, group in cluster.groups.items()
        for sg in group.multicasts
    }


def _landmarks(cluster):
    """The statistics ``_stats_snapshot`` leaves out that the delivery
    record also writes."""
    out = {}
    for nid, group in cluster.groups.items():
        stats = group.stats(0)
        out[nid] = {
            "first_delivery_time": stats.first_delivery_time,
            "last_delivery_time": stats.last_delivery_time,
            "delivery_curve": list(stats.delivery_curve),
            "interdelivery": [stats.mean_interdelivery(rank)
                              for rank in range(NODES)],
        }
    return out


def _run(config, delivery_mode, observer):
    cluster = Cluster(NODES, config=config, seed=5)
    cluster.add_subgroup(message_size=SIZE, window=40,
                         delivery_mode=delivery_mode)
    cluster.build()
    seen = []
    if observer is not None:
        cluster.group(observer).on_delivery(
            0, lambda d: seen.append((d.sender, d.seq)))
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=COUNT, size=SIZE))
    cluster.run_to_quiescence()
    cluster.assert_all_delivered(0, per_sender=COUNT)
    if observer is not None:
        assert len(seen) == COUNT * NODES
    return (_stats_snapshot(cluster), _landmarks(cluster), cluster.sim.now)


@pytest.mark.parametrize("case", sorted(CASES))
def test_observing_a_node_changes_no_statistic(case):
    config, delivery_mode = CASES[case]
    plain = _run(config, delivery_mode, observer=None)
    observed = _run(config, delivery_mode, observer=1)
    plain_stats, plain_landmarks, plain_end = plain
    observed_stats, observed_landmarks, observed_end = observed
    assert observed_stats.keys() == plain_stats.keys()
    for key in plain_stats:
        for field, value in plain_stats[key].items():
            assert observed_stats[key][field] == value, (key, field)
    assert observed_landmarks == plain_landmarks
    assert observed_end == plain_end

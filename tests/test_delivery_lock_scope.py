"""Lock scope of the delivery stage (§3.4, docs/ENGINE.md "Delivery
instants").

A delivering trigger plans its batch under the predicate thread's lock
and returns the rest — the upcalls, ``delivered_seq``, the batched
acknowledgement — as deferred work. With ``early_lock_release`` that
work runs after the release, so no delivery callback holds the lock and
an application thread can queue a send while a batch is still being
handed over; without it, every callback runs under the lock.
"""

import pytest

from repro.core.config import SpindleConfig
from repro.workloads import Cluster, continuous_sender

NODES = 4
SIZE = 128


def run_observed(config, observe, delivery_mode="atomic", window=50,
                 count=120):
    """Every node sends ``count`` messages; ``observe(nid, cluster)``
    returns each node's delivery callback."""
    cluster = Cluster(NODES, config=config, seed=5)
    cluster.add_subgroup(message_size=SIZE, window=window,
                         delivery_mode=delivery_mode)
    cluster.build()
    for nid in cluster.node_ids:
        cluster.group(nid).on_delivery(0, observe(nid, cluster))
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=SIZE))
    cluster.run_to_quiescence()
    return cluster


@pytest.mark.parametrize("delivery_mode", ["atomic", "unordered"])
@pytest.mark.parametrize("config, under_lock", [
    (SpindleConfig.optimized(), False),
    (SpindleConfig.batching_and_nulls(), True),
], ids=["early_release", "lock_held"])
def test_callbacks_hold_the_lock_only_without_early_release(
        config, under_lock, delivery_mode):
    held = []

    def observe(nid, cluster):
        thread = cluster.group(nid).thread

        def callback(_delivery):
            held.append(thread.lock.held_by is thread._process)
        return callback

    cluster = run_observed(config, observe, delivery_mode)
    cluster.assert_all_delivered(0, per_sender=120)
    assert held and set(held) == {under_lock}


def test_a_send_queued_mid_batch_completes_before_the_batch_ends():
    """At the first upcall of a batch of ≥ 3 on node 0, an application
    thread sends: its ``queue_message`` takes the free lock and returns
    before the batch's last upcall."""
    probe = {}

    def observe(nid, cluster):
        if nid != 0:
            return lambda _delivery: None
        mc = cluster.mc(0, 0)
        batches = []
        record = mc.stats.record_deliveries

        def capture(times, entries):
            batches.append(list(times))
            record(times, entries)

        mc.stats.record_deliveries = capture

        def send_now():
            yield from mc.send(SIZE)
            probe["done"] = cluster.sim.now

        def callback(_delivery):
            times = batches[-1]
            if ("batch_end" not in probe and len(times) >= 3
                    and cluster.sim.now == times[0]):
                probe["batch_end"] = times[-1]
                cluster.spawn_sender(send_now())
        return callback

    run_observed(SpindleConfig.optimized(), observe, window=100, count=40)
    assert "batch_end" in probe, "node 0 saw no batch of >= 3 messages"
    assert probe["done"] < probe["batch_end"]

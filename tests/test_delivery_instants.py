"""Delivery instants: each message reaches the application at its own
upcall instant, while the acknowledgement stays batched.

A delivering trigger bills upcall *i* at ``t0 + cost_1 + … + cost_i``
and records that instant in ``SubgroupStats``; the callback for message
*i* runs at exactly that instant, in the predicate thread's process
(after its lock's release under §3.4: tests/test_delivery_lock_scope.py),
and ``delivered_seq`` follows each upcall. The
``delivered_num`` write, the reap and the push happen once, at the
batch end (docs/ENGINE.md, "Delivery instants").
"""

import pytest

from repro.core.config import SpindleConfig
from repro.recovery import VsyncVerifier
from repro.sim.units import ms
from repro.workloads import Cluster, continuous_sender

NODES = 4
SIZE = 128


def record_batches(stats):
    """Capture every ``(instant, rank, size, queued_at)`` row batch the
    endpoint records, in order."""
    batches = []
    record = stats.record_deliveries

    def capture(times, entries):
        batches.append([(now, rank, slot.size, slot.queued_at)
                        for now, (rank, slot) in zip(times, entries)])
        record(times, entries)

    stats.record_deliveries = capture
    return batches


def observed_run(config, delivery_mode="atomic", count=150):
    cluster = Cluster(NODES, config=config, seed=3)
    cluster.add_subgroup(message_size=SIZE, window=50,
                         delivery_mode=delivery_mode)
    cluster.build()
    batches, instants = {}, {}
    for nid in cluster.node_ids:
        batches[nid] = record_batches(cluster.group(nid).stats(0))
        instants[nid] = []
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: instants[nid].append(cluster.sim.now))
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=SIZE))
    cluster.run_to_quiescence()
    cluster.assert_all_delivered(0, per_sender=count)
    return batches, instants


@pytest.mark.parametrize("delivery_mode", ["atomic", "unordered"])
def test_each_callback_runs_at_its_recorded_instant(delivery_mode):
    batches, instants = observed_run(SpindleConfig.optimized(), delivery_mode)
    for nid in batches:
        recorded = [row[0] for rows in batches[nid] for row in rows]
        assert instants[nid] == recorded
        # Batches of several messages did occur, and their members
        # reached the application at distinct instants, not at the end.
        streamed = [rows for rows in batches[nid]
                    if rows[0][0] < rows[-1][0]]
        assert streamed, f"node {nid} saw no multi-message batch"


def test_a_batched_upcall_keeps_one_instant_per_batch():
    config = SpindleConfig.optimized().with_(batched_upcall=True)
    batches, instants = observed_run(config)
    for nid in batches:
        assert max(len(rows) for rows in batches[nid]) >= 2
        recorded = [row[0] for rows in batches[nid] for row in rows]
        assert instants[nid] == recorded
        assert all(len({row[0] for row in rows}) == 1
                   for rows in batches[nid])


def test_a_crash_mid_batch_stops_the_remaining_upcalls():
    """The node dies after the third upcall of a ≥ 10-message batch: it
    delivered exactly that prefix, ``delivered_seq`` says so, its
    batched ``delivered_num`` never went out, and the view change
    audits clean — nothing delivered twice, nothing skipped."""
    victim = NODES - 1
    cluster = Cluster(NODES, config=SpindleConfig.optimized(), seed=1)
    cluster.add_subgroup(message_size=SIZE, window=100)
    cluster.enable_membership()
    cluster.build()
    verifier = VsyncVerifier(cluster)
    views = []
    cluster.group(0).membership.on_new_view.append(views.append)
    mc = cluster.mc(victim, 0)
    batches = record_batches(mc.stats)
    handed = []
    crashed = []

    def observe(delivery):
        handed.append(delivery.seq)
        rows = batches[-1]
        if (not crashed and len(rows) >= 10
                and cluster.sim.now == rows[2][0]):
            crashed.append((delivery.seq, rows[-1][0]))
            # Fires at this instant, once the thread sleeps towards the
            # fourth upcall.
            cluster.sim.call_after(0.0, cluster.fail_node, victim)

    cluster.group(victim).on_delivery(0, observe)

    def sender(endpoint):
        try:
            for _ in range(400):
                yield from endpoint.send(SIZE)
        except RuntimeError:
            pass  # wedged by the view change

    for nid in cluster.node_ids:
        cluster.spawn_sender(sender(cluster.mc(nid, 0)))
    cluster.run(until=ms(20))

    assert crashed, "no delivery batch of >= 10 messages on the victim"
    third_seq, batch_end = crashed[0]
    assert mc.delivered_seq == third_seq == handed[-1]
    assert cluster.sim.now > batch_end
    # The acknowledgement is per batch: it never left for this one.
    assert mc.sst.read_own(mc.cols.delivered) < mc.delivered_seq

    assert views and victim not in views[-1].members
    cluster.install_view(views[-1])
    report = verifier.check()
    assert report.ok, report.violations
    log = verifier.logs[(0, 0, victim)]
    assert [seq for seq, _sender, _digest in log] == handed
    assert log == verifier.logs[(0, 0, 0)][:len(log)]


def test_a_put_that_is_not_last_in_its_batch_replies_before_the_batch_ends():
    cluster = Cluster(4, config=SpindleConfig.optimized(), seed=0)
    cluster.add_shards(num_shards=1, replication=2, window=16,
                       message_size=256)
    cluster.build()
    router = cluster.router()
    gateway = router.service.gateway_replica(0).mc
    batches = record_batches(gateway.stats)
    replied = []

    def client(c):
        outcome = yield from router.request("put", b"k%d" % c, b"v")
        assert outcome.status == "ok"
        replied.append(cluster.sim.now)

    for c in range(12):
        cluster.spawn_sender(client(c))
    cluster.run_to_quiescence()

    # One gateway delivery per put, each answered at its upcall instant.
    recorded = [row[0] for rows in batches for row in rows]
    assert sorted(replied) == recorded
    early = [row[0] for rows in batches for row in rows[:-1]
             if row[0] < rows[-1][0]]
    assert early, "no gateway delivery batch held two puts"
    assert set(early) <= set(replied)

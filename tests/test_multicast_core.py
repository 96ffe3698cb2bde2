"""Integration tests for the atomic multicast protocol: ordering,
atomicity, batching behaviour, slot reuse, and configuration toggles."""

import pytest

from repro.core.config import SpindleConfig, TimingModel
from repro.sim import probe
from repro.sim.units import us
from repro.workloads import Cluster, continuous_sender, jittered_sender

ALL_CONFIGS = {
    "baseline": SpindleConfig.baseline(),
    "batching": SpindleConfig.batching_only(),
    "batching+nulls": SpindleConfig.batching_and_nulls(),
    "optimized": SpindleConfig.optimized(),
}


def build(n, config, size=1024, window=10, senders=None, subgroups=1):
    cluster = Cluster(num_nodes=n, config=config)
    for _ in range(subgroups):
        cluster.add_subgroup(message_size=size, window=window, senders=senders)
    cluster.build()
    return cluster


def attach_recorder(cluster, subgroup_id=0):
    log = {n: [] for n in cluster.members_of(subgroup_id)}
    for n in log:
        cluster.group(n).on_delivery(
            subgroup_id, lambda d, n=n: log[n].append((d.seq, d.sender, d.payload))
        )
    return log


@pytest.mark.parametrize("name", list(ALL_CONFIGS))
def test_total_order_identical_across_members(name):
    """The atomic multicast guarantee: every member delivers the same
    messages in the same order, under every configuration."""
    cluster = build(4, ALL_CONFIGS[name])
    log = attach_recorder(cluster)
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(n, 0), count=30, size=1024,
            payload_fn=lambda k, n=n: b"%d:%d" % (n, k)))
    cluster.run()
    logs = list(log.values())
    assert all(l == logs[0] for l in logs)
    assert len(logs[0]) == 4 * 30


@pytest.mark.parametrize("name", list(ALL_CONFIGS))
def test_all_messages_delivered_exactly_once(name):
    cluster = build(3, ALL_CONFIGS[name])
    log = attach_recorder(cluster)
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(n, 0), count=25, size=512,
            payload_fn=lambda k, n=n: b"%d:%d" % (n, k)))
    cluster.run()
    for n, entries in log.items():
        payloads = [p for (_, _, p) in entries]
        assert len(payloads) == len(set(payloads)) == 75


def test_fifo_per_sender():
    """Messages from one sender are delivered in send order."""
    cluster = build(3, SpindleConfig.optimized())
    log = attach_recorder(cluster)
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(n, 0), count=40, size=256,
            payload_fn=lambda k, n=n: b"%d:%d" % (n, k)))
    cluster.run()
    for entries in log.values():
        for sender in cluster.node_ids:
            ks = [int(p.split(b":")[1]) for (_, s, p) in entries if s == sender]
            assert ks == sorted(ks)


def test_round_robin_seq_structure():
    """seq % num_senders equals the sender's rank (§2.1 delivery order)."""
    cluster = build(3, SpindleConfig.optimized())
    log = attach_recorder(cluster)
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=10, size=256))
    cluster.run()
    senders = list(cluster.view.subgroups[0].senders)
    for entries in log.values():
        for seq, sender, _ in entries:
            assert senders[seq % len(senders)] == sender


def test_payload_integrity_end_to_end():
    cluster = build(2, SpindleConfig.optimized(), size=64)
    log = attach_recorder(cluster)
    expected = {n: [bytes([n]) * 32 + bytes([k]) for k in range(20)]
                for n in cluster.node_ids}
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(n, 0), count=20, size=64,
            payload_fn=lambda k, n=n: expected[n][k]))
    cluster.run()
    for entries in log.values():
        for n in cluster.node_ids:
            got = [p for (_, s, p) in entries if s == n]
            assert got == expected[n]


def test_single_sender_subgroup():
    cluster = build(4, SpindleConfig.optimized(), senders=[0])
    log = attach_recorder(cluster)
    cluster.spawn_sender(continuous_sender(cluster.mc(0, 0), count=50, size=512))
    cluster.run()
    for entries in log.values():
        assert len(entries) == 50
        assert all(s == 0 for (_, s, _) in entries)


def test_non_sender_cannot_send():
    cluster = build(3, SpindleConfig.optimized(), senders=[0, 1])
    mc = cluster.mc(2, 0)
    with pytest.raises(RuntimeError, match="not a sender"):
        # Drive the generator far enough to hit the check.
        gen = mc.queue_message(64, None)
        cluster.sim.spawn(gen)
        cluster.run()


def test_window_limits_inflight_messages():
    """A sender can never have more than `window` undelivered messages."""
    window = 5
    cluster = build(3, SpindleConfig.optimized(), window=window)
    mc = cluster.mc(0, 0)
    max_inflight = 0

    def watcher():
        nonlocal max_inflight
        for _ in range(2000):
            max_inflight = max(max_inflight, len(mc.own_inflight))
            yield us(0.2)

    cluster.spawn_sender(watcher())
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=60, size=512))
    cluster.run()
    assert max_inflight <= window
    cluster.assert_all_delivered(0, per_sender=60)


def test_concurrent_proposers_on_one_endpoint_cannot_overclaim_the_ring():
    """`claim_slot` is a reservation, not a check: eight application
    threads proposing on one sender of a window-4 subgroup each hold the
    slot they were promised until they fill it. (As a bare check, all
    eight passed it in the same instant: the ring was over-claimed,
    `ring_spans` raised "span [0, 11) exceeds window 4", and an
    overflow by a single slot silently overwrote a live message.)"""
    window, threads, per_thread = 4, 8, 50
    cluster = build(3, SpindleConfig.optimized(), size=64, window=window,
                    senders=[0])
    log = attach_recorder(cluster)
    mc = cluster.mc(0, 0)
    by_ticket = {}
    max_in_use = 0

    def proposer(t):
        nonlocal max_in_use
        for k in range(per_thread):
            payload = b"%d:%d" % (t, k)
            ticket = yield from mc.propose(64, payload)
            by_ticket[ticket] = payload
            max_in_use = max(max_in_use, mc.window_in_use())

    for t in range(threads):
        cluster.spawn_sender(proposer(t))
    cluster.run()
    total = threads * per_thread
    assert sorted(by_ticket) == list(range(total))
    in_ticket_order = [by_ticket[k] for k in range(total)]
    assert len(set(in_ticket_order)) == total
    for entries in log.values():
        # Per-sender FIFO, exactly once: the k-th delivery is ticket k.
        assert [p for (_, _, p) in entries] == in_ticket_order
    assert max_in_use <= window
    assert mc.slots_claimed == 0
    assert cluster.group(0).stats(0).sends_blocked > 0


def test_sender_blocks_when_window_full():
    """With a tiny window the sender must wait for deliveries."""
    cluster = build(3, SpindleConfig.optimized(), window=2)
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=30, size=512))
    cluster.run()
    cluster.assert_all_delivered(0, per_sender=30)
    stats = cluster.group(0).stats(0)
    assert stats.sends_blocked > 0
    assert stats.sender_wait_time > 0


def test_slot_reuse_never_overwrites_undelivered():
    """Ring-buffer safety: message content survives slot wrap-around."""
    cluster = build(3, SpindleConfig.optimized(), window=3, size=64)
    log = attach_recorder(cluster)
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(n, 0), count=50, size=64,
            payload_fn=lambda k, n=n: b"%d:%d" % (n, k)))
    cluster.run()
    logs = list(log.values())
    assert all(l == logs[0] for l in logs)
    assert len(logs[0]) == 150


def test_two_node_minimal_group():
    cluster = build(2, SpindleConfig.optimized())
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=20, size=128))
    cluster.run()
    cluster.assert_all_delivered(0, per_sender=20)


def test_sixteen_node_group():
    """The paper's largest configuration."""
    cluster = build(16, SpindleConfig.optimized(), window=20)
    for n in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=10, size=1024))
    cluster.run()
    cluster.assert_all_delivered(0, per_sender=10)


def test_multiple_subgroups_independent_streams():
    cluster = build(4, SpindleConfig.optimized(), subgroups=3)
    logs = [attach_recorder(cluster, sg) for sg in range(3)]
    for sg in range(3):
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(n, sg), count=15, size=512,
                payload_fn=lambda k, n=n, sg=sg: b"%d:%d:%d" % (sg, n, k)))
    cluster.run()
    for sg in range(3):
        entries = list(logs[sg].values())
        assert all(e == entries[0] for e in entries)
        assert len(entries[0]) == 60
        assert all(p.startswith(b"%d:" % sg) for (_, _, p) in entries[0])


def test_overlapping_subgroup_memberships():
    """Paper Table 1 style: overlapping subgroups with distinct members."""
    cluster = Cluster(num_nodes=5, config=SpindleConfig.optimized())
    cluster.add_subgroup(members=[0, 1, 2], window=8, message_size=256)
    cluster.add_subgroup(members=[0, 1, 3], window=8, message_size=256)
    cluster.add_subgroup(members=[0, 2, 4], window=8, message_size=256)
    cluster.build()
    for sg, members in enumerate([[0, 1, 2], [0, 1, 3], [0, 2, 4]]):
        for n in members:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(n, sg), count=12, size=256))
    cluster.run()
    for sg in range(3):
        cluster.assert_all_delivered(sg, per_sender=12)


def test_jittered_senders_still_totally_ordered():
    cluster = build(4, SpindleConfig.optimized())
    log = attach_recorder(cluster)
    for n in cluster.node_ids:
        cluster.spawn_sender(jittered_sender(
            cluster.mc(n, 0), count=25, size=256,
            rng=cluster.sim.rng, max_gap=us(20),
            payload_fn=lambda k, n=n: b"%d:%d" % (n, k)))
    cluster.run()
    logs = list(log.values())
    assert all(l == logs[0] for l in logs)
    assert len(logs[0]) == 100


class TestBatchingBehaviour:
    def test_baseline_sends_one_message_per_trigger(self):
        cluster = build(3, SpindleConfig.baseline())
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=20, size=512))
        cluster.run()
        stats = cluster.group(0).stats(0)
        assert set(stats.send_batches) == {1}

    def test_optimized_forms_multi_message_batches(self):
        cluster = build(4, SpindleConfig.optimized(), window=20)
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=60, size=2048))
        cluster.run()
        stats = cluster.group(0).stats(0)
        assert max(stats.delivery_batches) > 1  # batched deliveries happened
        assert stats.mean_batch(stats.delivery_batches) > 1.0

    def test_batching_reduces_rdma_writes(self):
        """§4.1.1: write count drops by an order of magnitude."""
        def writes(config):
            cluster = build(4, config, window=20)
            for n in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=50, size=2048))
            cluster.run()
            cluster.assert_all_delivered(0, per_sender=50)
            return cluster.fabric.total_writes_posted()

        baseline = writes(SpindleConfig.baseline())
        optimized = writes(SpindleConfig.batching_only())
        assert optimized < baseline / 2

    def test_batching_improves_throughput(self):
        def thr(config):
            cluster = build(8, config, size=10240, window=50)
            for n in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=60, size=10240))
            cluster.run()
            return cluster.aggregate_throughput(0)

        assert thr(SpindleConfig.batching_only()) > 3 * thr(SpindleConfig.baseline())

    def test_receive_batches_exceed_send_batches(self):
        """Fig. 7: receive merges all senders' streams, so its batches
        are larger than send batches on average."""
        cluster = build(8, SpindleConfig.optimized(), size=10240, window=50)
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(n, 0), count=80, size=10240))
        cluster.run()
        stats = cluster.group(0).stats(0)
        send_mean, receive_mean, delivery_mean = stats.mean_batches
        assert receive_mean > send_mean
        assert delivery_mean > send_mean


class TestThreadSyncOptimization:
    def test_early_release_reduces_lock_wait(self):
        def wait_time(config):
            cluster = build(6, config, size=10240, window=50)
            for n in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=60, size=10240))
            cluster.run()
            return sum(cluster.group(n).thread.lock.wait_time
                       for n in cluster.node_ids)

        held = wait_time(SpindleConfig.batching_and_nulls())
        released = wait_time(
            SpindleConfig.batching_and_nulls().with_(early_lock_release=True))
        assert released < held

    def test_early_release_does_not_break_ordering(self):
        cluster = build(4, SpindleConfig.optimized())
        log = attach_recorder(cluster)
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(n, 0), count=40, size=1024,
                payload_fn=lambda k, n=n: b"%d:%d" % (n, k)))
        cluster.run()
        logs = list(log.values())
        assert all(l == logs[0] for l in logs)


class TestFixedBatchAblation:
    def test_fixed_batch_still_correct(self):
        config = SpindleConfig.batching_only().with_(fixed_send_batch=8)
        cluster = build(3, config, window=20)
        log = attach_recorder(cluster)
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=30, size=512))
        cluster.run()
        logs = list(log.values())
        assert all(l == logs[0] for l in logs)
        assert len(logs[0]) == 90

    def test_fixed_batch_worse_latency_than_opportunistic(self):
        """§3.2: waiting to accumulate batches makes latency soar."""
        def latency(config):
            cluster = build(4, config, size=10240, window=50)
            for n in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=60, size=10240,
                    delay=us(5)))  # slight pacing: fixed batches must wait
            cluster.run()
            return cluster.mean_latency(0)

        opportunistic = latency(SpindleConfig.batching_only())
        fixed = latency(SpindleConfig.batching_only().with_(fixed_send_batch=16))
        assert fixed > 2 * opportunistic


class TestAcknowledgementTargets:
    """Each ack goes to its readers only. The delivery ack goes to the
    senders, which reuse ring slots by it (§2.3); received_num and nulls
    reach every member through the receive trigger's push, except that
    a sole sender takes what it pushes as received and posts no receive
    ack at all."""

    def _isolated(self, r, count=40, window=8):
        """One message per 50 us from node 0 of an r-member, one-sender
        subgroup: every message completes before the next is sent."""
        cluster = build(r, SpindleConfig.optimized(), size=64,
                        window=window, senders=[0])
        cluster.spawn_sender(continuous_sender(
            cluster.mc(0, 0), count=count, size=64, delay=us(50)))
        cluster.run()
        cluster.assert_all_delivered(0, per_sender=count)
        return cluster

    @pytest.mark.parametrize("r, per_message", [(2, 3), (3, 8)])
    def test_an_isolated_message_posts_exactly_its_readers_writes(
            self, r, per_message):
        """Per message: the sender's slot push (r-1 writes), every
        receiver's receive ack to every peer ((r-1)^2) and every
        receiver's delivery ack to the sender (r-1) — 2(r-1) + (r-1)^2.
        The sender posts one write per peer and nothing else: its
        receive ack and its delivery ack have no reader. 40 messages
        over a window of 8 wrap the ring five times."""
        count = 40
        cluster = self._isolated(r, count=count)
        assert per_message == 2 * (r - 1) + (r - 1) ** 2
        assert cluster.fabric.total_writes_posted() == per_message * count
        sender = cluster.mc(0, 0).smc
        assert (sender.slot_writes, sender.control_writes) == (
            (r - 1) * count, 0)
        assert cluster.group(0).thread.posts_run == count
        for n in cluster.node_ids:
            assert cluster.group(n).thread.post_time == pytest.approx(
                cluster.group(n).sst.pushes_posted * us(1.0))

    def test_a_sole_sender_is_its_own_first_receiver(self):
        """The sole sender runs no receive predicate and posts no
        control write, so each replica's copy of its received_num stays
        at the initial value while the replicas deliver everything, by
        stability over the non-senders alone."""
        cluster = self._isolated(3)
        mc = cluster.mc(0, 0)
        assert mc.receive_predicate not in cluster.group(0).thread.predicates
        assert mc.smc.control_writes == 0
        assert mc.received_seq == mc.delivered_seq == 39
        for n in (1, 2):
            assert cluster.group(n).sst.read(0, mc.cols.received) == -1
            assert cluster.mc(n, 0).delivered_seq == 39
        # Billed as received, in the send trigger.
        assert mc.stats.received == 40

    @pytest.mark.parametrize("r, per_message", [(2, 5), (3, 14)])
    def test_without_reader_acks_every_ack_reaches_every_member(
            self, r, per_message):
        """``reader_acks`` off (the baseline arm): Derecho's pattern.
        Per message: the slot push (r-1 writes), then a receive ack and
        a delivery ack from every member to every peer — (r-1) +
        2r(r-1)."""
        count = 40
        cluster = build(r, SpindleConfig.optimized().with_(
            reader_acks=False), size=64, window=8, senders=[0])
        cluster.spawn_sender(continuous_sender(
            cluster.mc(0, 0), count=count, size=64, delay=us(50)))
        cluster.run()
        cluster.assert_all_delivered(0, per_sender=count)
        assert per_message == (r - 1) + 2 * r * (r - 1)
        assert cluster.fabric.total_writes_posted() == per_message * count
        assert not SpindleConfig.baseline().reader_acks

    def test_delivered_num_reaches_the_senders_only(self):
        """A non-sender's delivery ack never reaches the other
        non-sender. Its delivered_num still travels inside the receive
        ack's one control-span write, so there it reads one message
        behind: the value it had when the last message arrived."""
        cluster = self._isolated(3)
        cols = cluster.mc(0, 0).cols
        last = cluster.mc(0, 0).delivered_seq
        assert last == 39
        assert cluster.group(1).sst.read(2, cols.delivered) == last - 1
        assert cluster.group(2).sst.read(1, cols.delivered) == last - 1
        # The sender, which reuses its slots by it, has every member's.
        sender = cluster.group(0).sst
        assert [sender.read(m, cols.delivered)
                for m in cluster.node_ids] == [last] * 3

    def test_a_replica_delivery_ack_rides_the_receive_ack_already_due(self):
        """Two messages 1 us apart to a one-sender, two-member subgroup:
        the second lands while the replica delivers the first, so the
        replica's receive trigger is certain to push again and its first
        delivery ack rides that push. It posts two receive acks and one
        delivery ack, 3 writes (4 if every delivery ack were posted)."""
        cluster = build(2, SpindleConfig.optimized(), size=64, window=8,
                        senders=[0])
        cluster.spawn_sender(continuous_sender(
            cluster.mc(0, 0), count=2, size=64, delay=us(1)))
        cluster.run()
        cluster.assert_all_delivered(0, per_sender=2)
        replica = cluster.mc(1, 0)
        assert replica.stats.delivery_batches == {1: 2}
        assert replica.smc.control_writes == 3
        assert cluster.group(0).sst.read(1, replica.cols.delivered) == 1

    def test_every_sender_ends_with_every_replica_delivered_num(self):
        """Half the members send, one of them with a 100 us busy-wait
        after every message. At quiescence every skipped delivery ack
        has ridden a later receive ack: each sender's copy of each
        non-sender's delivered_num is that node's final delivered_seq."""
        cluster = build(4, SpindleConfig.optimized(), size=256, window=8,
                        senders=[0, 1])
        cluster.spawn_sender(continuous_sender(
            cluster.mc(0, 0), count=30, size=256))
        cluster.spawn_sender(continuous_sender(
            cluster.mc(1, 0), count=30, size=256, delay=us(100)))
        cluster.run_to_quiescence()
        cluster.assert_all_delivered(0, per_sender=30)
        cols = cluster.mc(0, 0).cols
        for replica in (2, 3):
            final = cluster.mc(replica, 0).delivered_seq
            assert final == cluster.mc(0, 0).delivered_seq
            for sender in (0, 1):
                assert cluster.group(sender).sst.read(
                    replica, cols.delivered) == final

    def test_write_counters_sum_to_the_pushes_posted(self):
        """Per node, slot writes plus control writes are exactly the
        SST's pushes, with narrowed and unnarrowed acks mixed: one
        all-senders and one designated-sender subgroup."""
        cluster = Cluster(num_nodes=3, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=256, window=8)
        cluster.add_subgroup(message_size=256, window=8, senders=[1])
        cluster.build()
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(n, 0), count=30, size=256))
        cluster.spawn_sender(continuous_sender(
            cluster.mc(1, 1), count=30, size=256))
        cluster.run()
        metrics = cluster.metrics
        for n in cluster.node_ids:
            writes = sum(metrics.value("spindle_smc_writes_total", node=n,
                                       purpose=purpose)
                         for purpose in ("slots", "control"))
            pushes = metrics.value("spindle_sst_pushes_total", node=n)
            assert writes == pushes == cluster.group(n).sst.pushes_posted
            assert writes > 0


class TestPredicateOrder:
    """With ``reader_acks`` the polling cycle runs receive, send,
    delivery: the cycle's acks leave the node's one egress queue ahead
    of the next slot push. ``baseline()`` keeps Derecho's send,
    receive, delivery."""

    @pytest.mark.parametrize("name, order", [
        ("optimized", ["receive", "send", "delivery"]),
        ("baseline", ["send", "receive", "delivery"]),
    ])
    def test_an_all_senders_endpoint_registers_in_cycle_order(
            self, name, order):
        cluster = build(3, getattr(SpindleConfig, name)(), size=64)
        for n in cluster.node_ids:
            names = [p.name for p in cluster.group(n).thread.predicates
                     if p.subgroup == 0]
            assert names == [f"sg0.{stage}" for stage in order]

    def test_the_receive_ack_is_posted_ahead_of_the_slot_push(self):
        """Four all-senders nodes streaming 10 KB messages. A control
        write whose received_num is newer than the last one its node
        posted to that peer is a receive ack; in every polling cycle
        that posts one and a slot push, a control write is posted
        first."""
        cluster = build(4, SpindleConfig.optimized(), size=10_240,
                        window=16)
        cols = cluster.mc(0, 0).cols
        posts = {}  # (node, cycle) -> [(is_control, is_receive_ack)]
        last_received = {}  # (node, peer) -> received_num last posted

        class Recorder(probe.Probe):
            def nic_post(self, qp, snap):
                src = qp.src.node_id
                control = snap.offset == cols.received
                receive_ack = False
                if control:
                    received = snap.data[0]
                    link = (src, qp.dst.node_id)
                    receive_ack = received > last_received.get(link, -1)
                    last_received[link] = received
                cycle = (src, cluster.group(src).thread.iterations)
                posts.setdefault(cycle, []).append((control, receive_ack))

        with probe.subscribed(Recorder()):
            for n in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=60, size=10_240))
            cluster.run()
        cluster.assert_all_delivered(0, per_sender=60)
        mixed = [writes for writes in posts.values()
                 if any(ack for _, ack in writes)
                 and not all(control for control, _ in writes)]
        assert len(mixed) >= 10
        for writes in mixed:
            assert writes[0][0], writes

"""Integration tests for virtual synchrony: failure detection, wedging,
ragged trim, failure atomicity, and epoch restart."""

import pytest

from repro.core.config import SpindleConfig
from repro.recovery.coordinator import RecoveryConfig
from repro.recovery.verify import VsyncVerifier
from repro.sim.units import ms, us
from repro.workloads import Cluster, continuous_sender


def build(n, count=0, size=512, window=10, heartbeat=us(100), timeout=us(500)):
    cluster = Cluster(num_nodes=n, config=SpindleConfig.optimized())
    cluster.add_subgroup(message_size=size, window=window)
    cluster.enable_membership(heartbeat_period=heartbeat,
                              suspicion_timeout=timeout)
    cluster.build()
    views = {nid: [] for nid in cluster.node_ids}
    logs = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        cluster.group(nid).membership.on_new_view.append(
            lambda v, nid=nid: views[nid].append(v))
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: logs[nid].append((d.seq, d.sender)))
    if count:
        for nid in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=count, size=size))
    return cluster, views, logs


class TestFailureDetection:
    def test_crashed_node_detected_and_removed(self):
        cluster, views, _ = build(4)
        cluster.sim.call_after(ms(1), cluster.fail_node, 2)
        cluster.run(until=ms(30))
        for nid in (0, 1, 3):
            assert len(views[nid]) == 1
            assert views[nid][0].members == (0, 1, 3)
            assert views[nid][0].view_id == 1

    def test_no_view_change_without_failure(self):
        cluster, views, _ = build(3)
        cluster.run(until=ms(10))
        assert all(not v for v in views.values())

    def test_leader_failure_next_member_leads(self):
        cluster, views, _ = build(4)
        cluster.sim.call_after(ms(1), cluster.fail_node, 0)
        cluster.run(until=ms(30))
        for nid in (1, 2, 3):
            assert views[nid] and views[nid][0].members == (1, 2, 3)
            assert views[nid][0].leader == 1

    def test_two_simultaneous_failures(self):
        cluster, views, _ = build(5)
        cluster.sim.call_after(ms(1), cluster.fail_node, 2)
        cluster.sim.call_after(ms(1.05), cluster.fail_node, 4)
        cluster.run(until=ms(40))
        for nid in (0, 1, 3):
            assert views[nid], f"node {nid} saw no view change"
            final = views[nid][-1]
            assert 2 not in final.members
            assert 4 not in final.members

    def test_manual_suspicion_triggers_view_change(self):
        cluster, views, _ = build(3, heartbeat=ms(10), timeout=ms(100))
        # No crash: operator marks node 2 as failed explicitly.
        cluster.fabric.fail_node(2)
        cluster.group(2).kill()
        cluster.sim.call_after(ms(1), cluster.group(0).membership.suspect, 2)
        cluster.run(until=ms(30))
        for nid in (0, 1):
            assert views[nid] and views[nid][0].members == (0, 1)


class TestWedging:
    def test_wedged_nodes_stop_sending(self):
        cluster, views, _ = build(3)
        cluster.sim.call_after(ms(1), cluster.fail_node, 2)
        cluster.run(until=ms(30))
        mc = cluster.mc(0, 0)
        assert mc.wedged
        with pytest.raises(RuntimeError, match="wedged"):
            gen = mc.queue_message(64, None)
            cluster.sim.spawn(gen)
            cluster.run(until=ms(31))

    def test_suspicion_is_infectious(self):
        """A single node's suspicion spreads through the SST."""
        cluster, views, _ = build(4, heartbeat=ms(50), timeout=ms(500))
        cluster.fabric.fail_node(3)
        cluster.group(3).kill()
        cluster.sim.call_after(ms(1), cluster.group(1).membership.suspect, 3)
        cluster.run(until=ms(40))
        for nid in (0, 1, 2):
            assert cluster.group(nid).membership.is_suspected(3)
            assert views[nid] and views[nid][0].members == (0, 1, 2)


class TestFailureAtomicity:
    def test_survivors_deliver_identical_sets(self):
        """Virtual synchrony: after the view change, every survivor has
        delivered exactly the same messages in the same order."""
        cluster, views, logs = build(4, count=500, window=10)
        cluster.sim.call_after(ms(1.2), cluster.fail_node, 3)
        cluster.run(until=ms(100))
        survivor_logs = [logs[nid] for nid in (0, 1, 2)]
        assert survivor_logs[0] == survivor_logs[1] == survivor_logs[2]
        assert all(views[nid] for nid in (0, 1, 2))

    def test_mid_stream_failure_trims_consistently(self):
        """The failed node's in-flight messages are either delivered at
        all survivors or at none (the ragged trim)."""
        cluster, views, logs = build(4, count=300, window=5)
        cluster.sim.call_after(ms(0.8), cluster.fail_node, 1)
        cluster.run(until=ms(100))
        sets = [set(logs[nid]) for nid in (0, 2, 3)]
        assert sets[0] == sets[1] == sets[2]
        from_failed = [x for x in sets[0] if x[1] == 1]
        # The failed node got some messages through before dying...
        assert from_failed
        # ...and the survivors delivered fewer than it queued.
        assert len(from_failed) < 300

    def test_undelivered_own_messages_reported(self):
        """Senders learn which of their messages died with the view."""
        cluster, views, logs = build(4, count=300, window=5)
        cluster.sim.call_after(ms(0.8), cluster.fail_node, 1)
        cluster.run(until=ms(100))
        mc = cluster.mc(0, 0)
        undelivered = mc.undelivered_own_messages()
        delivered_from_0 = sum(1 for (_, s) in logs[2] if s == 0)
        assert delivered_from_0 + len(undelivered) >= mc.reals_queued


class TestEpochRestart:
    def test_messaging_resumes_in_new_view(self):
        """End-to-end continuity: fail a node, install the new view,
        resend undelivered messages, and finish the workload."""
        cluster, views, logs = build(4, count=200, window=8)
        cluster.sim.call_after(ms(1), cluster.fail_node, 3)
        cluster.run(until=ms(100))
        new_view = views[0][-1]
        assert new_view.members == (0, 1, 2)

        # Collect what survived, then restart the epoch.
        undelivered = {
            nid: cluster.mc(nid, 0).undelivered_own_messages()
            for nid in new_view.members
        }
        already = {nid: len(logs[nid]) for nid in new_view.members}
        cluster.install_view(new_view)
        for nid in new_view.members:
            cluster.group(nid).on_delivery(
                0, lambda d, nid=nid: logs[nid].append((d.seq, d.sender)))

        def resender(nid):
            mc = cluster.mc(nid, 0)
            for slot in undelivered[nid]:
                yield from mc.send(slot.size, slot.payload)
            mc.mark_finished()

        for nid in new_view.members:
            cluster.spawn_sender(resender(nid))
        cluster.run(until=ms(200))

        resent_total = sum(len(v) for v in undelivered.values())
        for nid in new_view.members:
            new_deliveries = len(logs[nid]) - already[nid]
            assert new_deliveries == resent_total

    def test_new_view_smaller_sst(self):
        cluster, views, _ = build(3)
        cluster.sim.call_after(ms(1), cluster.fail_node, 2)
        cluster.run(until=ms(30))
        cluster.install_view(views[0][-1])
        assert sorted(cluster.groups) == [0, 1]
        assert cluster.group(0).sst.members == [0, 1]


def sole_sender_run(crash, at, sender=2, before_run=None,
                    auto_install=True):
    """Node ``sender`` is the only sender of subgroup [0, 1, 2] on four
    nodes: 400 eight-byte messages, 2 us apart, until the wedge. Node
    ``crash`` fails at ``at``; the view change runs audited.
    ``before_run(cluster)`` may instrument the built cluster."""
    cluster = Cluster(4, config=SpindleConfig.optimized(), seed=0)
    cluster.add_subgroup(members=[0, 1, 2], senders=[sender], window=8,
                         message_size=256)
    cluster.enable_membership()
    cluster.enable_recovery(RecoveryConfig(auto_install=auto_install))
    cluster.build()
    if before_run is not None:
        before_run(cluster)
    verifier = VsyncVerifier(cluster)

    def send(endpoint):
        try:
            for i in range(400):
                yield from endpoint.send(8, b"%08d" % i)
                yield us(2)
        except RuntimeError:
            return  # wedged by the view change

    cluster.spawn_sender(send(cluster.mc(sender, 0)))
    cluster.faults.crash(crash, at=at)
    cluster.run(until=ms(10))
    if not auto_install:
        return cluster, verifier
    assert cluster.view.view_id == 1
    assert crash not in cluster.view.members
    return cluster, verifier


class TestWedgedDelivery:
    def test_no_member_delivers_past_the_trim_after_it_wedges(self):
        """A wedged member's received_num stops advancing and its
        delivery predicate stops delivering, so no member delivers a
        message past the trim the leader commits: the trim reads each
        member's received_num as it stood at its wedge."""
        cluster, verifier = sole_sender_run(crash=3, at=us(90))
        report = verifier.check()
        assert report.ok, report.violations
        (decision,) = cluster.trim_ledger.committed.values()
        assert decision.trims[0] >= 0

    def test_a_skipped_delivery_ack_reaches_every_survivor_at_install(self):
        """Replica 0 wedges right after a delivery whose ack it left to
        its next receive ack: 5 us later the sender still reads an
        older delivered_num, and the wedged receive trigger never pushes
        it. The INSTALL push carries it: every survivor then holds the
        replica's final delivered_num, and the audit passes."""
        seen = {}

        def watch_the_wedge(cluster):
            replica, sender_sst = cluster.mc(0, 0), cluster.group(2).sst
            wedge = replica.wedge

            def wedged():
                if not replica.wedged:
                    seen["delivered"] = replica.delivered_seq
                    cluster.sim.call_after(us(5), lambda: seen.setdefault(
                        "sender_reads", sender_sst.read(
                            0, replica.cols.delivered)))
                wedge()
            replica.wedge = wedged

        cluster, verifier = sole_sender_run(
            crash=3, at=us(90), before_run=watch_the_wedge,
            auto_install=False)
        assert seen["sender_reads"] < seen["delivered"]
        replica = cluster.mc(0, 0)
        assert replica.delivered_seq >= seen["delivered"]
        for survivor in (0, 1, 2):
            assert cluster.group(survivor).sst.read(
                0, replica.cols.delivered) == replica.delivered_seq
        cluster.install_view(cluster.group(0).membership.new_view)
        assert cluster.view.view_id == 1
        report = verifier.check()
        assert report.ok, report.violations

    def test_a_sole_sender_pushes_its_received_num_at_the_wedge(self):
        """The sole sender posts no receive ack, so its received_num
        reaches the view leader (node 0, not the sender) only in the
        control span it pushes ahead of its wedge flags. Without that
        push the leader would read the initial -1 and commit trim -1
        under messages already delivered."""
        cluster, verifier = sole_sender_run(crash=1, at=us(150))
        report = verifier.check()
        assert report.ok, report.violations
        (decision,) = cluster.trim_ledger.committed.values()
        assert decision.leader == 0
        received = decision.survivor_received[0]
        assert received[2] >= received[0] >= 0
        assert decision.trims[0] == received[0]

"""Tests for the fault-injection plane: schedule validation + JSON
round-trip, the NIC drop-reason accounting (one explicit test per reason
code), and the FaultPlane behaviours (cuts, buffering, jitter, stalls,
crash/restart) against live clusters."""

import json

import pytest

from repro.core.config import SpindleConfig
from repro.faults import (
    CrashEvent,
    FaultSchedule,
    JitterEvent,
    PartitionEvent,
    SeverEvent,
    StallEvent,
)
from repro.rdma.fabric import RdmaFabric
from repro.rdma.memory import ByteRegion
from repro.rdma.nic import (
    DROP_DST_DOWN_AT_POST,
    DROP_DST_DOWN_IN_FLIGHT,
    DROP_INJECTED_LOSS,
    DROP_PARTITION,
    DROP_REGION_DEREGISTERED,
    DROP_SRC_DOWN,
    FaultDecision,
)
from repro.sim.engine import Simulator
from repro.sim.units import ms, us
from repro.workloads import Cluster, continuous_sender


# ==========================================================================
# Schedule validation and serialization
# ==========================================================================


class TestScheduleValidation:
    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            PartitionEvent(at=0.0, groups=((0, 1),))

    def test_partition_groups_must_not_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            PartitionEvent(at=0.0, groups=((0, 1), (1, 2)))

    def test_heal_must_follow_cut(self):
        with pytest.raises(ValueError, match="heal_at"):
            PartitionEvent(at=1.0, groups=((0,), (1,)), heal_at=0.5)

    def test_unknown_cut_mode_rejected(self):
        with pytest.raises(ValueError, match="cut mode"):
            SeverEvent(at=0.0, src=(0,), dst=(1,), mode="teleport")

    def test_sever_src_dst_disjoint(self):
        with pytest.raises(ValueError, match="overlap"):
            SeverEvent(at=0.0, src=(0, 1), dst=(1,))

    def test_jitter_must_inject_something(self):
        with pytest.raises(ValueError, match="injects nothing"):
            JitterEvent(at=0.0, until=1.0)

    def test_jitter_loss_is_probability(self):
        with pytest.raises(ValueError, match="probability"):
            JitterEvent(at=0.0, until=1.0, loss=1.5)

    def test_jitter_rejects_loopback_links(self):
        with pytest.raises(ValueError, match="loopback"):
            JitterEvent(at=0.0, until=1.0, jitter=us(1), links=((2, 2),))

    def test_stall_duration_positive(self):
        with pytest.raises(ValueError, match="positive"):
            StallEvent(at=0.0, node=1, duration=0.0)

    def test_stall_scope_checked(self):
        with pytest.raises(ValueError, match="scope"):
            StallEvent(at=0.0, node=1, duration=1.0, scope="galaxy")

    def test_crash_restart_after_crash(self):
        with pytest.raises(ValueError, match="restart_at"):
            CrashEvent(at=2.0, node=0, restart_at=1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CrashEvent(at=-1.0, node=0)

    def test_add_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultSchedule().add({"kind": "partition"})


class TestScheduleSerialization:
    def make_schedule(self):
        return (
            FaultSchedule(seed=7)
            .add(PartitionEvent(at=ms(1), groups=((0, 1), (2, 3)),
                                heal_at=ms(2)))
            .add(SeverEvent(at=ms(1), src=(0,), dst=(3,), mode="drop"))
            .add(JitterEvent(at=0.0, until=ms(5), extra_latency=us(2),
                             jitter=us(5), links=((0, 1), (1, 0))))
            .add(StallEvent(at=ms(1), node=2, duration=us(300),
                            scope="node"))
            .add(CrashEvent(at=ms(1), node=3, restart_at=ms(5)))
        )

    def test_json_round_trip_is_identity(self):
        schedule = self.make_schedule()
        clone = FaultSchedule.from_json(schedule.to_json())
        assert clone.seed == schedule.seed
        assert clone.events == schedule.events
        assert clone.to_json() == schedule.to_json()

    def test_json_carries_version_and_kinds(self):
        data = json.loads(self.make_schedule().to_json())
        assert data["version"] == 1
        assert [e["kind"] for e in data["events"]] == [
            "partition", "sever", "jitter", "stall", "crash"]

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            FaultSchedule.from_dict({"version": 99, "events": []})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSchedule.from_dict(
                {"version": 1, "events": [{"kind": "meteor", "at": 0.0}]})


# ==========================================================================
# NIC drop accounting: one explicit test per reason code
# ==========================================================================


def make_pair():
    sim = Simulator()
    fabric = RdmaFabric(sim)
    a, b = fabric.add_node(), fabric.add_node()
    src, dst = ByteRegion(8), ByteRegion(8)
    a.register(src)
    key = b.register(dst)
    qp = fabric.queue_pair(a.node_id, b.node_id)
    return sim, fabric, a, b, src, key, qp


class TestDropReasons:
    def test_src_down(self):
        sim, fabric, a, b, src, key, qp = make_pair()
        fabric.fail_node(a.node_id)
        qp.post_write(src, 0, key, 0, 1)
        sim.run()
        assert a.writes_dropped_by_reason == {DROP_SRC_DOWN: 1}
        assert a.writes_posted == 0  # never reached the NIC

    def test_dst_down_at_post(self):
        sim, fabric, a, b, src, key, qp = make_pair()
        fabric.fail_node(b.node_id)
        qp.post_write(src, 0, key, 0, 1)
        sim.run()
        assert a.writes_dropped_by_reason == {DROP_DST_DOWN_AT_POST: 1}
        assert a.writes_posted == 1  # bytes still crossed the egress link

    def test_dst_down_in_flight(self):
        sim, fabric, a, b, src, key, qp = make_pair()
        qp.post_write(src, 0, key, 0, 1)
        fabric.fail_node(b.node_id)  # dies after post, before arrival
        sim.run()
        assert a.writes_dropped_by_reason == {DROP_DST_DOWN_IN_FLIGHT: 1}

    def test_region_deregistered(self):
        sim, fabric, a, b, src, key, qp = make_pair()
        qp.post_write(src, 0, key, 0, 1)
        b.deregister(key)
        sim.run()
        # Charged to the *receiver*: its memory map razed the write.
        assert b.writes_dropped_by_reason == {DROP_REGION_DEREGISTERED: 1}

    def test_partition_drop(self):
        sim, fabric, a, b, src, key, qp = make_pair()
        a.fault_hook = lambda qp, size: FaultDecision(
            drop_reason=DROP_PARTITION)
        qp.post_write(src, 0, key, 0, 1)
        sim.run()
        assert a.writes_dropped_by_reason == {DROP_PARTITION: 1}
        assert b.writes_received == 0

    def test_injected_loss(self):
        sim, fabric, a, b, src, key, qp = make_pair()
        a.fault_hook = lambda qp, size: FaultDecision(
            drop_reason=DROP_INJECTED_LOSS)
        qp.post_write(src, 0, key, 0, 1)
        sim.run()
        assert a.writes_dropped_by_reason == {DROP_INJECTED_LOSS: 1}

    def test_per_reason_counts_sum_to_total(self):
        sim, fabric, a, b, src, key, qp = make_pair()
        fabric.fail_node(b.node_id)
        qp.post_write(src, 0, key, 0, 1)
        qp.post_write(src, 0, key, 0, 1)
        b.alive = True
        qp.post_write(src, 0, key, 0, 1)
        fabric.fail_node(b.node_id)
        sim.run()
        assert sum(a.writes_dropped_by_reason.values()) == a.writes_dropped
        assert fabric.total_writes_dropped() == 3
        assert fabric.drops_by_reason() == {
            DROP_DST_DOWN_AT_POST: 2, DROP_DST_DOWN_IN_FLIGHT: 1}

    def test_extra_latency_delays_arrival(self):
        sim, fabric, a, b, src, key, qp = make_pair()
        times = {}

        def run_once(tag, hook):
            s, f, na, nb, reg, k, q = make_pair()
            na.fault_hook = hook
            q.post_write(reg, 0, k, 0, 1)
            s.run()
            times[tag] = s.now

        run_once("plain", None)
        run_once("delayed", lambda qp, size: FaultDecision(
            extra_latency=us(50)))
        assert times["delayed"] == pytest.approx(times["plain"] + us(50))


# ==========================================================================
# FaultPlane behaviour against live clusters
# ==========================================================================


def small_cluster(n=4, count=0, seed=0, membership=None, window=10, size=512):
    cluster = Cluster(num_nodes=n, config=SpindleConfig.optimized(),
                      seed=seed)
    cluster.add_subgroup(message_size=size, window=window)
    if membership:
        cluster.enable_membership(**membership)
    cluster.build()
    logs = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: logs[nid].append((d.seq, d.sender)))
    if count:
        for nid in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=count, size=size))
    return cluster, logs


class TestPlaneCuts:
    def test_buffered_partition_heals_and_delivers_everything(self):
        cluster, logs = small_cluster(4, count=40)
        cluster.faults.partition([[0, 1], [2, 3]], at=us(30),
                                 heal_at=ms(2), mode="buffer")
        cluster.run()
        assert cluster.faults.heals == 1
        assert cluster.faults.writes_held > 0
        assert cluster.faults.writes_redelivered == cluster.faults.writes_held
        expected = 40 * 4
        assert all(len(log) == expected for log in logs.values())
        reference = logs[0]
        assert all(log == reference for log in logs.values())
        # Buffered cut: nothing is *lost*.
        assert cluster.fabric.drops_by_reason().get("partition", 0) == 0

    def test_drop_partition_tags_losses(self):
        cluster, logs = small_cluster(2, count=5)
        cluster.faults.partition([[0], [1]], at=0.0, mode="drop")
        cluster.run(until=ms(5))
        drops = cluster.fabric.drops_by_reason()
        assert drops.get("partition", 0) > 0

    def test_sever_is_asymmetric(self):
        cluster, _ = small_cluster(2)
        cluster.stop()  # quiet the protocol threads; drive SSTs by hand
        cluster.faults.sever([0], [1], at=0.0, mode="drop")
        node0, node1 = cluster.fabric.nodes[0], cluster.fabric.nodes[1]
        # Writes 0->1 die, writes 1->0 still fly.
        cluster.group(0).sst.set(0, 1)
        cluster.group(1).sst.set(0, 1)
        cluster.sim.spawn(cluster.group(0).sst.push_col(0))
        cluster.sim.spawn(cluster.group(1).sst.push_col(0))
        cluster.run(until=ms(1))
        assert node0.writes_dropped_by_reason.get("partition", 0) == 1
        assert node1.writes_dropped_by_reason.get("partition", 0) == 0
        assert node0.writes_received == 1
        assert node1.writes_received == 0

    def test_held_writes_redeliver_in_post_order(self):
        cluster, _ = small_cluster(2)
        cluster.stop()
        cluster.faults.sever([0], [1], at=0.0, heal_at=ms(1), mode="buffer")
        sst0 = cluster.group(0).sst
        arrivals = []
        cluster.fabric.nodes[1].on_remote_write.append(
            lambda region, snap: arrivals.append(list(snap.data)))

        def writer():
            for value in (1, 2, 3):
                sst0.set(0, value)
                yield from sst0.push_col(0)

        cluster.sim.spawn(writer())
        cluster.run(until=ms(5))
        assert cluster.faults.writes_redelivered == 3
        assert arrivals == [[1], [2], [3]]  # FIFO per QP preserved


class TestPlaneJitterStallCrash:
    def test_jitter_slows_but_does_not_lose(self):
        plain, logs_plain = small_cluster(3, count=30, seed=1)
        plain.run()
        base_time = plain.sim.now

        jittered, logs_jit = small_cluster(3, count=30, seed=1)
        jittered.faults.jitter(until=ms(50), extra_latency=us(3),
                               jitter=us(4), at=0.0)
        jittered.run()
        assert jittered.sim.now > base_time
        assert logs_jit[0] == logs_plain[0]
        assert jittered.fabric.total_writes_dropped() == 0

    def test_jitter_links_filter(self):
        cluster, _ = small_cluster(2)
        cluster.faults.jitter(until=ms(10), extra_latency=us(5),
                              links=[(0, 1)], at=0.0)
        decide = cluster.fabric.nodes[0].fault_hook
        qp01 = cluster.fabric.queue_pair(0, 1)
        qp10 = cluster.fabric.queue_pair(1, 0)
        assert decide(qp01, 64).extra_latency == pytest.approx(us(5))
        assert decide(qp10, 64) is None

    def test_stall_freezes_then_resumes_delivery(self):
        cluster, logs = small_cluster(3, count=30)
        cluster.faults.stall(1, duration=us(500), at=ms(0.3))
        cluster.run()
        assert cluster.faults.stalls_started == 1
        assert cluster.faults.stalls_finished == 1
        assert all(len(log) == 90 for log in logs.values())

    def test_crash_then_restart_revives_nic_only(self):
        cluster, _ = small_cluster(
            3, membership=dict(heartbeat_period=us(100),
                               suspicion_timeout=us(400)))
        cluster.faults.crash(2, at=ms(1), restart_at=ms(20))
        cluster.run(until=ms(30))
        assert cluster.faults.crashes == 1
        assert cluster.faults.restarts == 1
        assert cluster.fabric.nodes[2].alive
        # The view moved on without it (re-admission is a join, not
        # automatic): survivors installed (0, 1).
        svc = cluster.group(0).membership
        assert svc.installed and svc.new_view.members == (0, 1)

    def test_apply_schedule_replays_imperative_run(self):
        cluster, logs = small_cluster(4, count=30, seed=3)
        cluster.faults.partition([[0, 1], [2, 3]], at=ms(0.5),
                                 heal_at=ms(1.5))
        cluster.faults.jitter(until=ms(3), jitter=us(2), at=0.0)
        cluster.run()
        schedule_json = cluster.faults.schedule.to_json()

        replay, logs2 = small_cluster(4, count=30, seed=3)
        replay.faults.apply(FaultSchedule.from_json(schedule_json))
        replay.run()
        assert logs2 == logs
        assert replay.faults.counters() == cluster.faults.counters()


class TestMembershipHardening:
    def test_heal_within_grace_rescinds_suspicion(self):
        cluster, _ = small_cluster(
            4, membership=dict(heartbeat_period=us(100),
                               suspicion_timeout=us(500),
                               confirmation_grace=us(600)))
        cluster.faults.partition([[0, 1], [2, 3]], at=ms(1),
                                 heal_at=ms(1.8), mode="buffer")
        cluster.run(until=ms(10))
        for nid in cluster.node_ids:
            svc = cluster.group(nid).membership
            assert not svc.installed
            assert not svc.suspected_members()
        alarms = sum(sum(cluster.group(n).membership.false_alarms.values())
                     for n in cluster.node_ids)
        assert alarms > 0

    def test_backoff_scales_effective_timeout(self):
        cluster, _ = small_cluster(
            2, membership=dict(heartbeat_period=us(100),
                               suspicion_timeout=us(400),
                               confirmation_grace=us(600)))
        cluster.faults.partition([[0], [1]], at=ms(1), heal_at=ms(1.7))
        cluster.run(until=ms(5))
        svc = cluster.group(0).membership
        assert svc.effective_timeout(1) == pytest.approx(us(800))

    def test_minority_side_stalls_instead_of_split_brain(self):
        cluster, _ = small_cluster(
            5, membership=dict(heartbeat_period=us(100),
                               suspicion_timeout=us(400),
                               confirmation_grace=us(400)))
        cluster.faults.partition([[0, 1, 2], [3, 4]], at=ms(1), mode="drop")
        cluster.run(until=ms(40))
        for nid in (0, 1, 2):
            svc = cluster.group(nid).membership
            assert svc.installed and svc.new_view.members == (0, 1, 2)
        for nid in (3, 4):
            svc = cluster.group(nid).membership
            assert not svc.installed
            assert svc.minority_stalled

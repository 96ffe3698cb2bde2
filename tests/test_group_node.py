"""Tests for GroupNode wiring and the layout builder."""

import pytest

from repro.core.config import SpindleConfig
from repro.core.group import build_layout
from repro.core.membership import SubgroupSpec, View
from repro.workloads import Cluster, continuous_sender


class TestBuildLayout:
    def make_view(self, **kw):
        return View(0, (0, 1, 2), (
            SubgroupSpec.of(0, [0, 1, 2], window=4, message_size=128, **kw),
        ))

    def test_layout_contains_subgroup_block(self):
        layout, blocks, membership = build_layout(self.make_view())
        cols = blocks[0]
        assert (cols.received, cols.delivered, cols.nulls) == (0, 1, 2)
        assert len(layout) == 3 + 4  # control + window slots
        assert membership is None

    def test_membership_columns_appended(self):
        layout, blocks, membership = build_layout(
            self.make_view(), with_membership=True)
        assert membership is not None
        assert membership.heartbeat == 7  # after the subgroup block
        assert len(layout) > 7

    def test_persistent_block_has_persisted_column(self):
        layout, blocks, _ = build_layout(self.make_view(persistent=True))
        cols = blocks[0]
        assert cols.persisted == 3
        assert cols.control_span == (0, 4)

    def test_unordered_block_has_per_sender_acks(self):
        layout, blocks, _ = build_layout(
            self.make_view(delivery_mode="unordered"))
        cols = blocks[0]
        assert cols.recv_from(0) == 3
        assert cols.recv_from(2) == 5
        assert cols.control_span == (0, 6)

    def test_layout_identical_for_all_nodes(self):
        """Column offsets must agree across nodes (one-sided writes land
        by offset): building twice yields identical layouts."""
        a, _, _ = build_layout(self.make_view())
        b, _, _ = build_layout(self.make_view())
        assert a.cell_sizes == b.cell_sizes
        assert [c.name for c in a.columns] == [c.name for c in b.columns]


class TestGroupNodeWiring:
    def test_delivery_callbacks_fire_in_registration_order(self):
        cluster = Cluster(2, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=128, window=4)
        cluster.build()
        order = []
        cluster.group(0).on_delivery(0, lambda d: order.append("first"))
        cluster.group(0).on_delivery(0, lambda d: order.append("second"))
        cluster.spawn_sender(continuous_sender(
            cluster.mc(0, 0), count=1, size=128))
        cluster.run_to_quiescence()
        assert order == ["first", "second"]

    def test_on_durable_requires_persistent_subgroup(self):
        cluster = Cluster(2, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=128, window=4)
        cluster.build()
        with pytest.raises(KeyError):
            cluster.group(0).on_durable(0, lambda w: None)

    def test_teardown_releases_regions_and_hooks(self):
        cluster = Cluster(2, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=128, window=4)
        cluster.build()
        node = cluster.fabric.nodes[0]
        assert node.regions and node.on_remote_write
        cluster.group(0).teardown()
        assert not node.regions
        assert not node.on_remote_write

    def test_stats_accessor(self):
        cluster = Cluster(2, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=128, window=4)
        cluster.build()
        assert cluster.group(1).stats(0).delivered == 0


class TestRemoteWriteWakesBlockedSenders:
    """An arriving acknowledgment must ring the owning subgroup's
    ``slot_doorbell`` whatever its width; a slot push must not."""

    @staticmethod
    def land(cluster, lo, length):
        """Node 1's span ``[lo, lo+length)`` arrives at node 0."""
        sst = cluster.group(0).sst
        snap = cluster.group(1).sst.rows[1].snapshot(lo, length)
        cluster.fabric.nodes[0]._receive(snap, sst.rows[1].key)

    def test_control_span_wider_than_64_cells_rings(self):
        # 62 senders: received, delivered, nulls + 62 recv_from columns.
        cluster = Cluster(62, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=64, window=2,
                             delivery_mode="unordered")
        cluster.build()
        mc = cluster.mc(0, 0)
        lo, hi = mc.cols.control_span
        assert hi - lo > 64
        before = mc.slot_doorbell.rings
        self.land(cluster, lo, hi - lo)
        assert mc.slot_doorbell.rings == before + 1

    @pytest.mark.parametrize("width", [1, 3, 64, 80])
    def test_slot_only_write_does_not_ring(self, width):
        cluster = Cluster(2, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=64, window=80)
        cluster.add_subgroup(message_size=64, window=80)
        cluster.build()
        for sg in (0, 1):
            mc = cluster.mc(0, sg)
            before = [cluster.mc(0, g).slot_doorbell.rings for g in (0, 1)]
            self.land(cluster, mc.cols.first_slot, width)
            after = [cluster.mc(0, g).slot_doorbell.rings for g in (0, 1)]
            assert after == before

    def test_ack_rings_only_the_owning_subgroup(self):
        cluster = Cluster(2, config=SpindleConfig.optimized())
        cluster.add_subgroup(message_size=64, window=4)
        cluster.add_subgroup(message_size=64, window=4)
        cluster.build()
        lo, hi = cluster.mc(0, 1).cols.control_span
        before = [cluster.mc(0, g).slot_doorbell.rings for g in (0, 1)]
        self.land(cluster, lo, hi - lo)
        after = [cluster.mc(0, g).slot_doorbell.rings for g in (0, 1)]
        assert after == [before[0], before[1] + 1]

"""Unit tests for the SMC ring-buffer layer and its sequence arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.rdma import RdmaFabric
from repro.sim import Simulator
from repro.smc import (
    SMC,
    SlotValue,
    SubgroupColumns,
    contiguous_seq,
    ring_spans,
    seq_of,
    slot_position,
)
from repro.sst import SST, SSTLayout, wire_ssts


class TestRingArithmetic:
    def test_slot_position_wraps(self):
        assert slot_position(0, 4) == 0
        assert slot_position(3, 4) == 3
        assert slot_position(4, 4) == 0
        assert slot_position(9, 4) == 1

    def test_ring_spans_no_wrap(self):
        assert ring_spans(0, 3, 10) == [(0, 3)]
        assert ring_spans(7, 10, 10) == [(7, 3)]

    def test_ring_spans_with_wrap(self):
        assert ring_spans(8, 12, 10) == [(8, 2), (0, 2)]

    def test_ring_spans_full_window(self):
        assert ring_spans(5, 15, 10) == [(5, 5), (0, 5)]

    def test_ring_spans_empty(self):
        assert ring_spans(4, 4, 10) == []

    def test_ring_spans_overflow_rejected(self):
        with pytest.raises(ValueError):
            ring_spans(0, 11, 10)
        with pytest.raises(ValueError):
            ring_spans(5, 4, 10)

    @given(st.integers(0, 1000), st.integers(0, 50), st.integers(1, 60))
    def test_ring_spans_cover_exactly_once(self, lo, count, window):
        """Property: spans cover each message's slot exactly once, in
        order, with at most two spans."""
        count = min(count, window)
        hi = lo + count
        spans = ring_spans(lo, hi, window)
        assert len(spans) <= 2
        covered = [pos for first, n in spans for pos in range(first, first + n)]
        expected = [slot_position(k, window) for k in range(lo, hi)]
        assert covered == expected

    def test_seq_of_round_robin_order(self):
        # 3 senders: round 0 -> seqs 0,1,2; round 1 -> seqs 3,4,5.
        assert [seq_of(0, j, 3) for j in range(3)] == [0, 1, 2]
        assert [seq_of(1, j, 3) for j in range(3)] == [3, 4, 5]

    def test_paper_total_order_definition(self):
        """§3.3: M(i1,k1) < M(i2,k2) iff k1<k2 or (k1=k2 and i1<i2)."""
        S = 4
        msgs = [(k, i) for k in range(3) for i in range(S)]
        seqs = [seq_of(k, i, S) for (k, i) in msgs]
        assert seqs == sorted(seqs)
        for (k1, i1) in msgs:
            for (k2, i2) in msgs:
                lt_paper = k1 < k2 or (k1 == k2 and i1 < i2)
                lt_seq = seq_of(k1, i1, S) < seq_of(k2, i2, S)
                assert lt_paper == lt_seq


class TestContiguousSeq:
    def test_nothing_received(self):
        assert contiguous_seq([0, 0, 0], 3) == -1

    def test_one_full_round(self):
        assert contiguous_seq([1, 1, 1], 3) == 2

    def test_partial_round_prefix(self):
        assert contiguous_seq([2, 1, 1], 3) == 3
        assert contiguous_seq([2, 2, 1], 3) == 4

    def test_gap_blocks_progress(self):
        # rank 1 lagging: even if rank 2 is ahead, seq stops at rank 0.
        assert contiguous_seq([2, 1, 5], 3) == 3

    def test_single_sender(self):
        assert contiguous_seq([7], 1) == 6

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            contiguous_seq([1, 2], 3)
        with pytest.raises(ValueError):
            contiguous_seq([], 0)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8))
    def test_matches_bruteforce(self, covered):
        """Property: contiguous_seq == largest s with all seq<=s covered."""
        S = len(covered)
        received = {
            seq_of(k, j, S) for j in range(S) for k in range(covered[j])
        }
        expected = -1
        while expected + 1 in received:
            expected += 1
        assert contiguous_seq(covered, S) == expected

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8),
           st.integers(0, 7))
    def test_monotonic_in_coverage(self, covered, bump_idx):
        """Property: receiving more never decreases received_num."""
        S = len(covered)
        bumped = list(covered)
        bumped[bump_idx % S] += 1
        assert contiguous_seq(bumped, S) >= contiguous_seq(covered, S)


def build_smc_cluster(n=3, window=4, message_size=64):
    sim = Simulator()
    fabric = RdmaFabric(sim)
    nodes = [fabric.add_node() for _ in range(n)]
    ssts = {}
    smcs = {}
    cols_by_node = {}
    members = [x.node_id for x in nodes]
    for node in nodes:
        layout = SSTLayout()
        cols = SubgroupColumns.declare(layout, 0, window, message_size)
        ssts[node.node_id] = SST(layout, fabric, node, members)
        cols_by_node[node.node_id] = cols
    wire_ssts(ssts)
    for nid in members:
        smcs[nid] = SMC(ssts[nid], cols_by_node[nid], members)
    return sim, fabric, ssts, smcs


def arrived_slot(smc, sender, real_index):
    """``sender``'s message ``real_index`` if it has arrived, else None."""
    run = smc.arrived(sender, real_index, 1)
    return run[0] if run else None


class TestSMC:
    def test_declare_layout_block(self):
        layout = SSTLayout()
        cols = SubgroupColumns.declare(layout, 0, window=3, message_size=128)
        assert (cols.received, cols.delivered, cols.nulls) == (0, 1, 2)
        assert cols.first_slot == 3
        assert len(layout) == 6
        assert cols.control_span == (0, 3)

    def test_write_and_read_local_slot(self):
        sim, fabric, ssts, smcs = build_smc_cluster()
        value = SlotValue(0, 0, 5, b"hello", 0.0)
        smcs[0].write_slot(value)
        assert arrived_slot(smcs[0], 0, 0) == value
        assert arrived_slot(smcs[0], 0, 1) is None

    def test_push_messages_delivers_to_peers(self):
        sim, fabric, ssts, smcs = build_smc_cluster()
        for k in range(3):
            smcs[0].write_slot(SlotValue(k, k, 4, b"m%d" % k, 0.0))

        def proc():
            posted = yield from smcs[0].push_messages(0, 3)
            assert posted == 2  # one span, two peers

        sim.spawn(proc())
        sim.run()
        for peer in (1, 2):
            for k in range(3):
                assert arrived_slot(smcs[peer], 0, k).payload == b"m%d" % k

    def test_push_messages_wraparound_two_writes_per_peer(self):
        sim, fabric, ssts, smcs = build_smc_cluster(window=4)
        # Messages 3,4,5 occupy slots 3,0,1 -> two spans.
        for k in range(3, 6):
            smcs[0].write_slot(SlotValue(k, k, 4, b"x", 0.0))

        def proc():
            posted = yield from smcs[0].push_messages(3, 6)
            assert posted == 4  # two spans x two peers

        before = fabric.nodes[0].writes_posted
        sim.spawn(proc())
        sim.run()
        assert fabric.nodes[0].writes_posted - before == 4
        assert arrived_slot(smcs[1], 0, 5) is not None

    def test_slot_wrap_overwrites_old_message(self):
        sim, fabric, ssts, smcs = build_smc_cluster(window=4)
        smcs[0].write_slot(SlotValue(1, 1, 4, b"old", 0.0))
        smcs[0].write_slot(SlotValue(5, 5, 4, b"new", 1.0))  # slot 1 again
        assert arrived_slot(smcs[0], 0, 1) is None
        assert arrived_slot(smcs[0], 0, 5).payload == b"new"

    def test_push_control_is_single_write_per_peer(self):
        sim, fabric, ssts, smcs = build_smc_cluster()
        sst = ssts[0]
        cols = smcs[0].cols
        sst.set(cols.received, 10)
        sst.set(cols.delivered, 7)
        sst.set(cols.nulls, 2)

        def proc():
            yield from smcs[0].push_control()

        before = fabric.nodes[0].writes_posted
        sim.spawn(proc())
        sim.run()
        assert fabric.nodes[0].writes_posted - before == 2  # one per peer
        assert ssts[1].read(0, cols.received) == 10
        assert ssts[1].read(0, cols.delivered) == 7
        assert ssts[1].read(0, cols.nulls) == 2

    def test_control_push_size_is_24_bytes(self):
        sim, fabric, ssts, smcs = build_smc_cluster()

        def proc():
            yield from smcs[0].push_control()

        sim.spawn(proc())
        sim.run()
        # 2 peers x 24 bytes of control span.
        assert fabric.nodes[0].bytes_posted == 48

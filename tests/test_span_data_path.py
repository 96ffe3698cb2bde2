"""Property + equivalence tests for the span-granular data path
(docs/ENGINE.md, "Above the scheduler").

Every span call must equal its per-cell / per-message reference:

* ``CellRegion.read_span`` / ``snapshot`` / ``apply_write`` against a
  twin region driven only through ``read`` / ``write_local``, for
  arbitrary mixed-kind layouts — including an int cell demoted by an
  oversized value mid-run (the layout-time run table must not go
  stale) and snapshot reuse across an intervening write;
* ``SST.column`` against per-cell ``SST.read``;
* ``SMC.arrived`` against a per-cell ``SST.read`` loop;
* ``SubgroupStats.record_deliveries`` against the pre-batching
  per-message body, kept here as the reference, to the last bit.
"""

from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.core.stats import SubgroupStats
from repro.metrics.registry import DEFAULT_LATENCY_BUCKETS
from repro.rdma import CellRegion, RdmaFabric, WriteSnapshot
from repro.sim import Simulator, probe
from repro.smc import SMC, SlotValue, SubgroupColumns
from repro.sst import SST, SSTLayout, wire_ssts

KINDS = ("counter", "flag", "slot", "blob")

#: Values a cell may be handed: machine words, bools, oversized ints
#: (demote a typed cell), floats (demote), and opaque objects.
values = st.one_of(
    st.integers(-2**63, 2**63 - 1),
    st.booleans(),
    st.integers(2**63, 2**70),
    st.floats(allow_nan=False),
    st.none(),
    st.binary(max_size=4),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
)


@st.composite
def region_scripts(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=12))
    n = len(kinds)
    sizes = draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
    span = st.integers(0, n).flatmap(
        lambda off: st.tuples(st.just(off), st.integers(0, n - off)))
    op = st.one_of(
        st.tuples(st.just("write"), st.integers(0, n - 1), values),
        span.flatmap(lambda s: st.tuples(
            st.just("apply"), st.just(s[0]),
            st.lists(values, min_size=s[1], max_size=s[1]))),
        span.map(lambda s: ("snapshot",) + s),
    )
    return kinds, sizes, draw(st.lists(op, max_size=30))


class TestCellRegionSpans:
    @settings(max_examples=300, deadline=None)
    @given(region_scripts())
    def test_span_ops_equal_per_cell_reference(self, script):
        kinds, sizes, ops = script
        region = CellRegion(sizes, kinds=kinds)   # driven by span calls
        ref = CellRegion(sizes, kinds=kinds)      # driven cell by cell
        for op in ops:
            if op[0] == "write":
                _, i, v = op
                region.write_local(i, v)
                ref.write_local(i, v)
            elif op[0] == "apply":
                _, off, data = op
                before = region.version
                region.apply_write(WriteSnapshot(off, tuple(data), 0))
                assert region.version == before + 1
                for i, v in enumerate(data, off):
                    ref.write_local(i, v)
            else:
                _, off, length = op
                want = [ref.read(i) for i in range(off, off + length)]
                snap = region.snapshot(off, length)
                assert snap.offset == off
                assert list(snap.data) == want
                assert [type(x) for x in snap.data] == [type(x) for x in want]
                assert snap.size_bytes == sum(sizes[off:off + length])
                assert region.read_span(off, length) == want
            assert region.cells == ref.cells

    def test_demotion_mid_run_refreshes_the_run_table(self):
        region = CellRegion([8] * 4, kinds=["counter"] * 4)
        region.cells = [1, 2, 3, 4]
        assert region.snapshot(0, 4).data == (1, 2, 3, 4)
        region.write_local(2, 2**70)              # cell 2 -> object slot
        assert region.snapshot(0, 4).data == (1, 2, 2**70, 4)
        assert region.read_span(1, 3) == [2, 2**70, 4]
        region.apply_write(WriteSnapshot(0, (5, 6, 7, 8), 32))
        assert region.cells == [5, 6, 7, 8]
        # An oversized value inside an all-int span write demotes just
        # that cell and loses nothing.
        region.apply_write(WriteSnapshot(0, (9, 2**80), 16))
        assert region.cells == [9, 2**80, 7, 8]

    def test_snapshot_reused_only_while_version_is_unchanged(self):
        region = CellRegion([8, 8, 8], kinds=["counter"] * 3)
        first = region.snapshot(0, 3)
        assert region.snapshot(0, 3) is first     # pushed to the next peer
        assert region.snapshot(0, 2) is not first
        again = region.snapshot(0, 3)
        region.write_local(1, 7)                  # row changed between posts
        fresh = region.snapshot(0, 3)
        assert fresh is not again and fresh.data == (0, 7, 0)
        region.apply_write(WriteSnapshot(2, (9,), 8))
        assert region.snapshot(0, 3).data == (0, 7, 9)

    def test_out_of_bounds_spans_rejected(self):
        import pytest

        region = CellRegion([8, 8])
        for bad in ((-1, 1), (1, 2), (3, 0), (0, -1)):
            with pytest.raises(IndexError):
                region.read_span(*bad)
            with pytest.raises(IndexError):
                region.snapshot(*bad)
        with pytest.raises(IndexError):
            region.apply_write(WriteSnapshot(1, (1, 2), 16))
        with pytest.raises(IndexError):
            CellRegion.read_column([region], 2)
        with pytest.raises(IndexError):
            CellRegion.read_column([region], -1)


def build_ssts(n, window, per_sender_acks=False):
    sim = Simulator()
    fabric = RdmaFabric(sim)
    nodes = [fabric.add_node() for _ in range(n)]
    members = [x.node_id for x in nodes]
    ssts, cols = {}, None
    for node in nodes:
        layout = SSTLayout()
        cols = SubgroupColumns.declare(layout, 0, window, 64)
        layout.flag("tail.flag")
        ssts[node.node_id] = SST(layout, fabric, node, members)
    wire_ssts(ssts)
    return ssts, cols, members


class TestSstColumn:
    @given(st.lists(st.integers(-1, 50), min_size=3, max_size=3),
           st.lists(st.booleans(), min_size=3, max_size=3))
    def test_column_equals_per_cell_reads(self, counters, flags):
        ssts, cols, members = build_ssts(3, window=2)
        sst = ssts[0]
        flag_col = len(sst.layout) - 1
        for owner, (c, f) in enumerate(zip(counters, flags)):
            sst.rows[owner].apply_write(WriteSnapshot(cols.received, (c,), 8))
            sst.rows[owner].apply_write(WriteSnapshot(flag_col, (f,), 8))
        for col in (cols.received, cols.first_slot, flag_col):
            want = [sst.read(m, col) for m in members]
            assert sst.column(col) == want
            assert sst.column(col, tuple(members)) == want
            assert sst.column(col, [2, 0]) == [want[2], want[0]]

    def test_hb_read_hook_fires_once_per_foreign_row(self):
        ssts, cols, members = build_ssts(3, window=2)
        seen = []

        class Reads(probe.Probe):
            def sst_read(self, sst, owner):
                seen.append(owner)

        with probe.subscribed(Reads()):
            ssts[1].column(cols.delivered)
            ssts[1].read_span(2, cols.first_slot, 2)
            ssts[1].read_span(1, cols.first_slot, 2)   # own row: no join
        assert seen == [0, 2, 2]


@st.composite
def rings(draw):
    window = draw(st.integers(1, 8))
    base = draw(st.integers(0, 40))
    # Each position holds nothing, the message of the current lap, or
    # one from an older / newer lap.
    laps = draw(st.lists(st.sampled_from((None, -1, 0, 0, 0, 1)),
                         min_size=window, max_size=window))
    cursor = draw(st.integers(base, base + window))
    limit = draw(st.integers(1, window))
    return window, base, laps, cursor, limit


class TestSmcArrived:
    @settings(max_examples=300, deadline=None)
    @given(rings())
    def test_arrived_equals_per_cell_read_loop(self, ring):
        window, base, laps, cursor, limit = ring
        ssts, cols, members = build_ssts(2, window)
        smc = SMC(ssts[0], cols, members)
        lap0 = base // window
        for pos, lap in enumerate(laps):
            if lap is None or lap0 + lap < 0:
                continue
            index = (lap0 + lap) * window + pos
            slot = SlotValue(index, index, 64, None, 0.0)
            ssts[0].rows[1].apply_write(
                WriteSnapshot(cols.first_slot + pos, (slot,), 72))
        want, index = [], cursor
        while len(want) < limit:
            slot = ssts[0].read(1, cols.first_slot + index % window)
            if slot is None or slot.real_index != index:
                break
            want.append(slot)
            index += 1
        assert smc.arrived(1, cursor, limit) == want

    def test_full_window_run_wraps_once(self):
        ssts, cols, members = build_ssts(2, window=4)
        smc = SMC(ssts[0], cols, members)
        for index in range(2, 6):                  # slots 2, 3, 0, 1
            slot = SlotValue(index, index, 64, None, 0.0)
            ssts[0].rows[1].apply_write(
                WriteSnapshot(cols.first_slot + index % 4, (slot,), 72))
        assert [s.real_index for s in smc.arrived(1, 2, 4)] == [2, 3, 4, 5]
        assert [s.real_index for s in smc.arrived(1, 2, 1)] == [2]
        assert smc.arrived(1, 6, 4) == []


class ReferenceStats:
    """The per-message ``record_delivery`` body as it was before
    batching — three dicts and all — kept as the reference."""

    def __init__(self, stride, cap):
        self.stride, self.cap = stride, cap
        self.delivered = self.bytes = self.latency_count = 0
        self.latency_sum = self.latency_max = 0.0
        self.first = self.last = None
        self.curve, self.samples = [], []
        self.counts = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
        self.hist_sum = 0
        self.last_from, self.gap_sum, self.gap_count = {}, {}, {}

    def record(self, now, rank, size, queued_at):
        self.delivered += 1
        self.bytes += size
        if self.first is None:
            self.first = now
        self.last = now
        if self.delivered % self.stride == 0:
            self.curve.append((now, self.bytes))
        latency = now - queued_at
        self.counts[bisect_left(DEFAULT_LATENCY_BUCKETS, latency)] += 1
        self.hist_sum += latency * 1
        self.latency_sum += latency
        self.latency_count += 1
        if latency > self.latency_max:
            self.latency_max = latency
        if len(self.samples) < self.cap:
            self.samples.append(latency)
        previous = self.last_from.get(rank)
        if previous is not None:
            self.gap_sum[rank] = self.gap_sum.get(rank, 0.0) + (now - previous)
            self.gap_count[rank] = self.gap_count.get(rank, 0) + 1
        self.last_from[rank] = now

    def mean_interdelivery(self, rank):
        count = self.gap_count.get(rank, 0)
        return self.gap_sum[rank] / count if count else 0.0


delivery_rows = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 5), st.integers(0, 4096),
              st.floats(0.0, 1.0)),
    max_size=60)


class TestRecordDeliveries:
    @settings(max_examples=300, deadline=None)
    @given(delivery_rows, st.lists(st.integers(0, 9), max_size=12),
           st.integers(1, 5), st.integers(0, 20))
    def test_batches_equal_rows_fed_one_at_a_time(self, rows, cuts, stride,
                                                  cap):
        batched = SubgroupStats(curve_stride=stride, latency_sample_cap=cap)
        single = SubgroupStats(curve_stride=stride, latency_sample_cap=cap)
        ref = ReferenceStats(stride, cap)
        i = 0
        for cut in cuts + [len(rows)]:             # arbitrary batch sizes
            batched.record_deliveries(rows[i:i + cut])
            i += cut
        for row in rows:
            single.record_delivery(*row)
            ref.record(*row)
        for stats in (batched, single):
            assert stats.delivered == ref.delivered
            assert stats.bytes_delivered == ref.bytes
            assert stats.first_delivery_time == ref.first
            assert stats.last_delivery_time == ref.last
            assert stats.delivery_curve == ref.curve
            # == on floats: equal to the last bit, not approximately.
            assert stats.latency_sum == ref.latency_sum
            assert stats.latency_count == ref.latency_count
            assert stats.latency_max == ref.latency_max
            assert stats.latency_samples == ref.samples
            assert stats.latency_counts == ref.counts
            # The export's histogram sum: an int 0 until a delivery.
            assert stats.latency_sum == ref.hist_sum
            assert type(stats.latency_sum) is type(ref.hist_sum)
            for rank in range(7):
                assert (stats.mean_interdelivery(rank)
                        == ref.mean_interdelivery(rank))

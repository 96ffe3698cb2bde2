"""SMC — the small-message multicast mechanics over SST slots.

This module owns the *mechanics* of the per-subgroup slot block inside
the SST: writing messages into ring slots, reading peers' slots, and
pushing contiguous slot spans to subgroup members (one or two RDMA
writes per member, §3.2). The *policy* — when to send, when a slot is
reusable, ordering, acknowledgments — lives in
:mod:`repro.core.multicast`.

Column layout per subgroup (allocated by the group builder, contiguous):

    [received_num][delivered_num][nulls][slot 0] ... [slot w-1]

Keeping the three control counters adjacent means any acknowledgment
pushes the whole 24-byte control span in a single RDMA write, which is
both what Derecho does (contiguous row ranges) and what makes batched
acks one-write cheap.

Each control column has its own readers:

    column          read by
    received_num    every member (stability), and the view-change leader
                    (trim); a sole sender's: the leader alone
    delivered_num   the senders (slot reuse)
    nulls           every member (covered rounds)
    recv_from j     sender j (slot reuse, unordered mode)
    persisted_num   every member (durability)

So :meth:`SMC.push_control` goes to every peer by default — the receive
ack, null announcements, the unordered path's acks and the view change
— and, with ``SpindleConfig.reader_acks``, the atomic delivery
trigger's ack, whose only new value is delivered_num, goes to the other
senders alone (none for a lone sender). An atomic subgroup's sole
sender posts no receive ack at all: a member that holds a message got
it from the sender, so the other members leave the sender's
received_num out of stability, and the sender pushes it once, ahead of
its wedge flags, for the leader's trim. A non-sender skips its
delivery ack when its next receive ack is already due: that push goes
to every peer and carries the newer delivered_num. Derecho pushes the
row to every member; these narrowings go beyond the paper. Under the
same toggle the polling cycle runs receive before send, so a node's
acks enter its one egress queue ahead of its next
:meth:`SMC.push_messages` span.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from ..sst.table import SST
from .ring import SlotValue, ring_spans, slot_position

__all__ = ["SubgroupColumns", "SMC"]


class SubgroupColumns:
    """Column indices of one subgroup's block in the SST layout."""

    __slots__ = ("received", "delivered", "nulls", "persisted",
                 "recv_from0", "num_senders", "first_slot", "window")

    def __init__(self, received: int, delivered: int, nulls: int,
                 first_slot: int, window: int,
                 recv_from0: int = -1, num_senders: int = 0,
                 persisted: int = -1):
        self.received = received
        self.delivered = delivered
        self.nulls = nulls
        self.persisted = persisted
        self.recv_from0 = recv_from0
        self.num_senders = num_senders
        self.first_slot = first_slot
        self.window = window

    @classmethod
    def declare(cls, layout, subgroup_id: int, window: int,
                message_size: int, num_senders: int = 0,
                per_sender_acks: bool = False,
                persistent: bool = False) -> "SubgroupColumns":
        """Append this subgroup's columns to a layout being built.

        ``per_sender_acks`` adds one receive-ack counter per sender —
        used by the unordered (DDS QoS 1) mode, where slot reuse cannot
        rely on contiguous-sequence delivery acknowledgments.
        ``persistent`` adds the persisted_num column of the durable
        delivery mode.
        """
        received = layout.counter(f"sg{subgroup_id}.received_num")
        delivered = layout.counter(f"sg{subgroup_id}.delivered_num")
        nulls = layout.counter(f"sg{subgroup_id}.nulls", initial=0)
        persisted = -1
        if persistent:
            persisted = layout.counter(f"sg{subgroup_id}.persisted_num")
        recv_from0 = -1
        if per_sender_acks:
            recv_from0 = layout.counter(f"sg{subgroup_id}.recv_from0", initial=0)
            for j in range(1, num_senders):
                layout.counter(f"sg{subgroup_id}.recv_from{j}", initial=0)
        first_slot = layout.slot(f"sg{subgroup_id}.slot0", message_size)
        for i in range(1, window):
            layout.slot(f"sg{subgroup_id}.slot{i}", message_size)
        return cls(received, delivered, nulls, first_slot, window,
                   recv_from0, num_senders if per_sender_acks else 0,
                   persisted)

    def recv_from(self, sender_rank: int) -> int:
        """Per-sender receive-ack column (unordered mode only)."""
        if self.recv_from0 < 0:
            raise ValueError("subgroup has no per-sender ack columns")
        return self.recv_from0 + sender_rank

    @property
    def control_span(self):
        """(lo, hi) column span of the control counters (including the
        persisted_num and per-sender ack columns when present)."""
        if self.num_senders:
            return self.received, self.recv_from0 + self.num_senders
        if self.persisted >= 0:
            return self.received, self.persisted + 1
        return self.received, self.nulls + 1


class SMC:
    """One node's slot-block mechanics for one subgroup."""

    def __init__(self, sst: SST, cols: SubgroupColumns, members: Sequence[int]):
        self.sst = sst
        self.cols = cols
        self.members = list(members)
        self.window = cols.window
        #: Every other member, in member order: the default push targets.
        self.peers = [m for m in self.members if m != sst.node_id]
        #: RDMA writes posted for message-slot spans and for the control
        #: span (acks/nulls), §4.1.1.
        self.slot_writes = 0
        self.control_writes = 0

    # ----------------------------------------------------------- local slots

    def write_slot(self, value: SlotValue) -> None:
        """Place a message into the local ring slot for its real_index."""
        pos = slot_position(value.real_index, self.window)
        self.sst.set(self.cols.first_slot + pos, value)

    def arrived(self, sender: int, real_index: int,
                limit: int) -> List[SlotValue]:
        """The contiguous run of ``sender``'s messages that have arrived,
        from ``real_index`` on, at most ``limit`` (≤ window) of them.

        One span read per ring segment (two when the run wraps) instead
        of one cell read per message, and the run is a slice of what was
        read, not built a slot at a time. It ends at the first cell that
        is empty or holds another lap's message — a hole ends it even
        when later cells hold the messages after it, exactly as a
        per-cell read loop ends.
        """
        window = self.window
        pos = real_index % window
        count = min(limit, window - pos)
        span = self.sst.read_span(sender, self.cols.first_slot + pos, count)
        start = real_index
        for slot in span:
            if slot is None or slot.real_index != real_index:
                return span[:real_index - start]
            real_index += 1
        if count == limit:
            return span
        # The run reached the ring's end: it continues at slot 0.
        rest = self.sst.read_span(sender, self.cols.first_slot, limit - count)
        for slot in rest:
            if slot is None or slot.real_index != real_index:
                return span + rest[:real_index - start - count]
            real_index += 1
        return span + rest

    # ----------------------------------------------------------------- push

    def push_messages(self, lo: int, hi: int) -> Generator[float, None, int]:
        """Push local messages with real indices ``[lo, hi)`` to peers.

        At most two RDMA writes per peer (ring wrap-around). A generator
        to ``yield from`` — each post charges the caller CPU. Returns
        the number of RDMA writes posted.
        """
        spans = ring_spans(lo, hi, self.window)
        posted = 0
        for first, count in spans:
            col_lo = self.cols.first_slot + first
            yield from self.sst.push(col_lo, col_lo + count, self.peers)
            posted += len(self.peers)
        self.slot_writes += posted
        return posted

    def push_control(self, targets: Optional[Sequence[int]] = None
                     ) -> Generator[float, None, None]:
        """Push the control span (received/delivered/nulls) — the
        (possibly batched) acknowledgment write — to ``targets``, every
        peer by default: one RDMA write per target."""
        if targets is None:
            targets = self.peers
        lo, hi = self.cols.control_span
        yield from self.sst.push(lo, hi, targets)
        self.control_writes += len(targets)

"""The Derecho atomic multicast protocol with the Spindle optimizations.

One :class:`SubgroupMulticast` object is one node's protocol endpoint in
one subgroup. It owns the sender-side ring-buffer bookkeeping, the
receiver-side per-sender scan state, and the three predicates of §2.4
(send, receive, delivery), in both their baseline (pre-Spindle) and
optimized (§3.2–§3.4) forms, selected by
:class:`~repro.core.config.SpindleConfig`:

* ``batch_send``   — send trigger pushes *all* queued messages (≤ 2 RDMA
  writes per member) vs. one message per trigger.
* ``batch_receive`` — receive trigger sweeps every sender's slots and
  acknowledges once vs. consuming a single message and acknowledging it.
* ``batch_delivery`` — delivery trigger delivers every stable message
  and acknowledges once vs. one message per trigger.
* ``null_sends``   — §3.3 null-send scheme (see below).
* ``early_lock_release`` — handled by the predicate thread (§3.4): a
  trigger returns its RDMA posts, and a delivering trigger also its
  upcalls and acknowledgement, as a generator of deferred work that the
  thread runs after releasing the lock.

Round/sequence bookkeeping
--------------------------

Every message (application or null) from the sender with rank ``j``
occupies one *round* ``k``; its global sequence number is
``k * S + j`` (S = number of senders), which is exactly the paper's
round-robin total order. Application ("real") messages additionally
carry a per-sender ``real_index`` that determines their ring slot.

Nulls are announced through a monotonic per-subgroup SST counter rather
than by occupying ring slots — the paper's "sends the determined number
of nulls as a single integer" (§3.3). Because a node's SST pushes and
slot pushes travel on the same queue pair (FIFO), a receiver's covered
round count for sender ``j`` is simply
``reals_received[j] + nulls_seen[j]``, and the covered rounds are always
the contiguous prefix ``0..covered-1``.

The null-send rule is the paper's: on receiving message ``M(j, k)``,
a sender with rank ``i`` and current round ``l`` sends a null iff that
null would precede ``M(j, k)`` in the delivery order, i.e.
``l < k or (l == k and i < j)``. Nulls are only assigned when the sender
has no queued-but-unsent application messages; this preserves the
invariant that round announcements reach peers in round order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Sequence, Tuple

from ..metrics.stages import (
    STAGE_DELIVERY_PREDICATE,
    STAGE_RECEIVE_PREDICATE,
    STAGE_SEND_PREDICATE,
)
from ..ordering.base import OrderingEndpoint
from ..predicates.framework import Predicate, PredicateThread
from ..sim.engine import AtTime, Simulator
from ..sim.sync import Doorbell
from ..smc.multicast import SMC, SubgroupColumns
from ..smc.ring import SlotValue, contiguous_seq, seq_of
from ..sst.table import SST
from .config import SpindleConfig, TimingModel
from .stats import SubgroupStats

__all__ = ["SubgroupMulticast", "Delivery"]


class Delivery:
    """One delivered application message as handed to the upcall."""

    __slots__ = ("subgroup_id", "sender", "sender_rank", "seq", "payload", "size")

    def __init__(self, subgroup_id: int, sender: int, sender_rank: int,
                 seq: int, payload: Optional[bytes], size: int):
        self.subgroup_id = subgroup_id
        self.sender = sender
        self.sender_rank = sender_rank
        self.seq = seq
        self.payload = payload
        self.size = size

    def __repr__(self) -> str:
        return (f"<Delivery sg{self.subgroup_id} seq={self.seq} "
                f"from={self.sender} {self.size}B>")


class SubgroupMulticast(OrderingEndpoint):
    """One node's atomic multicast endpoint in one subgroup.

    The Spindle implementation of the
    :class:`~repro.ordering.base.OrderingEndpoint` contract
    (docs/ORDERING.md): :meth:`propose` is :meth:`send`, the stable
    prefix is the min received column, and congestion is ring-window
    occupancy."""

    has_send_window = True
    view_synchronous = True

    def __init__(
        self,
        sim: Simulator,
        sst: SST,
        cols: SubgroupColumns,
        subgroup_id: int,
        members: Sequence[int],
        senders: Sequence[int],
        config: SpindleConfig,
        timing: TimingModel,
        thread: PredicateThread,
        deliver_cb: Optional[Callable[[Delivery], None]] = None,
        stats: Optional[SubgroupStats] = None,
        delivery_mode: str = "atomic",
        extra_delivery_cost: Optional[Callable[[int], float]] = None,
    ):
        if not senders:
            raise ValueError("subgroup needs at least one sender")
        if any(s not in members for s in senders):
            raise ValueError("senders must be subgroup members")
        if delivery_mode not in ("atomic", "unordered"):
            raise ValueError(f"unknown delivery mode {delivery_mode!r}")
        self.delivery_mode = delivery_mode
        #: Per-message application-side delivery cost hook (seconds as a
        #: function of payload size) — used by the DDS storage QoS levels.
        self.extra_delivery_cost = extra_delivery_cost
        self.sim = sim
        self.sst = sst
        self.cols = cols
        self.subgroup_id = subgroup_id
        self.members = list(members)
        #: ``members`` as the (cached) row-set key of the stability scans.
        self._member_key = tuple(self.members)
        self.senders = list(senders)
        self.S = len(senders)
        self.window = cols.window
        self.config = config
        self.timing = timing
        self.thread = thread
        self.deliver_cb = deliver_cb
        self.stats = stats if stats is not None else SubgroupStats()
        self.smc = SMC(sst, cols, members)
        self.node_id = sst.node_id
        self._rank_of = {node: rank for rank, node in enumerate(self.senders)}
        self.my_rank: Optional[int] = self._rank_of.get(self.node_id)
        reader_acks = config.reader_acks
        sole_sender = (reader_acks and self.S == 1
                       and delivery_mode == "atomic")
        #: Where the delivery trigger's ack goes: with ``reader_acks``,
        #: the other members that send, in member order. Only a sender
        #: reads delivered_num (its slot reuse, :meth:`_reap_acked`), so
        #: a lone sender's is empty.
        self._ack_targets = (
            [m for m in self.smc.peers if m in self._rank_of]
            if reader_acks else self.smc.peers)
        #: With ``reader_acks``, an atomic subgroup's sole sender is its
        #: own first receiver: its send trigger takes what it pushes as
        #: received, so it runs no receive predicate and posts no
        #: receive ack (docs/ENGINE.md, "Acknowledgement targets").
        self.self_receives = sole_sender and self.my_rank is not None
        #: The rows whose received_num bounds stability. A non-sender
        #: of such a subgroup leaves the sender's out: its own receipt
        #: of a message implies the sender's, and the sender's copy here
        #: is never refreshed.
        self._stable_key = self._member_key
        if sole_sender and self.my_rank is None:
            self._stable_key = tuple(
                m for m in self.members if m != self.senders[0])
        #: An atomic non-sender's delivery ack may ride a due receive ack.
        self._acks_ride = (reader_acks and config.batch_receive
                           and delivery_mode == "atomic"
                           and self.my_rank is None)
        #: With ``reader_acks`` a sender receives its own message when it
        #: pushes it, not when it queues it: the receive scan reads the
        #: own ring only below reals_pushed. The own rank, or None.
        self._pushed_rank = self.my_rank if reader_acks else None

        # -- sender-side state (meaningful only if my_rank is not None) -------
        self.next_round = 0        # rounds assigned (reals queued + nulls)
        self.reals_queued = 0      # application messages placed in slots
        self.reals_pushed = 0      # application messages sent via RDMA
        self.nulls_announced = 0   # own nulls counter (mirrors SST cell)
        #: own queued-but-not-globally-delivered reals: (real_index, seq)
        self.own_inflight: Deque[Tuple[int, int]] = deque()
        #: ring slots :meth:`claim_slot` has promised to application
        #: threads that have not reached :meth:`queue_message` yet; they
        #: count against the window, so concurrent proposers cannot all
        #: pass the same free-slot check.
        self.slots_claimed = 0
        #: The uncontended :meth:`queue_message`'s one wake, reused: only
        #: the lock holder takes that path, and ``Process._step`` reads
        #: ``.time`` before anything else runs.
        self._send_wake = AtTime(0.0)
        #: set by the workload when it will send no more (flushes the
        #: fixed-batch ablation; harmless otherwise).
        self.finished_sending = False
        #: wedged by the view-change protocol: no new sends.
        self.wedged = False
        #: woken when delivery progress may have freed ring slots.
        self.slot_doorbell = Doorbell(sim, name=f"sg{subgroup_id}.slots@{self.node_id}")

        # -- receiver-side state ----------------------------------------------
        self.reals_received = [0] * self.S
        self.nulls_seen = [0] * self.S
        self.pending: List[Deque[SlotValue]] = [deque() for _ in range(self.S)]
        self.received_seq = -1
        self.delivered_seq = -1

        # -- predicates ---------------------------------------------------------
        self.send_predicate = _SendPredicate(self)
        self.receive_predicate = _ReceivePredicate(self)
        self.delivery_predicate = _DeliveryPredicate(self)

    def register_predicates(self) -> None:
        """Register this subgroup's predicates with the polling thread,
        which evaluates them in registration order, cyclically.

        The order decides which write leaves the node's one egress
        queue first. Derecho's is send, receive, delivery; with
        ``reader_acks`` it is receive, send, delivery, so the cycle's
        two acks are posted ahead of the next slot push
        (docs/ENGINE.md, "Predicate order").
        """
        if self.config.reader_acks and not self.self_receives:
            self.thread.register(self.receive_predicate)
        if self.my_rank is not None:
            self.thread.register(self.send_predicate)
        if not (self.self_receives or self.config.reader_acks):
            self.thread.register(self.receive_predicate)
        if self.delivery_mode == "atomic":
            # Unordered mode delivers in the receive trigger; there is
            # no stability stage.
            self.thread.register(self.delivery_predicate)

    # ======================================================================
    # Application-thread API (simulated generators)
    # ======================================================================

    def send(self, size: int, payload: Optional[bytes] = None
             ) -> Generator[Any, Any, int]:
        """Send one atomic multicast: claim a slot, construct the message
        in place, queue it for the send predicate.

        A generator for the application's sender thread to ``yield
        from``. Returns the message's ``real_index``. Blocks (in
        simulated time) while the ring window is full. Raises
        ``RuntimeError`` at first resumption once wedged (the
        conformance contract), and when a wedge ends a wait for a slot
        (:meth:`claim_slot`) or comes mid-construction
        (:meth:`queue_message`).
        """
        if self.wedged:
            raise RuntimeError("subgroup is wedged (view change in progress)")
        yield from self.claim_slot()
        cost = self.timing.message_construct
        if self.config.copy_on_send:
            cost += self.timing.memcpy_time(size)
        yield cost
        real_index = yield from self.queue_message(size, payload)
        return real_index

    #: Backend-generic alias: the returned ``real_index`` is this
    #: sender's 0-based ticket, as :meth:`OrderingEndpoint.propose`
    #: requires (round-robin order delivers each sender's reals in
    #: real_index order, exactly once).
    propose = send

    def claim_slot(self) -> Generator[Any, Any, int]:
        """Wait until the ring slot for the next message is reusable.

        A slot is free when the message that last used it has been
        delivered by *every* member (§2.3). The claim is a reservation:
        it holds the slot until :meth:`queue_message` fills it, so any
        number of application threads may propose on one endpoint.
        Lock-free: reads only monotonic SST state and bookkeeping the
        predicate thread never touches. Raises ``RuntimeError`` if the
        endpoint wedges while it waits (:meth:`wedge` rings the
        doorbell: a crashed member's acknowledgement never comes).
        """
        blocked = False
        wait_start = self.sim.now
        while True:
            # Reap only when the window looks full: an entry not yet
            # reaped only overstates the occupancy.
            if len(self.own_inflight) + self.slots_claimed < self.window:
                break
            self._reap_acked()
            if len(self.own_inflight) + self.slots_claimed < self.window:
                break
            if not blocked:
                blocked = True
                self.stats.sends_blocked += 1
            yield self.slot_doorbell.wait()
            if self.wedged:
                raise RuntimeError(
                    "subgroup is wedged (view change in progress)")
        if blocked:
            # §4.1.1 sender wait == the send_slot_acquire stage timer.
            self.stats.sender_wait_time += self.sim.now - wait_start
            self.stats.sender_waits += 1
        # One fetch-and-add among application threads; the predicate
        # thread never reads it, so it needs no lock (and taking
        # thread.lock here would cost simulated time).
        self.slots_claimed += 1  # spindle-lint: allow[lockset-unprotected-write]
        return self.reals_queued

    def queue_message(self, size: int, payload: Optional[bytes]
                      ) -> Generator[Any, Any, int]:
        """Place a constructed message in its slot and mark it ready.

        Takes the shared lock: the slot counter, round assignment and
        queued count are shared with the predicate thread (§2.4). From
        the grant at ``t_g`` the slot is written at ``t_a = t_g +
        lock_op`` and the lock released at ``t_c = (t_a +
        send_queue_cost) + lock_op``: an uncontended call sleeps
        straight to those two instants, a queued one takes one wake
        per step (docs/ENGINE.md), and its wait for the grant is
        counted as send_lock_acquire time.
        """
        if self.my_rank is None:
            raise RuntimeError(f"node {self.node_id} is not a sender in "
                               f"subgroup {self.subgroup_id}")
        if self.wedged:
            raise RuntimeError("subgroup is wedged (view change in progress)")
        timing = self.timing
        thread = self.thread
        if thread.lock.acquire_nowait():
            wake = self._send_wake
            t_a = self.sim.now + timing.lock_op
            wake.time = t_a
            yield wake
            real_index = self._queue_message_body(size, payload)
            wake.time = (t_a + timing.send_queue_cost) + timing.lock_op
            yield wake
            thread.lock.release()
            thread.doorbell.ring()
            return real_index
        wait_start = self.sim.now
        yield thread.lock.acquire()
        self._lock_waited(wait_start)
        yield timing.lock_op
        real_index = self._queue_message_body(size, payload)
        yield timing.send_queue_cost
        yield timing.lock_op
        thread.lock.release()
        thread.doorbell.ring()
        return real_index

    def _queue_message_body(self, size: int, payload: Optional[bytes]) -> int:
        """The under-lock slot assignment (shared by both lock paths).

        Both callers hold ``thread.lock``; the uncontended one takes it
        via ``acquire_nowait``, which the static lockset pass does not
        model as an acquire."""
        round_index = self.next_round
        self.next_round += 1  # spindle-lint: allow[lockset-unprotected-write]
        if self.slots_claimed:  # callers may queue without claiming
            self.slots_claimed -= 1  # spindle-lint: allow[lockset-unprotected-write]
        real_index = self.reals_queued
        self.reals_queued += 1
        slot = SlotValue(real_index, round_index, size, payload, self.sim.now)
        self.smc.write_slot(slot)
        self.own_inflight.append(
            (real_index, seq_of(round_index, self.my_rank, self.S))
        )
        self.stats.record_send(self.sim.now)
        return real_index

    def declare_inactive(self, rounds: int) -> Generator[Any, Any, None]:
        """§3.3: declare a known period of inactivity by announcing
        ``rounds`` nulls at once, letting peers' deliveries skip over
        this sender without waiting. Raises ``RuntimeError`` once
        wedged, as :meth:`send` does."""
        if self.my_rank is None:
            raise RuntimeError("only senders can declare inactivity")
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        wait_start = self.sim.now
        yield self.thread.lock.acquire()
        self._lock_waited(wait_start)
        if self.wedged:
            # Wedged before the call or while it queued for the lock.
            self.thread.lock.release()
            raise RuntimeError("subgroup is wedged (view change in progress)")
        if self.reals_queued != self.reals_pushed:
            # Queued-but-unsent reals must keep their round ordering.
            self.thread.lock.release()
            raise RuntimeError("cannot declare inactivity with queued sends")
        self._announce_nulls(rounds)
        if self.self_receives:
            # Its own nulls are received as they are announced.
            self.nulls_seen[0] = self.nulls_announced
            self._receive_own()
        self.thread.lock.release()
        yield from self.smc.push_control()

    def _lock_waited(self, since: float) -> None:
        """Count one application wait for the shared lock (§3.4; the
        send_lock_acquire stage timer)."""
        self.stats.send_lock_wait_time += self.sim.now - since
        self.stats.send_lock_waits += 1

    def mark_finished(self) -> None:
        """Tell the protocol this node will send no more (workload end)."""
        self.finished_sending = True
        self.thread.doorbell.ring()

    # ======================================================================
    # View-change support (called by the membership protocol)
    # ======================================================================

    def wedge(self) -> None:
        """Stop initiating multicasts (view change in progress). In
        atomic mode received_num also stops advancing and the delivery
        predicate stops delivering: from here on only
        :meth:`force_deliver_up_to` delivers, up to the leader's trim,
        which is computed from the received_num each member pushed
        before it wedged. Senders parked on a full window wake and
        raise."""
        self.wedged = True
        self.slot_doorbell.ring()

    def force_deliver_up_to(self, trim: int) -> int:
        """Ragged-edge cleanup: deliver every message with seq <= trim.

        The view-change leader guarantees trim = min over survivors of
        received_num, so this node necessarily holds all these messages;
        no per-message stability check is needed (or possible — failed
        members will never acknowledge). Returns the number of
        application messages delivered.
        """
        delivered = 0
        s = self.delivered_seq
        while s < trim:
            s += 1
            rank = s % self.S
            k = s // self.S
            dq = self.pending[rank]
            if dq and dq[0].round_index == k:
                slot = dq.popleft()
                self.stats.record_deliveries((self.sim.now,), ((rank, slot),))
                if self.deliver_cb is not None:
                    self.deliver_cb(Delivery(
                        self.subgroup_id, self.senders[rank], rank, s,
                        slot.payload, slot.size,
                    ))
                delivered += 1
            else:
                self.stats.nulls_skipped += 1
        if s > self.delivered_seq:
            self.delivered_seq = s
            self.sst.set(self.cols.delivered, s)
        return delivered

    def undelivered_own_messages(self) -> List[SlotValue]:
        """Own messages not delivered by the view that ended — the ones
        virtual synchrony requires the application to resend in the next
        view (paper §2.1)."""
        result = []
        for real_index, seq in self.own_inflight:
            if seq > self.delivered_seq:
                slot = self.sst.read_own(self.cols.first_slot + real_index % self.window)
                if slot is not None and slot.real_index == real_index:
                    result.append(slot)
        return result

    # ======================================================================
    # Internals shared by predicates
    # ======================================================================

    def _reap_acked(self) -> None:
        """Pop own messages whose slots may be reused.

        Atomic mode: reusable once delivered by every member (§2.3).
        Unordered mode: reusable once *received* by every member (the
        per-sender ack columns)."""
        if not self.own_inflight:
            return
        inflight = self.own_inflight
        if self.delivery_mode == "unordered":
            col = self.cols.recv_from(self.my_rank)
            min_received = min(self.sst.column(col, self._member_key))
            while inflight and inflight[0][0] < min_received:
                inflight.popleft()
            return
        min_delivered = min(
            self.sst.column(self.cols.delivered, self._member_key))
        while inflight and inflight[0][1] <= min_delivered:
            inflight.popleft()

    def _has_news(self, rank: int) -> bool:
        """Whether the sender with ``rank`` has input the receive trigger
        has not taken: its next ring slot's message, or more nulls."""
        sender = self.senders[rank]
        real_index = self.reals_received[rank]
        if rank != self._pushed_rank or real_index < self.reals_pushed:
            slot = self.sst.read(
                sender, self.cols.first_slot + real_index % self.window)
            if slot is not None and slot.real_index == real_index:
                return True
        return self.sst.read(sender, self.cols.nulls) > self.nulls_seen[rank]

    def _covered(self, rank: int) -> int:
        """Rounds covered (reals + nulls) from the sender with ``rank``."""
        return self.reals_received[rank] + self.nulls_seen[rank]

    def _pending_nulls(self) -> int:
        """§3.3: how many nulls this sender owes right now.

        A null is owed for every own round that would precede the
        highest message received so far in the delivery order
        (``M(i, l) < M(j, k)`` iff ``l < k or (l == k and i < j)``).
        Level-triggered — recomputed from the covered-round counts — so
        demand deferred while application sends were queued (nulls must
        not overtake queued rounds) is honoured once the queue drains.
        """
        i = self.my_rank
        if (i is None or not self.config.null_sends or self.wedged
                or self.reals_queued != self.reals_pushed):
            return 0
        best_round = -1
        best_rank = -1
        for j in range(self.S):
            if j == i:
                continue
            k = self._covered(j) - 1  # highest round received from j
            # '>=' keeps the highest-ranked sender among round ties: a
            # null at round k precedes M(j, k) for any j > i, so the
            # largest j determines the demand.
            if k >= best_round:
                best_round, best_rank = k, j
        if best_round < 0:
            return 0
        target = best_round if i < best_rank else best_round - 1
        return max(0, target - self.next_round + 1)

    def _announce_nulls(self, count: int) -> None:
        """Assign ``count`` null rounds and update the SST counter
        (the push is the caller's responsibility)."""
        self.next_round += count
        self.nulls_announced += count
        self.sst.set(self.cols.nulls, self.nulls_announced)
        self.stats.nulls_sent += count

    def stable_seq(self) -> int:
        """Highest sequence number received by *all* members (min of the
        received_num column — the delivery predicate's test, §2.4 —
        over the rows of ``_stable_key``)."""
        return min(self.sst.column(self.cols.received, self._stable_key))

    def _receive_own(self) -> None:
        """A sole sender's received_num: every round it has pushed or
        announced. Its callers, the send trigger and declare_inactive,
        never run wedged, so this needs no freeze check."""
        self.received_seq = self._covered(0) - 1
        self.sst.set(self.cols.received, self.received_seq)

    def window_in_use(self) -> int:
        """Own ring slots currently occupied by not-yet-stable messages
        or claimed for one under construction.

        Derived from the SST stability counters (``_reap_acked`` pops
        every message the minimum delivered/received column has passed),
        so ``window_in_use() / window`` is an honest congestion signal:
        1.0 means the next :meth:`claim_slot` would block on the
        slowest member's delivery progress. The request router's
        admission control (repro.shard.router, docs/SHARDING.md) uses
        exactly this ratio to reject-with-retry-after instead of
        letting closed-loop backpressure collapse the client queue.
        """
        self._reap_acked()
        return len(self.own_inflight) + self.slots_claimed

    def stable_prefix(self) -> int:
        """Backend-generic name for :meth:`stable_seq`."""
        return self.stable_seq()

    def congestion(self) -> float:
        """See :meth:`OrderingEndpoint.congestion`: ring occupancy,
        pinned to 1.0 while wedged."""
        if self.wedged:
            return 1.0
        return min(1.0, self.window_in_use() / self.window)


# ==========================================================================
# Predicates
# ==========================================================================


class _SendPredicate(Predicate):
    """Detects queued application messages and pushes them to peers."""

    stage = STAGE_SEND_PREDICATE

    def __init__(self, mc: SubgroupMulticast):
        self.mc = mc
        self.name = f"sg{mc.subgroup_id}.send"
        self.subgroup = mc.subgroup_id

    def evaluate(self):
        mc = self.mc
        cost = mc.timing.predicate_eval
        if mc.wedged:
            return cost, 0
        queued = mc.reals_queued - mc.reals_pushed
        if queued <= 0:
            return cost, 0
        fixed = mc.config.fixed_send_batch
        if fixed > 0 and queued < fixed and not mc.finished_sending:
            return cost, 0  # ablation: wait to accumulate a full batch
        return cost, queued

    def trigger(self, queued: int):
        mc = self.mc
        count = queued if mc.config.batch_send else 1
        lo = mc.reals_pushed
        hi = lo + count
        mc.reals_pushed = hi
        mc.stats.send_batches[count] += 1
        yield mc.timing.trigger_base
        # The queue may just have drained: null demand deferred while
        # application rounds were queued becomes due now (§3.3). The
        # announcement travels after the message push on the same QPs,
        # preserving round order at every receiver.
        nulls = mc._pending_nulls()
        if nulls:
            mc._announce_nulls(nulls)
        if mc.self_receives:
            # The receive trigger's work for its own messages, done
            # here: into pending, billed per message, received_num up.
            run = mc.smc.arrived(mc.node_id, mc.reals_received[0], count)
            mc.pending[0].extend(run)
            mc.reals_received[0] += count
            mc.stats.received += count
            mc.stats.receive_batches[count] += 1
            cost = 0.0
            per_message = mc.timing.receive_per_message
            for _ in range(count):
                cost += per_message  # summed one by one: float-exact
            yield cost
            mc._receive_own()
        if not mc.smc.peers:
            return None  # a one-member subgroup: nothing to post
        return mc.thread.post(self._push_messages_and_nulls(lo, hi, nulls))

    def _push_messages_and_nulls(self, lo: int, hi: int, nulls: int):
        mc = self.mc
        posted = yield from mc.smc.push_messages(lo, hi)
        if nulls:
            yield from mc.smc.push_control()
        return posted


class _ReceivePredicate(Predicate):
    """Scans every sender's slots (and null counters) for new messages,
    advances received_num, and runs the null-send rule (§3.3)."""

    stage = STAGE_RECEIVE_PREDICATE

    def __init__(self, mc: SubgroupMulticast):
        self.mc = mc
        self.name = f"sg{mc.subgroup_id}.receive"
        self.subgroup = mc.subgroup_id

    def evaluate(self):
        mc = self.mc
        cost = mc.timing.predicate_eval + mc.S * mc.timing.slot_check
        for rank in range(mc.S):
            if mc._has_news(rank):
                return cost, True
        return cost, False

    def trigger(self, _value):
        mc = self.mc
        timing = mc.timing
        unordered = mc.delivery_mode == "unordered"
        yield timing.trigger_base

        read = mc.sst.read
        arrived = mc.smc.arrived
        nulls_col = mc.cols.nulls
        nulls_seen = mc.nulls_seen
        reals_received = mc.reals_received
        # At most `window` messages per sender can be outstanding.
        limit = mc.window if mc.config.batch_receive else 1
        consumed_reals = 0
        consumed_slots: List[Tuple[int, SlotValue]] = []
        for rank, sender in enumerate(mc.senders):
            # -- null announcements from this sender ---------------------------
            announced = read(sender, nulls_col)
            if announced > nulls_seen[rank]:
                nulls_seen[rank] = announced
            # -- new application messages in the ring --------------------------
            count = limit
            if rank == mc._pushed_rank:
                count = min(limit, mc.reals_pushed - reals_received[rank])
            run = arrived(sender, reals_received[rank], count)
            if run:
                if unordered:
                    consumed_slots.extend([(rank, slot) for slot in run])
                else:
                    mc.pending[rank].extend(run)
                reals_received[rank] += len(run)
                consumed_reals += len(run)
                if limit == 1:
                    break
        cost = 0.0
        per_message = timing.receive_per_message
        for _ in range(consumed_reals):
            cost += per_message  # summed one by one: float-exact
        # §3.3 null-send rule, level-triggered on the covered rounds
        # (nulls are withheld while own sends are queued; the send
        # trigger re-checks once the queue drains).
        nulls_to_send = 0 if unordered else mc._pending_nulls()
        if unordered and consumed_slots:
            # QoS "unordered": deliver on receipt. The upcalls and the
            # acknowledgements are deferred work, as in the delivery
            # trigger; the scan above is all that needs the lock.
            return self._deliver(consumed_slots, consumed_reals, cost)
        yield cost
        if nulls_to_send:
            mc._announce_nulls(nulls_to_send)
        ack_needed = self._advance_received(consumed_reals)
        if not (ack_needed or nulls_to_send) or not mc.smc.peers:
            return None
        if nulls_to_send:
            mc.stats.null_announce_pushes += 1
        return mc.thread.post(mc.smc.push_control())

    def _deliver(self, consumed_slots: List[Tuple[int, SlotValue]],
                 consumed_reals: int, cost: float):
        """Unordered mode's deferred work: bill the batch from ``cost``
        (the scan's) on, hand each message to the application at its
        own upcall instant, then acknowledge each sender and push."""
        mc = self.mc
        stats = mc.stats
        times, cost, upcall_cost = self._bill(consumed_slots, mc.sim.now, cost)
        stats.record_deliveries(times, consumed_slots)
        # Nested stage: upcall time inside the receive predicate.
        stats.upcall_time += upcall_cost
        stats.upcalls += len(consumed_slots)
        deliver_cb = mc.deliver_cb
        if deliver_cb is None:
            yield cost
        else:
            # Each message at its own upcall instant, as in the delivery
            # trigger; the last one is the batch's end.
            wake = AtTime(0.0)
            for at, (rank, slot) in zip(times, consumed_slots):
                wake.time = at
                yield wake
                deliver_cb(Delivery(
                    mc.subgroup_id, mc.senders[rank], rank,
                    seq_of(slot.round_index, rank, mc.S),
                    slot.payload, slot.size,
                ))
        for rank, _slot in consumed_slots:
            mc.sst.set(mc.cols.recv_from(rank), mc.reals_received[rank])
        mc._reap_acked()
        mc.slot_doorbell.ring()
        self._advance_received(consumed_reals)
        if mc.smc.peers:
            yield from mc.thread.post(mc.smc.push_control())

    def _bill(self, consumed_slots: List[Tuple[int, SlotValue]],
              now: float, cost: float) -> Tuple[List[float], float, float]:
        """Each consumed message's upcall instant, billed on from
        ``cost`` (the scan's) at ``now``, the batch's cost and its
        upcall seconds."""
        mc = self.mc
        timing = mc.timing
        per_message = timing.delivery_per_message
        extra_cost = mc.extra_delivery_cost
        copy_on_delivery = mc.config.copy_on_delivery
        upcall_base = timing.delivery_upcall
        upcall_cost = 0.0
        times: List[float] = []
        append = times.append
        for _rank, slot in consumed_slots:
            cost += per_message
            upcall = upcall_base
            if copy_on_delivery:
                upcall += timing.memcpy_time(slot.size)
            if extra_cost is not None:
                upcall += extra_cost(slot.size)
            cost += upcall
            upcall_cost += upcall
            append(now + cost)
        return times, cost, upcall_cost

    def _advance_received(self, consumed_reals: int) -> bool:
        """Count the batch and advance received_num (in unordered mode
        delivered_num with it); returns whether it advanced."""
        mc = self.mc
        if consumed_reals:
            mc.stats.received += consumed_reals
            mc.stats.receive_batches[consumed_reals] += 1
        covered = [mc._covered(r) for r in range(mc.S)]
        new_received = contiguous_seq(covered, mc.S)
        # An atomic endpoint's received_num freezes at the wedge (see
        # SubgroupMulticast.wedge).
        if new_received <= mc.received_seq or (
                mc.wedged and mc.delivery_mode == "atomic"):
            return False
        mc.received_seq = new_received
        mc.sst.set(mc.cols.received, new_received)
        if mc.delivery_mode == "unordered":
            # Delivered == received in unordered mode (diagnostics and
            # the window-freeing fallback path).
            mc.delivered_seq = new_received
            mc.sst.set(mc.cols.delivered, new_received)
        return True


class _DeliveryPredicate(Predicate):
    """Delivers messages that every member has received, in sequence
    order, skipping null rounds; then acknowledges via delivered_num."""

    stage = STAGE_DELIVERY_PREDICATE

    def __init__(self, mc: SubgroupMulticast):
        self.mc = mc
        self.name = f"sg{mc.subgroup_id}.delivery"
        self.subgroup = mc.subgroup_id

    def evaluate(self):
        mc = self.mc
        cost = mc.timing.predicate_eval + len(mc.members) * mc.timing.slot_check
        if mc.wedged:
            return cost, None  # only force_deliver_up_to delivers now
        stable = mc.stable_seq()
        if stable > mc.delivered_seq:
            # Wrapped in a tuple: stable may be 0, which must stay truthy.
            return cost, (stable,)
        return cost, None

    def trigger(self, value):
        """The batch plan, under the lock: take every stable message off
        ``pending`` and count the null rounds passed over. Everything
        else is the returned deferred work (:meth:`_deliver`)."""
        (stable,) = value
        mc = self.mc
        yield mc.timing.trigger_base

        S = mc.S
        pending = mc.pending
        #: (rank, slot) per application message, in delivery order.
        planned: List[Tuple[int, SlotValue]] = []
        plan = planned.append
        s = mc.delivered_seq
        last = stable if mc.config.batch_delivery else min(stable, s + 1)
        nulls_skipped = 0
        while s < last:
            s += 1
            rank = s % S
            k = s // S
            dq = pending[rank]
            if dq and dq[0].round_index == k:
                plan((rank, dq.popleft()))
            else:
                if dq and dq[0].round_index < k:
                    raise AssertionError(
                        f"delivery order violated in sg{mc.subgroup_id}: "
                        f"pending round {dq[0].round_index} < expected {k}"
                    )
                nulls_skipped += 1
        if nulls_skipped:
            mc.stats.nulls_skipped += nulls_skipped
        return self._deliver(planned, s)

    def _deliver(self, planned: List[Tuple[int, SlotValue]], s: int):
        """The batch's deferred work, from ``t0`` (the release under
        §3.4, the plan's end otherwise): bill and record each message's
        delivery, hand it to the application at its own upcall instant
        if the node is observed, then acknowledge the batch up to ``s``
        once. An unobserved node builds no :class:`Delivery`."""
        mc = self.mc
        stats = mc.stats
        count = len(planned)
        times, cost, upcall_cost = self._bill(planned, mc.sim.now)
        stats.record_deliveries(times, planned)
        if upcall_cost:
            # Nested stage: upcall time inside the delivery predicate.
            stats.upcall_time += upcall_cost
            stats.upcalls += count
        deliver_cb = mc.deliver_cb
        if deliver_cb is None or not count:
            yield cost
        else:
            # Hand message i to the application at its own upcall
            # instant times[i]: one wake per distinct instant (a batched
            # upcall shares one), the last being t0 + cost, and all of
            # them through one AtTime (Process._step reads its time
            # before this generator resumes). delivered_seq follows
            # each upcall; the sleeps are this thread's, so a crash
            # mid-batch stops the rest and leaves delivered_seq at
            # exactly the upcalls that ran.
            S = mc.S
            senders = mc.senders
            subgroup_id = mc.subgroup_id
            wake = AtTime(0.0)
            at = None
            for now, (rank, slot) in zip(times, planned):
                if now != at:
                    at = wake.time = now
                    yield wake
                seq = slot.round_index * S + rank
                mc.delivered_seq = seq
                deliver_cb(Delivery(subgroup_id, senders[rank], rank, seq,
                                    slot.payload, slot.size))

        # The acknowledgement stays batched: one delivered_num write,
        # reap, doorbell and push per batch, at t0 + cost — after the
        # upcalls, which read their ring slots in place (§3.1). The push
        # goes to its readers, the other senders, only: received_num
        # and nulls went to every peer in the receive trigger's push.
        # A non-sender skips it when the rank of seq received_seq + 1
        # has news: the receive trigger's next run then advances
        # received_num and pushes the control span, this delivered_num
        # or a later one, to every peer. Wedged, received_num is frozen
        # and the view change's INSTALL push carries the span instead.
        mc.delivered_seq = s
        mc.sst.set(mc.cols.delivered, s)
        if planned:
            mc.stats.delivery_batches[len(planned)] += 1
        mc._reap_acked()
        mc.slot_doorbell.ring()
        if mc._ack_targets and not (
                mc._acks_ride and not mc.wedged
                and mc._has_news((mc.received_seq + 1) % mc.S)):
            yield from mc.thread.post(mc.smc.push_control(mc._ack_targets))

    def _bill(self, planned: List[Tuple[int, SlotValue]], t0: float
              ) -> Tuple[List[float], float, float]:
        """Each planned message's upcall instant from ``t0``, the
        batch's cost and its upcall seconds. A batched upcall hands the
        whole batch over at one shared instant."""
        mc = self.mc
        timing = mc.timing
        per_message = timing.delivery_per_message
        extra_cost = mc.extra_delivery_cost
        copy_on_delivery = mc.config.copy_on_delivery
        cost = 0.0
        upcall_cost = 0.0
        if mc.config.batched_upcall:
            for _rank, slot in planned:
                cost += per_message
                if extra_cost is not None:
                    cost += extra_cost(slot.size)
            if planned:
                upcall = (timing.batched_upcall_base
                          + timing.batched_upcall_per_message * len(planned))
                if copy_on_delivery:
                    upcall += sum(timing.memcpy_time(slot.size)
                                  for _rank, slot in planned)
                cost += upcall
                upcall_cost += upcall
            # The whole batch is handed to the application at once.
            return [t0 + cost] * len(planned), cost, upcall_cost
        upcall_base = timing.delivery_upcall
        times: List[float] = []
        append = times.append
        for _rank, slot in planned:
            cost += per_message
            if extra_cost is not None:
                cost += extra_cost(slot.size)
            upcall = upcall_base
            if copy_on_delivery:
                upcall += timing.memcpy_time(slot.size)
            cost += upcall
            upcall_cost += upcall
            # Timestamp each delivery at its upcall completion.
            append(t0 + cost)
        return times, cost, upcall_cost

"""Configuration for the Derecho/Spindle protocol stack.

Two dataclasses:

* :class:`SpindleConfig` — feature toggles. Each Spindle optimization
  from the paper (§3) can be enabled independently, which is exactly how
  the paper evaluates them (Fig. 5 adds delivery, receive and send
  batching one at a time; Fig. 12 adds early lock release on top; etc.).
  ``SpindleConfig.baseline()`` reproduces pre-Spindle Derecho;
  ``SpindleConfig.optimized()`` enables everything.

* :class:`TimingModel` — CPU cost constants for protocol actions. The
  RDMA-side constants live in :class:`repro.rdma.latency.LatencyModel`;
  these are the host-side costs (predicate evaluation, upcalls, memcpy,
  lock operations) calibrated to the magnitudes the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..sim.units import gb_per_s, us

__all__ = ["SpindleConfig", "TimingModel"]


@dataclass(frozen=True)
class SpindleConfig:
    """Feature toggles for the Spindle optimizations (paper §3).

    The default-constructed config is the *baseline*: per-message sends
    and acknowledgments, no null messages, RDMA writes posted while
    holding the shared lock — pre-Spindle Derecho behaviour.
    """

    #: §3.2 — send predicate aggregates all queued messages into at most
    #: two RDMA writes per remote member (ring wrap-around).
    batch_send: bool = False
    #: §3.2 — receive predicate sweeps every sender's slots, consuming
    #: all arrived messages, then acknowledges once.
    batch_receive: bool = False
    #: §3.2 — delivery predicate delivers every deliverable message,
    #: then acknowledges once.
    batch_delivery: bool = False
    #: §3.3 — null-send scheme for lagging senders.
    null_sends: bool = False
    #: §3.4 — restructure predicates to post RDMA writes after releasing
    #: the shared lock.
    early_lock_release: bool = False
    #: §3.5 option 1 — deliver a whole batch to the application in one
    #: upcall instead of one upcall per message.
    batched_upcall: bool = False
    #: §3.1/§4.4 — application copies data into the send slot rather
    #: than constructing in place (adds a memcpy on the send path).
    copy_on_send: bool = False
    #: §4.4 — application memcpy's the message out of the ring buffer
    #: during the delivery upcall.
    copy_on_delivery: bool = False
    #: Ablation (§3.2: "performance collapsed"): if > 0, the send
    #: predicate *waits* until this many messages are queued. 0 means
    #: opportunistic (send whatever is there).
    fixed_send_batch: int = 0
    #: Beyond the paper: each acknowledgement reaches only the members
    #: that read it, and ahead of the next payload. The atomic delivery
    #: ack goes to the other senders alone (the readers of
    #: delivered_num), a subgroup's sole sender takes what it pushes as
    #: received, so it posts no receive ack, and the polling cycle runs
    #: receive, send, delivery, with a sender receiving its own message
    #: when it pushes it. Off, every ack goes to every member from a
    #: send, receive, delivery cycle, as in Derecho.
    reader_acks: bool = False

    # -- canned configurations ------------------------------------------------

    @classmethod
    def baseline(cls) -> "SpindleConfig":
        """Pre-Spindle Derecho: no batching, no nulls, locks held across posts."""
        return cls()

    @classmethod
    def batching_only(cls) -> "SpindleConfig":
        """Opportunistic batching at all three stages (§4.1)."""
        return cls(batch_send=True, batch_receive=True, batch_delivery=True,
                   reader_acks=True)

    @classmethod
    def batching_and_nulls(cls) -> "SpindleConfig":
        """Batching plus the null-send scheme (§4.2)."""
        return cls(batch_send=True, batch_receive=True, batch_delivery=True,
                   null_sends=True, reader_acks=True)

    @classmethod
    def optimized(cls) -> "SpindleConfig":
        """All Spindle optimizations (§4.3 onward: 'final')."""
        return cls(batch_send=True, batch_receive=True, batch_delivery=True,
                   null_sends=True, early_lock_release=True,
                   reader_acks=True)

    def with_(self, **changes) -> "SpindleConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class TimingModel:
    """Host-side CPU cost constants (seconds).

    Calibrated so the simulated system matches the paper's reported
    magnitudes: posting dominates the baseline predicate thread (>30 %
    of its time, §3.2), predicate evaluation is cheap but adds up across
    tens of subgroups (§4.1.3), and a 10 KB memcpy costs well under a
    microsecond (§4.4).
    """

    #: Cost to test one predicate that finds nothing (branchy poll code).
    predicate_eval: float = us(0.05)
    #: Extra cost to check one sender's slot in the receive predicate.
    slot_check: float = us(0.05)
    #: Fixed cost of running any trigger body (bookkeeping, min-scan).
    trigger_base: float = us(0.15)
    #: Per-message cost in the receive trigger (counter update etc.).
    receive_per_message: float = us(0.15)
    #: Per-message protocol cost in the delivery trigger.
    delivery_per_message: float = us(0.15)
    #: Application processing time per delivered message (the upcall).
    delivery_upcall: float = us(0.40)
    #: With batched upcalls: fixed cost per batch...
    batched_upcall_base: float = us(0.20)
    #: ...plus this much per message in the batch.
    batched_upcall_per_message: float = us(0.05)
    #: Application-thread cost to claim a slot and queue a send.
    send_queue_cost: float = us(0.15)
    #: Application-thread cost to construct a message in place
    #: (excluding any payload memcpy, which is modeled separately).
    message_construct: float = us(0.20)
    #: CPU cost of a lock acquire or release operation.
    lock_op: float = us(0.02)

    # -- memcpy model (paper Fig. 14) -----------------------------------------

    #: Base latency of any memcpy call.
    memcpy_base: float = us(0.05)
    #: Copy bandwidth while data fits in cache (≤ cache_boundary).
    memcpy_bw_cached: float = gb_per_s(25.0)
    #: Copy bandwidth beyond the cache boundary.
    memcpy_bw_uncached: float = gb_per_s(8.0)
    #: Working-set size where copy bandwidth degrades.
    memcpy_cache_boundary: int = 256 * 1024

    def memcpy_time(self, size: int) -> float:
        """Latency of copying ``size`` bytes (Fig. 14 shape: flat for
        small sizes, deteriorating past the cache boundary)."""
        if size <= self.memcpy_cache_boundary:
            return self.memcpy_base + size / self.memcpy_bw_cached
        cached = self.memcpy_cache_boundary / self.memcpy_bw_cached
        rest = (size - self.memcpy_cache_boundary) / self.memcpy_bw_uncached
        return self.memcpy_base + cached + rest

    def memcpy_bandwidth(self, size: int) -> float:
        """Effective memcpy bandwidth in bytes/second for ``size``."""
        return size / self.memcpy_time(size)

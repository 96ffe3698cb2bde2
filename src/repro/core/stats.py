"""Instrumentation for the multicast pipeline.

Collects exactly the quantities the paper reports: throughput (bytes
delivered per second, §4), per-stage batch-size histograms (Fig. 7),
RDMA write counts and predicate-thread post time (§4.1.1), sender
wait-for-slot time (§4.1.1), delivery latency (Figs. 5/17), and
inter-delivery times per sender (§4.2.1).

Every count is a plain attribute of :class:`SubgroupStats`, updated
inline by the protocol; the metrics plane reads them only at snapshot
time (:func:`repro.metrics.mirrors.mirror_view`), deriving the batch
histograms from the exact batch ``Counter``s kept here for Fig. 7's
table and the latency histogram from the per-bucket counts.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from ..metrics.registry import DEFAULT_LATENCY_BUCKETS

__all__ = ["SubgroupStats"]


class SubgroupStats:
    """Per-(node, subgroup) counters and histograms.

    Sums the protocol may never touch (the latency sum) start as the
    int ``0``, so an export shows an untouched sum as ``0``, not ``0.0``.
    """

    def __init__(self, curve_stride: int = 64, latency_sample_cap: int = 4096):
        self.curve_stride = curve_stride
        self.latency_sample_cap = latency_sample_cap

        # -- message counts ----------------------------------------------------
        #: Application messages queued locally.
        self.sent = 0
        #: Null rounds announced by this node (§3.3).
        self.nulls_sent = 0
        #: Control pushes that carried null announcements.
        self.null_announce_pushes = 0
        #: Application messages received (all senders).
        self.received = 0
        #: Application messages delivered, and their payload bytes.
        self.delivered = 0
        self.bytes_delivered = 0
        #: Null rounds passed over at delivery.
        self.nulls_skipped = 0
        #: Sends that had to wait for a ring slot; the seconds and the
        #: number of the waits that ended (§4.1.1; the send_slot_acquire
        #: stage).
        self.sends_blocked = 0
        self.sender_wait_time = 0.0
        self.sender_waits = 0
        #: Seconds application threads queued for the shared predicate
        #: lock to queue a send or declare inactivity, and those waits
        #: (§3.4; the send_lock_acquire stage).
        self.send_lock_wait_time = 0.0
        self.send_lock_waits = 0
        #: Delivery-upcall seconds and the upcalls they cover (the
        #: delivery_upcall stage, nested in the delivery or receive
        #: predicate's span; not part of the thread-time partition).
        self.upcall_time = 0.0
        self.upcalls = 0

        # -- exact batch histograms (Fig. 7) -----------------------------------
        self.send_batches: Counter = Counter()
        self.receive_batches: Counter = Counter()
        self.delivery_batches: Counter = Counter()

        # -- latency (queue-to-local-delivery, seconds) ------------------------
        self.latency_sum = 0
        self.latency_count = 0
        self.latency_max = 0.0
        #: Deliveries per ``DEFAULT_LATENCY_BUCKETS`` bucket (inclusive
        #: upper edges), plus the ``+Inf`` bucket.
        self.latency_counts = [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
        self.latency_samples: List[float] = []

        # -- timing landmarks --------------------------------------------------
        self.first_send_time: Optional[float] = None
        self.first_delivery_time: Optional[float] = None
        self.last_delivery_time: Optional[float] = None
        #: sampled cumulative (time, bytes) curve for steady-state rates.
        self.delivery_curve: List[Tuple[float, int]] = []

        # -- per-sender inter-delivery state (§4.2.1), dense by sender
        #    rank and grown on first delivery from a rank ----------------------
        self._last_delivery_from: List[Optional[float]] = []
        self._interdelivery_sum: List[float] = []
        self._interdelivery_count: List[int] = []

    # ------------------------------------------------------------- recording

    def record_send(self, now: float) -> None:
        """A message was queued locally (first call marks workload start)."""
        self.sent += 1
        if self.first_send_time is None:
            self.first_send_time = now

    def record_delivery(self, now: float, sender_rank: int, size: int,
                        queued_at: float) -> None:
        """One application message delivered locally."""
        self.record_deliveries(((now, sender_rank, size, queued_at),))

    def record_deliveries(
            self, rows: Sequence[Tuple[float, int, int, float]]) -> None:
        """A batch of application messages delivered locally, as
        ``(now, sender_rank, size, queued_at)`` rows in delivery order.

        Equal to recording the rows one at a time, to the last bit:
        every float is added to the same accumulator in the same order.
        """
        if not rows:
            return
        if self.first_delivery_time is None:
            self.first_delivery_time = rows[0][0]
        self.last_delivery_time = rows[-1][0]
        delivered = self.delivered
        nbytes = self.bytes_delivered
        stride = self.curve_stride
        curve = self.delivery_curve
        latency_sum = self.latency_sum
        latency_max = self.latency_max
        last_from = self._last_delivery_from
        gap_sum = self._interdelivery_sum
        gap_count = self._interdelivery_count
        bounds = DEFAULT_LATENCY_BUCKETS
        bucket_counts = self.latency_counts
        latencies = []
        for now, rank, size, queued_at in rows:
            delivered += 1
            nbytes += size
            if delivered % stride == 0:
                curve.append((now, nbytes))
            latency = now - queued_at
            latencies.append(latency)
            bucket_counts[bisect_left(bounds, latency)] += 1
            latency_sum += latency
            if latency > latency_max:
                latency_max = latency
            try:
                previous = last_from[rank]
            except IndexError:
                grow = rank + 1 - len(last_from)
                last_from.extend([None] * grow)
                gap_sum.extend([0.0] * grow)
                gap_count.extend([0] * grow)
                previous = None
            if previous is not None:
                gap_sum[rank] += now - previous
                gap_count[rank] += 1
            last_from[rank] = now
        self.delivered = delivered
        self.bytes_delivered = nbytes
        self.latency_sum = latency_sum
        self.latency_count += len(rows)
        self.latency_max = latency_max
        room = self.latency_sample_cap - len(self.latency_samples)
        if room > 0:
            self.latency_samples.extend(latencies[:room])

    # ------------------------------------------------------------- reporting

    @property
    def mean_latency(self) -> float:
        """Mean queue-to-delivery latency in seconds."""
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count

    def mean_batch(self, histogram: Counter) -> float:
        """Mean batch size of one stage's histogram."""
        total = sum(histogram.values())
        if total == 0:
            return 0.0
        return sum(size * count for size, count in histogram.items()) / total

    @property
    def mean_batches(self) -> Tuple[float, float, float]:
        """(send, receive, delivery) mean batch sizes (§4.1.3 metric)."""
        return (
            self.mean_batch(self.send_batches),
            self.mean_batch(self.receive_batches),
            self.mean_batch(self.delivery_batches),
        )

    def mean_interdelivery(self, sender_rank: int) -> float:
        """Mean gap between consecutive deliveries from one sender."""
        if sender_rank >= len(self._interdelivery_count):
            return 0.0
        count = self._interdelivery_count[sender_rank]
        if count == 0:
            return 0.0
        return self._interdelivery_sum[sender_rank] / count

    def throughput(self, steady_fraction: float = 0.2,
                   until_fraction: float = 1.0) -> float:
        """Delivered application bytes per second at this node.

        Uses the slope of the cumulative-delivery curve from
        ``steady_fraction`` of the way in to the end, which discards the
        window-fill ramp-up (runs here are shorter than the paper's 1 M
        messages, so the transient would otherwise bias the estimate).

        ``until_fraction < 1`` stops the measurement once that fraction
        of the bytes has been delivered — the paper's §4.2.1 methodology
        ("we measure bandwidth after a fixed number of messages have
        been delivered"), which excludes the trickle tail of a workload
        whose delayed senders outlive the continuous ones.
        """
        if self.first_delivery_time is None or self.last_delivery_time is None:
            return 0.0
        curve = [(self.first_delivery_time, 0)] + self.delivery_curve
        if curve[-1][0] != self.last_delivery_time:
            curve = curve + [(self.last_delivery_time, self.bytes_delivered)]
        if until_fraction < 1.0:
            target = until_fraction * self.bytes_delivered
            end = next((i for i, (_, b) in enumerate(curve) if b >= target),
                       len(curve) - 1)
            curve = curve[: max(end + 1, 2)]
        cut = min(int(len(curve) * steady_fraction), len(curve) - 2)
        t0, b0 = curve[cut]
        t1, b1 = curve[-1]
        if t1 <= t0:
            # Degenerate curve (e.g. one giant delivery batch): fall back
            # to the whole first-to-last span.
            t0, b0 = curve[0]
            t1, b1 = curve[-1]
            if t1 <= t0:
                return 0.0
        rate = (b1 - b0) / (t1 - t0)
        # A hard physical bound protects short bursty runs (all
        # deliveries landing in one burst make the slope meaningless):
        # nothing can be sustained faster than everything delivered by
        # the measurement endpoint over the time since this node started
        # sending. (Uses t1/b1 so an until_fraction tail cut applies to
        # the bound as well.)
        if self.first_send_time is not None:
            makespan = t1 - self.first_send_time
            if makespan > 0:
                rate = min(rate, b1 / makespan)
        return rate

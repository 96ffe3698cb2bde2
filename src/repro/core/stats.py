"""Instrumentation for the multicast pipeline.

Collects exactly the quantities the paper reports: throughput (bytes
delivered per second, §4), per-stage batch-size histograms (Fig. 7),
RDMA write counts and predicate-thread post time (§4.1.1), sender
wait-for-slot time (§4.1.1), delivery latency (Figs. 5/17), and
inter-delivery times per sender (§4.2.1).

Since the metrics plane landed, :class:`SubgroupStats` is a *thin view*
over a :class:`~repro.metrics.MetricsRegistry` scope: every scalar the
benchmarks read (``delivered``, ``bytes_delivered``, ``nulls_sent``,
...) is backed by a registry counter labelled with this stats object's
(node, subgroup), and batch sizes / latencies are additionally observed
into fixed-bucket registry histograms. Structures the registry cannot
hold compactly (exact batch Counters for Fig. 7's table, the sampled
delivery curve, per-sender inter-delivery state) stay local. A stats
object created without a registry gets a private enabled one, so the
historical standalone API is unchanged.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..metrics.registry import (
    DEFAULT_BATCH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)
from ..metrics.stages import (
    STAGE_DELIVERY_UPCALL,
    STAGE_SEND_SLOT_ACQUIRE,
    STAGE_TIME,
)

__all__ = ["SubgroupStats"]


class SubgroupStats:
    """Per-(node, subgroup) counters and histograms.

    ``registry`` is the fabric-wide metrics registry (or any scope of
    it); ``node``/``subgroup`` become label values. Without a registry
    (or with a disabled one) a private enabled registry keeps all
    reads/writes working identically.
    """

    def __init__(self, curve_stride: int = 64, latency_sample_cap: int = 4096,
                 registry: Optional[Any] = None,
                 node: Optional[int] = None, subgroup: Optional[int] = None):
        self.curve_stride = curve_stride
        self.latency_sample_cap = latency_sample_cap

        if registry is None or not registry.enabled:
            registry = MetricsRegistry()
        labels: Dict[str, Any] = {}
        if node is not None:
            labels["node"] = node
        if subgroup is not None:
            labels["subgroup"] = subgroup
        #: The labelled registry scope backing this stats object — also
        #: used by the protocol to time app-side pipeline stages.
        self.scope = registry.scoped(**labels)
        scope = self.scope

        # -- message counts (registry-backed) ----------------------------------
        c = scope.counter
        self._sent = c("spindle_messages_sent_total",
                       "application messages queued locally")
        self._nulls_sent = c("spindle_nulls_announced_total",
                             "null rounds announced by this node (§3.3)")
        self._null_announce_pushes = c(
            "spindle_null_announce_pushes_total",
            "control pushes that carried null announcements")
        self._received = c("spindle_messages_received_total",
                           "application messages received (all senders)")
        self._delivered = c("spindle_messages_delivered_total",
                            "application messages delivered")
        self._nulls_skipped = c("spindle_nulls_skipped_total",
                                "null rounds passed over at delivery")
        self._bytes_delivered = c("spindle_bytes_delivered_total",
                                  "application payload bytes delivered")
        self._sends_blocked = c("spindle_sends_blocked_total",
                                "sends that had to wait for a ring slot")

        # -- registry histograms (Fig. 7 / Figs. 5, 17) ------------------------
        self._batch_hist = {
            stage: scope.histogram("spindle_batch_size",
                                   buckets=DEFAULT_BATCH_BUCKETS,
                                   help="per-stage batch sizes (Fig. 7)",
                                   stage=stage)
            for stage in ("send", "receive", "delivery")
        }
        self._latency_hist = scope.histogram(
            "spindle_delivery_latency_seconds",
            buckets=DEFAULT_LATENCY_BUCKETS,
            help="queue-to-local-delivery latency")

        # -- app-side stage timers (§4.1.1 sender wait, §3.5 upcalls) ----------
        self._wait_timer = scope.timer(
            STAGE_TIME, "sender time blocked waiting for a free slot",
            stage=STAGE_SEND_SLOT_ACQUIRE)
        self._upcall_timer = scope.timer(
            STAGE_TIME, "delivery upcall time (nested in delivery stage)",
            stage=STAGE_DELIVERY_UPCALL)

        # -- exact batch histograms (Fig. 7 table; registry buckets are
        #    too coarse for the paper-style rows) ------------------------------
        self.send_batches: Counter = Counter()
        self.receive_batches: Counter = Counter()
        self.delivery_batches: Counter = Counter()

        # -- latency (queue-to-local-delivery, seconds) ------------------------
        self.latency_sum = 0.0
        self.latency_count = 0
        self.latency_max = 0.0
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

    # ------------------------------------------------- registry-backed scalars

    @property
    def sent(self) -> int:
        """Application messages queued locally."""
        return self._sent.value

    @property
    def nulls_sent(self) -> int:
        """Null rounds announced by this node."""
        return self._nulls_sent.value

    @property
    def null_announce_pushes(self) -> int:
        """Control pushes that carried null announcements."""
        return self._null_announce_pushes.value

    @property
    def received(self) -> int:
        """Application messages received (all senders)."""
        return self._received.value

    @property
    def delivered(self) -> int:
        """Application messages delivered."""
        return self._delivered.value

    @property
    def nulls_skipped(self) -> int:
        """Null rounds passed over at delivery."""
        return self._nulls_skipped.value

    @property
    def bytes_delivered(self) -> int:
        """Application payload bytes delivered."""
        return self._bytes_delivered.value

    @property
    def sends_blocked(self) -> int:
        """How many sends had to wait for a free slot."""
        return self._sends_blocked.value

    @property
    def sender_wait_time(self) -> float:
        """Seconds the sender spent blocked waiting for a slot (§4.1.1)."""
        return self._wait_timer.total

    # ------------------------------------------------------------- recording

    def record_send(self, now: float) -> None:
        """A message was queued locally (first call marks workload start)."""
        self._sent.inc()
        if self.first_send_time is None:
            self.first_send_time = now

    def record_send_batch(self, size: int) -> None:
        self.send_batches[size] += 1
        self._batch_hist["send"].observe(size)

    def record_receive_batch(self, size: int) -> None:
        self.receive_batches[size] += 1
        self._batch_hist["receive"].observe(size)

    def record_delivery_batch(self, size: int) -> None:
        self.delivery_batches[size] += 1
        self._batch_hist["delivery"].observe(size)

    def record_received(self, count: int = 1) -> None:
        self._received.inc(count)

    def record_nulls_sent(self, count: int) -> None:
        self._nulls_sent.inc(count)

    def record_null_announce_pushes(self, count: int = 1) -> None:
        self._null_announce_pushes.inc(count)

    def record_null_skipped(self, count: int = 1) -> None:
        self._nulls_skipped.inc(count)

    def record_blocked_send(self) -> None:
        self._sends_blocked.inc()

    def add_sender_wait(self, elapsed: float) -> None:
        """Account one blocked-send wait span (send_slot_acquire stage)."""
        self._wait_timer.add(elapsed)

    def add_upcall_time(self, elapsed: float, batches: int = 1) -> None:
        """Account delivery-upcall time (nested inside the delivery
        predicate's span; not part of the thread-time partition)."""
        self._upcall_timer.add(elapsed, count=batches)

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
        delivered = self._delivered.value
        bytes_before = nbytes = self._bytes_delivered.value
        stride = self.curve_stride
        curve = self.delivery_curve
        latency_sum = self.latency_sum
        latency_max = self.latency_max
        last_from = self._last_delivery_from
        gap_sum = self._interdelivery_sum
        gap_count = self._interdelivery_count
        latencies = []
        for now, rank, size, queued_at in rows:
            delivered += 1
            nbytes += size
            if delivered % stride == 0:
                curve.append((now, nbytes))
            latency = now - queued_at
            latencies.append(latency)
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
        self._delivered.inc(len(rows))
        self._bytes_delivered.inc(nbytes - bytes_before)
        self._latency_hist.observe_many(latencies)
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

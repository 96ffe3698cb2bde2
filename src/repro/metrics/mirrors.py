"""The data path's collector: one view's protocol groups, mirrored.

The protocol counts into plain attributes — :class:`~repro.core.stats.
SubgroupStats`, the predicate thread's accumulators, the SST's and the
SMC's write counts — and makes no metric call. :func:`mirror_view`
registers one pull collector per installed view that copies them into
the registry whenever it is read, under ``node`` / ``view`` labels
(plus ``subgroup`` for per-subgroup state). A ``PaxosGroup`` has no
SST, SMC or polling thread, so only its per-subgroup stats appear.

The collector keeps its view's groups after the epoch ends, so a
torn-down view goes on exporting its final counts.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict

from .registry import (
    DEFAULT_BATCH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    ScopedRegistry,
)
from .stages import (
    STAGE_DELIVERY_UPCALL,
    STAGE_SEND_LOCK_ACQUIRE,
    STAGE_SEND_SLOT_ACQUIRE,
    STAGE_SST_POST,
    STAGE_TIME,
)

__all__ = ["mirror_view"]


def mirror_view(registry: MetricsRegistry, view_id: int,
                groups: Dict[int, Any]) -> None:
    """Register the collector of one view's ``{node_id: group}``."""

    def collect() -> None:
        for node_id, group in groups.items():
            scope = registry.scoped(node=node_id, view=view_id)
            sst = getattr(group, "sst", None)
            if sst is not None:
                scope.counter(
                    "spindle_sst_pushes_total",
                    "RDMA writes posted through this node's SST",
                ).set_to(sst.pushes_posted)
            thread = getattr(group, "thread", None)
            if thread is not None:
                _mirror_thread(scope, thread)
            for subgroup_id, endpoint in group.multicasts.items():
                sg_scope = scope.scoped(subgroup=subgroup_id)
                _mirror_stats(sg_scope, endpoint.stats)
                smc = getattr(endpoint, "smc", None)
                if smc is not None:
                    sg_scope.counter(
                        "spindle_smc_writes_total",
                        "RDMA writes posted for message-slot spans",
                        purpose="slots").set_to(smc.slot_writes)
                    sg_scope.counter(
                        "spindle_smc_writes_total",
                        "RDMA writes posted for the control span (acks/nulls)",
                        purpose="control").set_to(smc.control_writes)

    registry.add_collector(collect)


def _mirror_thread(scope: ScopedRegistry, thread: Any) -> None:
    scope.counter("spindle_predicate_iterations_total",
                  "polling-loop iterations").set_to(thread.iterations)
    scope.counter("spindle_predicate_triggers_total",
                  "trigger bodies run").set_to(thread.triggers)
    scope.gauge("spindle_predicate_busy_seconds",
                "total simulated time the polling thread was busy"
                ).set(thread.busy_time)
    scope.gauge("spindle_predicate_idle_seconds",
                "total simulated time parked on the doorbell"
                ).set(thread.idle_time)
    # A thread posts in one lock phase only; the other reads zero.
    posting = "postlock" if thread.config.early_lock_release else "prelock"
    for phase in ("prelock", "postlock"):
        timer = scope.timer(STAGE_TIME, "RDMA posting time by lock phase (§3.4)",
                            stage=STAGE_SST_POST, lock_phase=phase)
        if phase == posting:
            timer.set_to(thread.post_time, thread.posts_run)
    for stage, (seconds, spans) in thread.stage_time.items():
        if spans:
            scope.timer(STAGE_TIME, "predicate-thread time by pipeline stage",
                        stage=stage).set_to(seconds, spans)


def _mirror_stats(scope: ScopedRegistry, stats: Any) -> None:
    for name, help, value in (
        ("spindle_messages_sent_total",
         "application messages queued locally", stats.sent),
        ("spindle_nulls_announced_total",
         "null rounds announced by this node (§3.3)", stats.nulls_sent),
        ("spindle_null_announce_pushes_total",
         "control pushes that carried null announcements",
         stats.null_announce_pushes),
        ("spindle_messages_received_total",
         "application messages received (all senders)", stats.received),
        ("spindle_messages_delivered_total",
         "application messages delivered", stats.delivered),
        ("spindle_nulls_skipped_total",
         "null rounds passed over at delivery", stats.nulls_skipped),
        ("spindle_bytes_delivered_total",
         "application payload bytes delivered", stats.bytes_delivered),
        ("spindle_sends_blocked_total",
         "sends that had to wait for a ring slot", stats.sends_blocked),
    ):
        scope.counter(name, help).set_to(value)
    for stage, batches in (("send", stats.send_batches),
                           ("receive", stats.receive_batches),
                           ("delivery", stats.delivery_batches)):
        counts = [0] * (len(DEFAULT_BATCH_BUCKETS) + 1)
        total = 0
        for size, n in batches.items():
            counts[bisect_left(DEFAULT_BATCH_BUCKETS, size)] += n
            total += size * n
        scope.histogram("spindle_batch_size", buckets=DEFAULT_BATCH_BUCKETS,
                        help="per-stage batch sizes (Fig. 7)", stage=stage
                        ).set_to(counts, total, sum(counts))
    scope.histogram("spindle_delivery_latency_seconds",
                    buckets=DEFAULT_LATENCY_BUCKETS,
                    help="queue-to-local-delivery latency"
                    ).set_to(stats.latency_counts, stats.latency_sum,
                             stats.latency_count)
    scope.timer(STAGE_TIME, "sender time blocked waiting for a free slot",
                stage=STAGE_SEND_SLOT_ACQUIRE
                ).set_to(stats.sender_wait_time, stats.sender_waits)
    scope.timer(STAGE_TIME, "sender time queued for the shared predicate lock",
                stage=STAGE_SEND_LOCK_ACQUIRE
                ).set_to(stats.send_lock_wait_time, stats.send_lock_waits)
    scope.timer(STAGE_TIME, "delivery upcall time (nested in delivery stage)",
                stage=STAGE_DELIVERY_UPCALL
                ).set_to(stats.upcall_time, stats.upcalls)

"""repro.metrics — the fabric-wide observability plane.

A typed metrics registry (counters, gauges, fixed-bucket histograms,
simulated-time stage timers) scoped per node / per subgroup /
fabric-wide, whose every metric is a pull mirror of a count the program
keeps anyway; JSON and Prometheus-text exporters; and the per-stage
pipeline profile of §4.1.1. Reachable as ``cluster.metrics``; see
docs/METRICS.md for the metric catalog.
"""

from .export import to_json, to_prometheus
from .registry import (
    DEFAULT_BATCH_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedRegistry,
    StageTimer,
)
from .stages import (
    NESTED_STAGES,
    PARTITION_STAGES,
    STAGE_DELIVERY_PREDICATE,
    STAGE_DELIVERY_UPCALL,
    STAGE_NULL_SEND_ANNOUNCE,
    STAGE_OTHER_PREDICATE,
    STAGE_RECEIVE_PREDICATE,
    STAGE_SEND_LOCK_ACQUIRE,
    STAGE_SEND_PREDICATE,
    STAGE_SEND_SLOT_ACQUIRE,
    STAGE_SST_POST,
    STAGE_TIME,
    check_partition,
    format_stage_profile,
    stage_profile,
)

__all__ = [
    "MetricsRegistry", "ScopedRegistry", "Counter", "Gauge", "Histogram",
    "StageTimer",
    "DEFAULT_BATCH_BUCKETS", "DEFAULT_LATENCY_BUCKETS",
    "to_json", "to_prometheus",
    "STAGE_TIME", "STAGE_SEND_SLOT_ACQUIRE", "STAGE_SEND_LOCK_ACQUIRE",
    "STAGE_SST_POST",
    "STAGE_RECEIVE_PREDICATE", "STAGE_NULL_SEND_ANNOUNCE",
    "STAGE_DELIVERY_UPCALL", "STAGE_SEND_PREDICATE",
    "STAGE_DELIVERY_PREDICATE", "STAGE_OTHER_PREDICATE",
    "PARTITION_STAGES", "NESTED_STAGES",
    "stage_profile", "format_stage_profile", "check_partition",
]

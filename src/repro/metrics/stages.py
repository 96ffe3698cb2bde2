"""Pipeline-stage names and the per-stage time profile (§4.1.1).

The paper's evaluation decomposes where protocol time goes; we
instrument the five stages it names plus the remaining predicate work,
all under one metric::

    spindle_stage_time_seconds{stage=..., node=..., [subgroup=...], [lock_phase=...]}

Two families:

* **Predicate-thread partition** — every simulated second the polling
  thread is busy lands in exactly one of ``send_predicate``,
  ``receive_predicate``, ``delivery_predicate``, ``other_predicate``
  (membership, durability) or ``sst_post`` (split by ``lock_phase``
  into ``prelock``/``postlock``, §3.4). Their total equals the
  thread's busy time, which is what ``spindle-repro metrics --profile``
  checks and prints.

* **Nested / app-side stages** — ``send_slot_acquire`` (application
  sender blocked on a ring slot, §4.1.1) and ``send_lock_acquire``
  (application sender queued for the shared predicate lock, §3.4) run
  on application threads; ``delivery_upcall`` (§3.1/§3.5) is a sub-span
  *inside* the delivery or receive predicate's time. None is added to
  the partition total.

``null_send_announce`` (§3.3) is event-counted rather than timed — the
announcement is a single counter write whose push cost is accounted
under ``sst_post`` like any other control push:
``spindle_nulls_announced_total`` / ``spindle_null_announce_pushes_total``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from .registry import MetricsRegistry

__all__ = [
    "STAGE_TIME", "STAGE_SEND_SLOT_ACQUIRE", "STAGE_SEND_LOCK_ACQUIRE",
    "STAGE_SST_POST",
    "STAGE_RECEIVE_PREDICATE", "STAGE_NULL_SEND_ANNOUNCE",
    "STAGE_DELIVERY_UPCALL", "STAGE_SEND_PREDICATE",
    "STAGE_DELIVERY_PREDICATE", "STAGE_OTHER_PREDICATE",
    "PARTITION_STAGES", "NESTED_STAGES",
    "TXN_STAGE_TIME", "TXN_STAGE_EXECUTE", "TXN_STAGE_VALIDATE_OR_LOCK",
    "TXN_STAGE_PREPARE", "TXN_STAGE_SETTLE", "TXN_STAGES",
    "stage_profile", "format_stage_profile",
]

#: The shared stage-timer metric name.
STAGE_TIME = "spindle_stage_time_seconds"

# -- transaction-plane stages (docs/TRANSACTIONS.md) ------------------------
#: Per-stage timer of the txn coordinator:
#: ``spindle_txn_stage_seconds{stage=...}``.
TXN_STAGE_TIME = "spindle_txn_stage_seconds"
TXN_STAGE_EXECUTE = "execute"                   # reads + write buffering
TXN_STAGE_VALIDATE_OR_LOCK = "validate_or_lock"  # OCC validates / 2PL locks
TXN_STAGE_PREPARE = "prepare"                   # per-shard ordered prepares
TXN_STAGE_SETTLE = "settle"                     # commit/abort settle round
TXN_STAGES = (TXN_STAGE_EXECUTE, TXN_STAGE_VALIDATE_OR_LOCK,
              TXN_STAGE_PREPARE, TXN_STAGE_SETTLE)

# -- the five stages the paper names ----------------------------------------
STAGE_SEND_SLOT_ACQUIRE = "send_slot_acquire"    # §4.1.1 sender wait
STAGE_SEND_LOCK_ACQUIRE = "send_lock_acquire"    # §3.4 sender lock wait
STAGE_SST_POST = "sst_post"                      # §3.2/§3.4 (lock_phase label)
STAGE_RECEIVE_PREDICATE = "receive_predicate"    # §2.4 receive fire
STAGE_NULL_SEND_ANNOUNCE = "null_send_announce"  # §3.3 (event counters)
STAGE_DELIVERY_UPCALL = "delivery_upcall"        # §3.1/§3.5

# -- the rest of the predicate-thread partition -----------------------------
STAGE_SEND_PREDICATE = "send_predicate"
STAGE_DELIVERY_PREDICATE = "delivery_predicate"
STAGE_OTHER_PREDICATE = "other_predicate"

#: Stages whose timers partition predicate-thread busy time exactly.
PARTITION_STAGES = (
    STAGE_SEND_PREDICATE,
    STAGE_RECEIVE_PREDICATE,
    STAGE_DELIVERY_PREDICATE,
    STAGE_OTHER_PREDICATE,
    STAGE_SST_POST,
)

#: Sub-spans / app-side spans, reported but not part of the partition.
NESTED_STAGES = (STAGE_SEND_SLOT_ACQUIRE, STAGE_SEND_LOCK_ACQUIRE,
                 STAGE_DELIVERY_UPCALL)


def stage_profile(registry: MetricsRegistry) -> Dict[str, Any]:
    """Aggregate the per-stage time breakdown across all labels.

    Returns ``{"stages": {stage: {"seconds": s, "spans": n}},
    "post_phases": {phase: seconds}, "partition_total": s,
    "predicate_busy": s, "nulls_announced": n, "null_announce_pushes": n}``.

    Reads one collection of the registry and sums each stage in the
    exports' order (by metric name, then sorted labels); the partition
    total adds the stages in ``PARTITION_STAGES`` order.
    """
    stages: Dict[str, Dict[str, float]] = {}
    post_phases: Dict[str, float] = {}
    totals: Dict[str, float] = {}
    for metric in registry.metrics():
        if metric.name != STAGE_TIME:
            value = getattr(metric, "value", 0)
            totals[metric.name] = totals.get(metric.name, 0) + value
            continue
        labels = dict(metric.labels)
        stage = labels.get("stage", "unknown")
        entry = stages.setdefault(stage, {"seconds": 0.0, "spans": 0})
        entry["seconds"] += metric.total
        entry["spans"] += metric.count
        if stage == STAGE_SST_POST:
            phase = labels.get("lock_phase", "unknown")
            post_phases[phase] = post_phases.get(phase, 0.0) + metric.total
    partition_total = sum(
        stages.get(s, {}).get("seconds", 0.0) for s in PARTITION_STAGES
    )
    return {
        "stages": stages,
        "post_phases": post_phases,
        "partition_total": partition_total,
        "predicate_busy": totals.get("spindle_predicate_busy_seconds", 0),
        "nulls_announced": totals.get("spindle_nulls_announced_total", 0),
        "null_announce_pushes": totals.get(
            "spindle_null_announce_pushes_total", 0),
    }


def format_stage_profile(profile: Dict[str, Any]) -> str:
    """Render the §4.1.1-style per-stage breakdown as a table."""
    from ..analysis.report import format_table

    stages = profile["stages"]
    busy = profile["predicate_busy"]
    rows: List[List[str]] = []

    def row(label: str, seconds: float, spans: Any) -> List[str]:
        share = f"{seconds / busy * 100:5.1f}%" if busy else "    -"
        return [label, f"{seconds * 1e3:10.3f}", share, f"{spans}"]

    for stage in PARTITION_STAGES:
        entry = stages.get(stage)
        if entry is None:
            continue
        rows.append(row(stage, entry["seconds"], int(entry["spans"])))
        if stage == STAGE_SST_POST:
            for phase, seconds in sorted(profile["post_phases"].items()):
                rows.append(["  . " + phase, f"{seconds * 1e3:10.3f}", "", ""])
    rows.append(["stage total", f"{profile['partition_total'] * 1e3:10.3f}",
                 "", ""])
    rows.append(["predicate busy", f"{busy * 1e3:10.3f}", "", ""])
    for stage in NESTED_STAGES:
        entry = stages.get(stage)
        if entry is None:
            continue
        rows.append(row(f"{stage} (nested)", entry["seconds"],
                        int(entry["spans"])))
    rows.append([STAGE_NULL_SEND_ANNOUNCE, "-", "",
                 f"{int(profile['nulls_announced'])} nulls / "
                 f"{int(profile['null_announce_pushes'])} pushes"])
    return format_table(["stage", "time (ms)", "share", "events"], rows)


def check_partition(profile: Dict[str, Any], tolerance: float = 0.05
                    ) -> Tuple[bool, float]:
    """Is the stage total within ``tolerance`` of predicate busy time?"""
    busy = profile["predicate_busy"]
    if busy == 0:
        return True, 0.0
    deviation = abs(profile["partition_total"] - busy) / busy
    return deviation <= tolerance, deviation

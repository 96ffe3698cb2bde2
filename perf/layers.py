"""Per-layer numbers, read from outside the program.

Exact counts and simulated-time sums come from the public counters and
registries of a finished repetition; host time per layer comes from a
``cProfile`` of the traced repetition, grouped by package under
``src/repro/``.
"""

from __future__ import annotations

import os
import pstats

from repro.metrics.stages import (
    STAGE_DELIVERY_PREDICATE,
    STAGE_DELIVERY_UPCALL,
    STAGE_OTHER_PREDICATE,
    STAGE_RECEIVE_PREDICATE,
    STAGE_SEND_PREDICATE,
    STAGE_SST_POST,
    check_partition,
)

from spec import LAYERS

__all__ = ["exact_counts", "host_rates", "profile_by_layer"]

_REPRO = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro") + os.sep


def _ratio(a, b):
    return a / b if b else 0.0


def exact_counts(w, outcome):
    """Every per-layer metric that is exact for a fixed seed, plus the
    errors of the checks made on the way (stage partition)."""
    cluster = w.cluster
    sim = cluster.sim
    ops = outcome.attempted - outcome.failed
    errors = []
    m = {}

    m["sim.events_executed"] = sim.events_executed
    m["sim.events_per_op"] = _ratio(sim.events_executed, ops)
    m["sim.peak_pending_events"] = sim.peak_pending_events

    fabric = cluster.fabric
    m["rdma.writes_posted"] = fabric.total_writes_posted()
    m["rdma.bytes_posted"] = fabric.total_bytes_posted()
    m["rdma.writes_per_op"] = _ratio(m["rdma.writes_posted"], ops)
    m["rdma.writes_dropped"] = fabric.total_writes_dropped()
    stats = [mc.stats for node in cluster.node_ids
             for mc in cluster.group(node).multicasts.values()]
    delivered_bytes = sum(s.bytes_delivered for s in stats)
    m["rdma.link_utilization"] = _ratio(
        delivered_bytes / len(cluster.node_ids),
        outcome.sim_span * fabric.latency.link_bandwidth)

    m["sst.pushes"] = sum(cluster.group(node).sst.pushes_posted
                          for node in cluster.node_ids)

    threads = [cluster.group(node).thread for node in cluster.node_ids]
    profile = cluster.stage_profile()
    ok, deviation = check_partition(profile)
    if not ok:
        errors.append(f"stage partition off by {deviation:.1%} of busy time")
    stage = {name: entry["seconds"]
             for name, entry in profile["stages"].items()}
    busy = sum(t.busy_time for t in threads)
    m["predicates.evals_total"] = sum(t.evals_total for t in threads)
    m["predicates.evals_skipped"] = sum(t.evals_skipped for t in threads)
    m["predicates.busy_sim_s"] = busy
    m["predicates.busy_share"] = _ratio(
        busy, len(threads) * outcome.last_success)
    m["predicates.send_sim_s"] = stage.get(STAGE_SEND_PREDICATE, 0.0)
    m["predicates.receive_sim_s"] = stage.get(STAGE_RECEIVE_PREDICATE, 0.0)
    m["predicates.delivery_sim_s"] = stage.get(STAGE_DELIVERY_PREDICATE, 0.0)
    m["predicates.sst_post_sim_s"] = stage.get(STAGE_SST_POST, 0.0)
    m["predicates.other_sim_s"] = stage.get(STAGE_OTHER_PREDICATE, 0.0)

    for name in ("send", "receive", "delivery"):
        sizes = batches = 0
        for s in stats:
            for size, count in getattr(s, f"{name}_batches").items():
                sizes += size * count
                batches += count
        m[f"core.{name}_batch_mean"] = _ratio(sizes, batches)
    m["core.nulls_announced"] = sum(s.nulls_sent for s in stats)
    m["core.null_pushes"] = sum(s.null_announce_pushes for s in stats)
    m["core.nulls_per_op"] = _ratio(m["core.nulls_announced"], ops)
    m["core.sends_blocked"] = sum(s.sends_blocked for s in stats)
    m["core.sender_wait_sim_s"] = sum(s.sender_wait_time for s in stats)
    m["core.upcall_sim_s"] = stage.get(STAGE_DELIVERY_UPCALL, 0.0)

    # getattr() on None takes the default: a workload without a router or
    # a transaction plane reports zeros.
    router = w.router and w.router.counters
    for name in ("accepted", "completed", "client_gaveup"):
        m[f"shard.{name}"] = getattr(router, name, 0)
    rejected = getattr(router, "rejected", {})
    m["shard.rejected_queue_full"] = rejected.get("queue_full", 0)
    m["shard.rejected_congestion"] = rejected.get("window_saturated", 0)
    for name in ("shard.attempts_per_ok", "shard.mid_goodput_ops_s",
                 "shard.over_latency_p99_us", "workloads.generator_lag_us"):
        m[name] = outcome.extra.get(name, 0.0)

    txn = w.plane and w.plane.counters
    for name in ("committed", "aborted", "validation_aborts", "wound_aborts",
                 "prepares_sent", "settles_sent"):
        m[f"txn.{name}"] = getattr(txn, name, 0)
    committed = m["txn.committed"]
    m["txn.attempts_per_commit"] = _ratio(getattr(txn, "attempts", 0),
                                          committed)
    m["txn.fastpath_share"] = _ratio(getattr(txn, "fastpath_commits", 0),
                                     committed)
    stages = w.plane.stage_seconds() if w.plane is not None else {}
    for name in ("execute", "validate_or_lock", "prepare", "settle"):
        m[f"txn.{name}_sim_s"] = stages.get(name, 0.0)

    storage = cluster.storage.counters()
    m["storage.appends"] = storage.get("appends", 0)
    m["storage.fsyncs"] = storage.get("fsyncs", 0)
    m["storage.fsyncs_per_commit"] = _ratio(m["storage.fsyncs"], committed)
    return m, errors


def host_rates(counts, outcome, wall_s):
    """The two host-speed numbers of the scheduler layer."""
    return {
        "sim.host_events_per_s": counts["sim.events_executed"] / wall_s,
        "sim.host_s_per_sim_s": wall_s / outcome.sim_span,
    }


def _layer_of(filename):
    if filename.startswith(_REPRO):
        package = filename[len(_REPRO):].split(os.sep, 1)[0]
        if package in LAYERS:
            return package
    return "other"


def profile_by_layer(profile):
    """``{layer: (self seconds, calls)}`` from a ``cProfile.Profile``.

    A function belongs to the package its file is in. Built-in (C)
    functions have no package of their own, so their time is charged to
    the layer of the Python function that called them.
    """
    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in \
            pstats.Stats(profile).stats.items():
        if filename == "~" and callers:
            for (caller_file, _l, _n), (c_nc, _c_cc, c_tt, _c_ct) in \
                    callers.items():
                layer = _layer_of(caller_file)
                seconds[layer] += c_tt
                calls[layer] += c_nc
        else:
            layer = _layer_of(filename)
            seconds[layer] += tt
            calls[layer] += nc
    total = sum(seconds.values())
    out = {}
    for layer in LAYERS:
        out[f"{layer}.host_self_s"] = seconds[layer]
        out[f"{layer}.host_self_share"] = _ratio(seconds[layer], total)
        out[f"{layer}.calls"] = calls[layer]
    return out

"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repo root lists the same workloads and
metrics; ``perf/tests/test_perf_smoke.py`` checks the two agree.
"""

from __future__ import annotations

__all__ = ["WORKLOAD_WHY", "END_TO_END", "PER_LAYER", "LAYERS", "HOST_METRICS"]

WORKLOAD_WHY = {
    "mcast_small":
        "128 B closed-loop multicast from all 8 nodes: per-message "
        "coordination dominates; core/rdma/smc/sst/predicates do the work, "
        "NIC bytes and nulls are ~0",
    "mcast_delayed_10k":
        "10 KB messages with one 100 us-delayed sender: the same ordering "
        "layer bandwidth-bound, on the null-send path a batching gain could "
        "hurt",
    "kv_open_loop":
        "open-loop Poisson get/put through router, replicas and total order "
        "at a mid rate (latency) and past capacity (goodput): host time is "
        "sim+predicates polling",
    "txn_closed_loop":
        "closed-loop Zipf read-modify-write transactions: the only workload "
        "where txn and storage work, and retries feed back into goodput",
}

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may get worse before a change counts as
#: a regression.
END_TO_END = (
    ("sim_goodput_ops_s", "ops/s", "higher", 0.08),
    ("sim_latency_p50_us", "us", "lower", 0.25),
    ("sim_latency_p99_us", "us", "lower", 0.25),
    ("host_wall_s", "s", "lower", 0.25),
    ("host_peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("ok_ops_share", "share", "higher", 0.001),
)

#: The three metrics that read the host's clock or memory; everything
#: else is exact for a fixed seed.
HOST_METRICS = ("host_wall_s", "host_peak_rss_mb", "setup_s")

#: Packages under src/repro/ reported as layers; everything else
#: (stdlib, the benchmark's own callbacks, other repro packages) is
#: `other`.
LAYERS = ("sim", "rdma", "sst", "smc", "predicates", "core", "ordering",
          "shard", "apps", "txn", "storage", "metrics", "workloads", "other")

_LOWER, _HIGHER = "lower", "higher"

PER_LAYER = tuple(
    metric
    for layer in LAYERS
    for metric in ((f"{layer}.host_self_s", "s", _LOWER),
                   (f"{layer}.host_self_share", "share", _LOWER),
                   (f"{layer}.calls", "count", _LOWER))
) + (
    ("sim.events_executed", "count", _LOWER),
    ("sim.events_per_op", "count", _LOWER),
    ("sim.host_events_per_s", "1/s", _HIGHER),
    ("sim.host_s_per_sim_s", "s/s", _LOWER),
    ("sim.peak_pending_events", "count", _LOWER),
    ("rdma.writes_posted", "count", _LOWER),
    ("rdma.bytes_posted", "bytes", _LOWER),
    ("rdma.writes_per_op", "count", _LOWER),
    ("rdma.writes_dropped", "count", _LOWER),
    ("rdma.link_utilization", "share", _HIGHER),
    ("sst.pushes", "count", _LOWER),
    ("predicates.evals_total", "count", _LOWER),
    ("predicates.evals_skipped", "count", _HIGHER),
    ("predicates.busy_sim_s", "s", _LOWER),
    ("predicates.busy_share", "share", _LOWER),
    ("predicates.send_sim_s", "s", _LOWER),
    ("predicates.receive_sim_s", "s", _LOWER),
    ("predicates.delivery_sim_s", "s", _LOWER),
    ("predicates.sst_post_sim_s", "s", _LOWER),
    ("predicates.other_sim_s", "s", _LOWER),
    ("core.send_batch_mean", "msgs", _HIGHER),
    ("core.receive_batch_mean", "msgs", _HIGHER),
    ("core.delivery_batch_mean", "msgs", _HIGHER),
    ("core.nulls_announced", "count", _LOWER),
    ("core.null_pushes", "count", _LOWER),
    ("core.nulls_per_op", "count", _LOWER),
    ("core.sends_blocked", "count", _LOWER),
    ("core.sender_wait_sim_s", "s", _LOWER),
    ("core.upcall_sim_s", "s", _LOWER),
    ("shard.accepted", "count", _HIGHER),
    ("shard.completed", "count", _HIGHER),
    ("shard.rejected_queue_full", "count", _LOWER),
    ("shard.rejected_congestion", "count", _LOWER),
    ("shard.client_gaveup", "count", _LOWER),
    ("shard.attempts_per_ok", "count", _LOWER),
    ("shard.mid_goodput_ops_s", "ops/s", _HIGHER),
    ("shard.over_latency_p99_us", "us", _LOWER),
    ("txn.committed", "count", _HIGHER),
    ("txn.aborted", "count", _LOWER),
    ("txn.attempts_per_commit", "count", _LOWER),
    ("txn.fastpath_share", "share", _HIGHER),
    ("txn.validation_aborts", "count", _LOWER),
    ("txn.wound_aborts", "count", _LOWER),
    ("txn.prepares_sent", "count", _LOWER),
    ("txn.settles_sent", "count", _LOWER),
    ("txn.execute_sim_s", "s", _LOWER),
    ("txn.validate_or_lock_sim_s", "s", _LOWER),
    ("txn.prepare_sim_s", "s", _LOWER),
    ("txn.settle_sim_s", "s", _LOWER),
    ("storage.appends", "count", _LOWER),
    ("storage.fsyncs", "count", _LOWER),
    ("storage.fsyncs_per_commit", "count", _LOWER),
    ("workloads.generator_lag_us", "us", _LOWER),
    ("trace_overhead_x", "x", _LOWER),
)

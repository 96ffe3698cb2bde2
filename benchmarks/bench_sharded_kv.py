"""Sharded service plane scaling: aggregate throughput vs shard count.

The sharding argument (docs/SHARDING.md): one Spindle subgroup is one
total order, so its delivery rate bounds a single-shard service no
matter how many clients arrive. Partitioning the keyspace over
independent subgroups (the multi-active-subgroup layout of Fig. 13)
multiplies the aggregate budget — the datacenter-partitioning claim of
Gleam / *Scaling atomic ordering in shared memory* (PAPERS.md).

We drive the router with **open-loop Poisson clients** (arrivals never
wait for completions — the only workload shape that exposes the real
service capacity instead of the clients' round-trip time) and sweep
1 -> 2 -> 4 shards over 1 -> 2 -> 4 subgroups on a fixed 8-node cluster.

**Sizing the load.** The offered rate is set from a *measured*
single-shard capacity: the served rate of the 1-shard configuration
under this very load, ~0.71 M req/s with the router's dispatchers
keeping a 16-slot ring in flight (0.22 M when each of two workers
waited out its request's round trip). It is a capacity because
doubling the offered rate again moves it by < 1 % (710,686 at 3.2 M
offered, 713,080 at 6.4 M). The bench offers 3.2 M req/s (quick) /
6.4 M (full) — 4.5x / 9x that, past even four shards' ~2.9 M — and
asserts ``offered >= 2 x capacity_1shard`` on every run, so a faster
plane cannot silently turn the sweep into a light-load measurement
whose ``scale_1_to_4`` reads ~1 for the wrong reason. Runs are long
enough (>= 2,400 requests) that the 100 us retry quantum of rejected
clients is a small part of the service window. Gated claims:

* aggregate completed-request throughput scales **>= 2x** from one
  shard to four;
* the cross-shard checksum verifier finds **zero violations** at
  quiescence in every configuration;
* opportunistic batching has the paper's shape on the request path
  (§3.2, Fig. 7): send batches form **only under load** — mean ~1 at a
  light rung (a tenth of one shard's capacity), > 1.5 on the saturated
  single shard.
"""

from collections import Counter
from random import Random

from _common import emit, emit_bench_json, pick, run_once

from repro.analysis import figure_banner, format_table, usec
from repro.core.config import SpindleConfig
from repro.shard import RouterConfig
from repro.workloads import Cluster, SloStats, open_loop_client

NODES = 8
REPLICATION = 2
SHARD_COUNTS = (1, 2, 4)


def run_config(num_shards, *, clients, ops_per_client, rate, seed=3):
    """One configuration: returns the metrics dict for the table."""
    cluster = Cluster(NODES, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_shards(num_shards=num_shards, replication=REPLICATION,
                       num_subgroups=num_shards, window=16,
                       message_size=512)
    cluster.build()
    router = cluster.router(RouterConfig(queue_depth=128,
                                         workers_per_shard=2))

    stats = SloStats()
    for c in range(clients):
        rng = Random(seed * 7919 + c)
        cluster.spawn_sender(
            open_loop_client(
                cluster.sim,
                lambda k, c=c: router.request(
                    "put", b"c%d.k%d" % (c, k), b"v" * 64),
                rate=rate, count=ops_per_client, rng=rng, stats=stats,
                name=f"client{c}"),
            name=f"client{c}")

    cluster.run_to_quiescence(max_time=30.0)
    # The clock coasts to the quiescence deadline once the queue
    # drains; the service window ends at the last delivery.
    plan_sgs = cluster._shard_plan["subgroup_ids"]
    duration = max(cluster.group(nid).stats(sg).last_delivery_time
                   for sg in plan_sgs for nid in cluster.members_of(sg))
    delivered = sum(cluster.total_delivered(sg) for sg in plan_sgs)
    audit = router.verifier.check()
    gateways = [cluster.group(router.service.gateway(sg)).stats(sg)
                for sg in plan_sgs]
    batches = sum((g.send_batches for g in gateways), Counter())
    return {
        "shards": num_shards,
        "send_batch_mean": gateways[0].mean_batch(batches),
        "ok": stats.ok,
        "submitted": stats.submitted,
        "rejected": stats.rejected,
        "throughput": stats.ok / duration,
        "delivered_rate": delivered / duration,
        "p50": stats.p50(),
        "p99": stats.p99(),
        "violations": len(audit.violations),
        "duration": duration,
    }


def bench_sharded_kv(benchmark):
    clients = pick(8, 4)
    ops = pick(1_000, 600)
    rate = 800_000.0  # per client; see "Sizing the load"
    light_rate = 70_000.0 / clients  # a tenth of one shard's capacity

    def experiment():
        sweep = [run_config(n, clients=clients, ops_per_client=ops,
                            rate=rate) for n in SHARD_COUNTS]
        light = run_config(1, clients=clients, ops_per_client=ops // 10,
                           rate=light_rate)
        return sweep, light

    results, light = run_once(benchmark, experiment)
    rows = [[r["shards"], f'{r["ok"]}/{r["submitted"]}', r["rejected"],
             f'{r["throughput"]:,.0f}', f'{r["delivered_rate"]:,.0f}',
             usec(r["p50"]), usec(r["p99"]), f'{r["send_batch_mean"]:.2f}',
             r["violations"]]
            for r in results + [light]]
    rows[-1][0] = "1 (light)"
    text = figure_banner(
        "sharding", f"Sharded KV service, {NODES} nodes, "
        f"{clients} open-loop Poisson clients @ {rate:,.0f}/s each "
        f"(light rung: {light_rate:,.0f}/s each)",
        "aggregate throughput scales with independent shard total orders",
    ) + "\n" + format_table(
        ["shards", "ok/submitted", "rejected", "req/s", "delivered/s",
         "p50 (us)", "p99 (us)", "send batch", "audit violations"], rows)
    emit("sharded_kv", text)

    by_shards = {r["shards"]: r for r in results}
    capacity = by_shards[1]["throughput"]
    scale = by_shards[4]["throughput"] / capacity
    benchmark.extra_info["scale_1_to_4"] = scale
    # The load saturates what it claims to saturate.
    assert clients * rate >= 2.0 * capacity, (
        f"offered {clients * rate:,.0f} req/s < 2x the single-shard "
        f"capacity {capacity:,.0f}: re-size the load")
    # The gated claims: >= 2x aggregate scaling, zero audit violations.
    assert scale >= 2.0, f"1->4 shard scaling {scale:.2f}x < 2x"
    assert all(r["violations"] == 0 for r in results + [light])
    # Every accepted request completed: the plane loses nothing.
    assert all(r["ok"] + r["rejected"] == r["submitted"]
               for r in results + [light])
    # Batches form only under load.
    saturated_batch = by_shards[1]["send_batch_mean"]
    assert light["send_batch_mean"] < 1.1, light["send_batch_mean"]
    assert saturated_batch > 1.5, saturated_batch

    emit_bench_json("sharded_kv", {
        "scale_1_to_4": scale,
        "throughput_4shards_req_s": by_shards[4]["throughput"],
        "capacity_1shard_req_s": capacity,
        "send_batch_mean_saturated": saturated_batch,
        "verifier_ok": 1.0,
    }, extra={
        "clients": clients,
        "ops_per_client": ops,
        "rate_per_client": rate,
        "light_rate_per_client": light_rate,
        "per_config": [{k: v for k, v in r.items()} for r in results],
        "light": dict(light),
    })

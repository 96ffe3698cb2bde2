"""Engine speed: what one seeded load costs the scheduler, exactly
(docs/ENGINE.md).

The load is ``bench_sharded_kv``'s cluster and clients at the light
rate that leaves the run scheduler-bound, driven to quiescence. The
table prints its full trace fingerprint, the scheduler events it
retired and the predicate passes it made, so bench-smoke's diff of
``benchmarks/results/`` holds all three exactly: a behaviour change
moves the table, and adopting it means committing the new table. The
bench itself asserts that repeats of the same seeded run agree on all
three. Host time is not measured here; ``perf/`` judges it
(``host_wall_s`` over alternating parent/change pairs).
"""

from random import Random

from _common import emit, pick, run_once

from repro.analysis import figure_banner, format_table
from repro.analysis.trace import Tracer
from repro.core.config import SpindleConfig
from repro.shard import RouterConfig
from repro.workloads import Cluster, SloStats, open_loop_client

NODES = 8
SHARDS = 4
REPLICATION = 2


def run_load(*, clients, ops_per_client, rate_per_client, seed=3):
    """One end-to-end sharded-KV run."""
    cluster = Cluster(NODES, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_shards(num_shards=SHARDS, replication=REPLICATION,
                       num_subgroups=SHARDS, window=16, message_size=512)
    cluster.build()
    router = cluster.router(RouterConfig(queue_depth=128,
                                         workers_per_shard=2))
    tracer = Tracer(cluster, capacity=1_000_000)
    tracer.attach()

    stats = SloStats()
    for c in range(clients):
        rng = Random(seed * 7919 + c)
        cluster.spawn_sender(
            open_loop_client(
                cluster.sim,
                lambda k, c=c: router.request(
                    "put", b"c%d.k%d" % (c, k), b"v" * 64),
                rate=rate_per_client, count=ops_per_client, rng=rng,
                stats=stats,
                name=f"client{c}"),
            name=f"client{c}")

    cluster.run_to_quiescence(max_time=30.0)

    threads = [group.thread for group in cluster.groups.values()]
    assert tracer.dropped == 0, "trace capacity exceeded: fingerprint void"
    assert stats.ok + stats.rejected == stats.submitted
    return {
        "fingerprint": tracer.fingerprint(),
        "events_executed": cluster.sim.events_executed,
        "peak_pending": cluster.sim.peak_pending_events,
        "evals_total": sum(t.evals_total for t in threads),
    }


def bench_engine_speed(benchmark):
    params = {"clients": pick(8, 4), "ops_per_client": pick(300, 80),
              "rate_per_client": pick(400_000.0, 200_000.0)}
    repeats = pick(3, 2)

    def experiment():
        return [run_load(**params) for _ in range(repeats)]

    runs = run_once(benchmark, experiment)
    load = runs[0]
    # The same seed is the same run: every repeat retires the same
    # events, makes the same predicate passes and traces the same bytes.
    for key in ("fingerprint", "events_executed", "evals_total"):
        assert all(r[key] == load[key] for r in runs), \
            f"{key} unstable across repeats"

    text = figure_banner(
        "engine_speed",
        f"Sharded KV, {NODES} nodes, {params['clients']} clients "
        f"@ {params['rate_per_client']:,.0f}/s, {repeats} repeats",
        "the same seed retires the same events with the same trace",
    ) + "\n" + format_table(
        ["load", "sim events", "peak pending", "predicate evals"],
        [["sharded KV", f'{load["events_executed"]:,}',
          f'{load["peak_pending"]:,}', f'{load["evals_total"]:,}']],
    ) + f"\n\nfingerprint {load['fingerprint']}"
    emit("engine_speed", text)
    benchmark.extra_info["fingerprint"] = load["fingerprint"]

"""§1's broader claim: coordination-bound applications benefit too.

"Similar structures are also seen in message queuing systems, key-value
stores that replicate data, atomic multicast and persistent logging.
The dramatic speedups Spindle enabled ... point to a much broader need,
and opportunity."

We measure a replicated KV store's write throughput (512 B values,
every replica writing) under the baseline and optimized stacks, plus
the latency of a linearizable (fenced) read.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, usec
from repro.apps import attach_store
from repro.core.config import SpindleConfig
from repro.workloads import Cluster

N = 4
WRITES = 150
VALUE = b"x" * 400


def run_store(config, writes, fenced_read=True):
    cluster = Cluster(N, config=config)
    cluster.add_subgroup(message_size=512, window=32)
    cluster.build()
    stores = {nid: attach_store(cluster.group(nid), 0)
              for nid in cluster.node_ids}

    def writer(nid):
        store = stores[nid]
        for k in range(writes):
            yield from store.put(b"key-%d-%d" % (nid, k), VALUE)

    for nid in cluster.node_ids:
        cluster.spawn_sender(writer(nid))
    cluster.run_to_quiescence(max_time=60.0)
    total = N * writes
    assert all(s.applied == total for s in stores.values())
    duration = max(cluster.group(nid).stats(0).last_delivery_time
                   for nid in cluster.node_ids)
    write_rate = total / duration

    if not fenced_read:
        # Without null-sends a lone fence multicast stalls on the
        # round-robin order (§3.3's correctness property is exactly what
        # makes fenced reads on an idle group possible).
        return write_rate, None

    # Linearizable read latency on the now-idle store.
    read_latency = {}

    def reader():
        t0 = cluster.sim.now
        yield from stores[1].sync_read(b"key-0-0")
        read_latency["t"] = cluster.sim.now - t0

    cluster.spawn_sender(reader())
    cluster.run_to_quiescence(max_time=10.0)
    return write_rate, read_latency["t"]


def bench_apps_kvstore(benchmark):
    def experiment():
        return {
            "baseline": run_store(SpindleConfig.baseline(), writes=50,
                                  fenced_read=False),
            "optimized": run_store(SpindleConfig.optimized(), writes=WRITES),
        }

    results = run_once(benchmark, experiment)
    rows = []
    for name, (rate, read_lat) in results.items():
        rows.append([name, f"{rate:,.0f}",
                     usec(read_lat) if read_lat is not None
                     else "stalls (no nulls)"])
    text = figure_banner(
        "§1 applications", f"Replicated KV store, {N} replicas, "
        "512 B writes",
        "the coordination-bound write path inherits the multicast speedup",
    ) + "\n" + format_table(
        ["stack", "writes/s (all replicas)", "fenced read (us)"], rows)
    emit("apps_kvstore", text)

    base_rate, _ = results["baseline"]
    opt_rate, opt_read = results["optimized"]
    benchmark.extra_info["write_speedup"] = opt_rate / base_rate
    # Synchronous one-outstanding-write clients are *latency*-bound, so
    # the gain is smaller than the streaming figures — but still real.
    assert opt_rate > 1.2 * base_rate
    assert opt_read < 1e-3  # a fenced read completes in well under 1 ms

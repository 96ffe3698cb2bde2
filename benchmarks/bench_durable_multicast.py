"""Durable atomic multicast: the cost of the Paxos-equivalent mode.

Paper §2.1 (footnote): "Derecho atomic multicast is equivalent to
Vertical Paxos, and its persistent atomic multicast is equivalent to
the classical durable Paxos."

This benchmark measures what durability costs on top of the optimized
volatile multicast: delivery throughput (the storage thread works off
the critical path, so it should hold), and the durability lag — how far
the globally-durable watermark trails delivery.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.workloads import Cluster, continuous_sender

NODES = [2, 4, 8]
COUNT = 120
SIZE = 10240


def run_case(n, persistent):
    cluster = Cluster(n, config=SpindleConfig.optimized())
    cluster.add_subgroup(message_size=SIZE, window=50, persistent=persistent)
    cluster.build()
    durable_at = {}
    delivered_at = {}
    if persistent:
        cluster.group(0).on_durable(
            0, lambda w: durable_at.setdefault(w, cluster.sim.now))
    cluster.group(0).on_delivery(
        0, lambda d: delivered_at.setdefault(d.seq, cluster.sim.now))
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=COUNT, size=SIZE))
    cluster.run_to_quiescence(max_time=60.0)
    cluster.assert_all_delivered(0, per_sender=COUNT)
    throughput = cluster.aggregate_throughput(0)
    lag = 0.0
    if persistent:
        final_seq = max(delivered_at)
        lag = durable_at[max(durable_at)] - delivered_at[final_seq]
        engine = cluster.group(0).persistence[0]
        assert len(engine.log) == n * COUNT
    return throughput, lag


def bench_durable_multicast(benchmark):
    def experiment():
        return {
            (n, persistent): run_case(n, persistent)
            for n in NODES for persistent in (False, True)
        }

    results = run_once(benchmark, experiment)
    rows = []
    for n in NODES:
        volatile, _ = results[(n, False)]
        durable, lag = results[(n, True)]
        rows.append([n, gbps(volatile), gbps(durable),
                     f"{durable / volatile:.2f}", f"{lag * 1e6:.0f}"])
    text = figure_banner(
        "§2.1 footnote", "Durable (Paxos-equivalent) vs volatile multicast",
        "storage runs off the critical path: delivery throughput holds; "
        "durability trails by the SSD append + ack round",
    ) + "\n" + format_table(
        ["n", "volatile GB/s", "durable GB/s", "ratio", "durability lag (us)"],
        rows)
    emit("durable_multicast", text)

    for n in NODES:
        volatile, _ = results[(n, False)]
        durable, lag = results[(n, True)]
        assert durable > 0.7 * volatile   # off-critical-path persistence
        assert lag > 0                    # durability strictly trails
    benchmark.extra_info["lag_us_8"] = results[(8, True)][1] * 1e6

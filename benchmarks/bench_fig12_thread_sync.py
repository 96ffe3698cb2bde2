"""Figure 12: efficient thread synchronization (early lock release).

Paper: restructuring predicates to post RDMA writes after releasing the
shared lock improves throughput ~1.4x on top of batching + nulls; the
maximum network utilization of 77.6% is reached at 4 members and stays
stable through 16.
"""

from _common import emit, pick, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.rdma.latency import LatencyModel
from repro.workloads import single_subgroup

NODES = pick([2, 4, 8, 12, 16], [2, 4, 8])


def bench_fig12_thread_sync(benchmark):
    def experiment():
        return {
            (n, name): single_subgroup(n, "all", config, count=pick(200, 120))
            for n in NODES
            for name, config in [
                ("held", SpindleConfig.batching_and_nulls()),
                ("released", SpindleConfig.optimized()),
            ]
        }

    results = run_once(benchmark, experiment)
    link = LatencyModel().link_bandwidth
    rows = []
    for n in NODES:
        held = results[(n, "held")].throughput
        released = results[(n, "released")].throughput
        rows.append([
            n, gbps(held), gbps(released), f"{released / held:.2f}x",
            f"{released / link * 100:.0f}%",
        ])
    text = figure_banner(
        "Figure 12", "Early lock release on top of batching + nulls",
        "~1.4x average improvement; utilization stable from 4 to 16 nodes",
    ) + "\n" + format_table(
        ["n", "lock held", "early release", "speedup", "utilization"], rows)
    emit("fig12_thread_sync", text)

    speedups = [results[(n, "released")].throughput
                / results[(n, "held")].throughput for n in NODES]
    mean_speedup = sum(speedups) / len(speedups)
    benchmark.extra_info["mean_speedup"] = mean_speedup
    assert mean_speedup > 1.2
    # Stability: optimized throughput varies < 35% between 4 and 16 nodes.
    released = [results[(n, "released")].throughput for n in NODES[1:]]
    assert max(released) / min(released) < 1.35

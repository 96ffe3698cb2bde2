"""Figure 6: effect of the ring-buffer window size (all senders, 10 KB).

Paper: even w=5 beats the baseline-with-w=100 by ~4.5x; the best
performance is at w=100; very large windows (500, 1000) start declining
beyond ~10 nodes.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.workloads import single_subgroup

WINDOWS = [5, 10, 50, 100, 500, 1000]
NODES = [4, 8, 16]


def bench_fig06_window_size(benchmark):
    def experiment():
        results = {}
        for n in NODES:
            for w in WINDOWS:
                results[(n, w)] = single_subgroup(
                    n, "all", SpindleConfig.batching_only(),
                    window=w, count=max(150, 2 * w))
            results[(n, "baseline")] = single_subgroup(
                n, "all", SpindleConfig.baseline(), window=100, count=60)
        return results

    results = run_once(benchmark, experiment)
    rows = []
    for n in NODES:
        row = [n, gbps(results[(n, "baseline")].throughput)]
        row += [gbps(results[(n, w)].throughput) for w in WINDOWS]
        rows.append(row)
    text = figure_banner(
        "Figure 6", "Throughput (GB/s) vs window size, all senders",
        "w=5 already ~4.5x baseline(w=100); best near w=100",
    ) + "\n" + format_table(
        ["n", "baseline"] + [f"w={w}" for w in WINDOWS], rows)
    emit("fig06_window_size", text)

    for n in NODES:
        base = results[(n, "baseline")].throughput
        # Paper: ~4.5x average. Our baseline is stronger at small n
        # (see EXPERIMENTS.md), so the factor grows with n.
        assert results[(n, 5)].throughput > (2 * base if n >= 8 else base)
        # w=100 at least matches small windows.
        assert (results[(n, 100)].throughput
                >= 0.9 * max(results[(n, w)].throughput for w in WINDOWS))
    benchmark.extra_info["best_window"] = max(
        WINDOWS, key=lambda w: results[(16, w)].throughput)

"""Figure 3: single subgroup, 10 KB messages — opportunistic batching
vs baseline, for all/half/one senders across subgroup sizes.

Paper: batching outperforms the baseline by ~9x (all senders), ~6x
(half) and ~3x (one) on average, reaching 16x at 16 senders; peak
8.03 GB/s; one-sender throughput declines with subgroup size.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.workloads import single_subgroup

SIZES = [2, 4, 8, 12, 16]
PATTERNS = ["all", "half", "one"]


def bench_fig03_single_subgroup(benchmark):
    def experiment():
        results = {}
        for n in SIZES:
            for pattern in PATTERNS:
                results[(n, pattern, "baseline")] = single_subgroup(
                    n, pattern, SpindleConfig.baseline(), count=60)
                results[(n, pattern, "batching")] = single_subgroup(
                    n, pattern, SpindleConfig.batching_only(), count=200)
        return results

    results = run_once(benchmark, experiment)

    rows = []
    for n in SIZES:
        row = [n]
        for pattern in PATTERNS:
            base = results[(n, pattern, "baseline")].throughput
            batched = results[(n, pattern, "batching")].throughput
            row += [gbps(base), gbps(batched), f"{batched / base:.1f}x"]
        rows.append(row)
    text = figure_banner(
        "Figure 3", "Single subgroup, 10 KB: baseline vs opportunistic batching",
        "~9x (all) / ~6x (half) / ~3x (one) average speedup; 16x at 16 senders",
    ) + "\n" + format_table(
        ["n",
         "all:base", "all:batch", "all:ratio",
         "half:base", "half:batch", "half:ratio",
         "one:base", "one:batch", "one:ratio"],
        rows,
    )
    emit("fig03_single_subgroup", text)

    all16 = results[(16, "all", "batching")].throughput
    base16 = results[(16, "all", "baseline")].throughput
    benchmark.extra_info["speedup_16_all"] = all16 / base16
    benchmark.extra_info["peak_gbps"] = max(
        r.throughput for r in results.values()) / 1e9

    # Shape checks: batching wins everywhere; speedup grows with senders;
    # one-sender throughput declines with subgroup size.
    for key, result in results.items():
        n, pattern, kind = key
        if kind == "batching":
            assert result.throughput > results[(n, pattern, "baseline")].throughput
    assert all16 / base16 > 8
    one = [results[(n, "one", "batching")].throughput for n in SIZES]
    assert one[-1] < one[0]

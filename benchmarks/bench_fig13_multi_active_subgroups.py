"""Figure 13: multiple *active* subgroups with all optimizations.

Paper: with every subgroup actively sending, the fully-optimized system
scales excellently with the number of subgroups and stays relatively
stable, while the baseline collapses.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.workloads import multi_subgroup

SUBGROUPS = [1, 2, 5, 10]
N = 8


def bench_fig13_multi_active_subgroups(benchmark):
    def experiment():
        out = {}
        for k in SUBGROUPS:
            out[(k, "optimized")] = multi_subgroup(
                N, num_subgroups=k, active_subgroups=k,
                config=SpindleConfig.optimized(), count=100,
                max_time=300.0)
            out[(k, "baseline")] = multi_subgroup(
                N, num_subgroups=k, active_subgroups=k,
                config=SpindleConfig.baseline(),
                count=30, max_time=300.0)
        return out

    results = run_once(benchmark, experiment)
    rows = []
    for k in SUBGROUPS:
        base = results[(k, "baseline")].throughput
        opt = results[(k, "optimized")].throughput
        rows.append([k, gbps(base), gbps(opt), f"{opt / base:.1f}x"])
    text = figure_banner(
        "Figure 13", f"All subgroups active ({N} nodes, aggregate GB/s "
        "per node)",
        "optimized stays stable as subgroups multiply; baseline collapses",
    ) + "\n" + format_table(
        ["active subgroups", "baseline", "optimized", "speedup"], rows)
    emit("fig13_multi_active_subgroups", text)

    opt = [results[(k, "optimized")].throughput for k in SUBGROUPS]
    base = [results[(k, "baseline")].throughput for k in SUBGROUPS]
    benchmark.extra_info["opt_10_subgroups"] = opt[-1] / 1e9
    # Shape: optimized holds >50% of its single-subgroup rate at 10
    # active subgroups; the baseline loses much more, and the optimized
    # advantage widens with subgroup count.
    assert opt[-1] > 0.5 * opt[0]
    assert opt[-1] / base[-1] > opt[0] / base[0]

"""Figure 8: baseline with one active subgroup among many inactive ones.

Paper: baseline performance decreases steadily with the number of
subgroups — a single inactive subgroup costs ~18%, and 50 subgroups cut
throughput to about a tenth — because the predicate thread evaluates
every subgroup's predicates fairly.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.workloads import multi_subgroup

SUBGROUPS = [1, 2, 5, 10, 20, 50]
N = 8


def bench_fig08_single_active_baseline(benchmark):
    def experiment():
        return {
            k: multi_subgroup(N, num_subgroups=k, active_subgroups=1,
                              config=SpindleConfig.baseline(), count=50)
            for k in SUBGROUPS
        }

    results = run_once(benchmark, experiment)
    base = results[1].throughput
    rows = [
        [k, gbps(results[k].throughput),
         f"{results[k].throughput / base:.2f}",
         f"{results[k].extras['active_fraction_node0'] * 100:.0f}%"]
        for k in SUBGROUPS
    ]
    text = figure_banner(
        "Figure 8", "Baseline: 1 active subgroup among k subgroups "
        f"({N} nodes)",
        "adding 1 inactive subgroup costs ~18%; 50 subgroups -> ~10% of solo",
    ) + "\n" + format_table(
        ["subgroups", "GB/s", "vs 1 subgroup", "active-pred time"], rows)
    emit("fig08_single_active_baseline", text)

    benchmark.extra_info["ratio_50"] = results[50].throughput / base
    # Shape: monotone-ish decline, large total degradation.
    assert results[2].throughput < results[1].throughput
    assert results[50].throughput < 0.45 * base
    # Fair evaluation: active-subgroup share of predicate time collapses.
    assert (results[50].extras["active_fraction_node0"]
            < results[2].extras["active_fraction_node0"])

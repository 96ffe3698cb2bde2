"""Figure 11: overhead of null-sends under continuous sending.

Paper: with everyone sending continuously, nulls cost up to ~25% for
small all-sender groups, almost nothing for half senders, and exactly
nothing for one sender (no null can ever be sent); for larger groups
nulls compensate for relative drift and the gap closes.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.workloads import single_subgroup

NODES = [2, 4, 8, 16]
PATTERNS = ["all", "half", "one"]


def bench_fig11_nullsend_continuous(benchmark):
    def experiment():
        out = {}
        for n in NODES:
            for pattern in PATTERNS:
                out[(n, pattern, "batching")] = single_subgroup(
                    n, pattern, SpindleConfig.batching_only(), count=150)
                out[(n, pattern, "nulls")] = single_subgroup(
                    n, pattern, SpindleConfig.batching_and_nulls(), count=150)
        return out

    results = run_once(benchmark, experiment)
    rows = []
    for n in NODES:
        row = [n]
        for pattern in PATTERNS:
            without = results[(n, pattern, "batching")]
            with_nulls = results[(n, pattern, "nulls")]
            row.append(f"{gbps(without.throughput)}/"
                       f"{gbps(with_nulls.throughput)}"
                       f" ({with_nulls.nulls_sent})")
        rows.append(row)
    text = figure_banner(
        "Figure 11", "Null-send overhead, continuous sending "
        "(batching-only GB/s / with-nulls GB/s (nulls sent))",
        "bounded overhead for all-senders; ~none for half; zero nulls for one",
    ) + "\n" + format_table(["n"] + PATTERNS, rows)
    emit("fig11_nullsend_continuous", text)

    for n in NODES:
        # One sender: no nulls possible, no overhead.
        assert results[(n, "one", "nulls")].nulls_sent == 0
        one_ratio = (results[(n, "one", "nulls")].throughput
                     / results[(n, "one", "batching")].throughput)
        assert one_ratio > 0.95
        # All senders: bounded overhead (paper: up to ~25%).
        all_ratio = (results[(n, "all", "nulls")].throughput
                     / results[(n, "all", "batching")].throughput)
        assert all_ratio > 0.65
    benchmark.extra_info["all16_ratio"] = (
        results[(16, "all", "nulls")].throughput
        / results[(16, "all", "batching")].throughput)

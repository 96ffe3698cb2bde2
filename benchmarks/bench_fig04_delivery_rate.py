"""Figure 4: message delivery rate for different small message sizes.

Paper: with the optimizations, the number of messages delivered per
second is about the same for 1 B, 128 B, 1 KB and 10 KB — throughput is
proportional to message size in this range.
"""

from _common import emit, pick, run_once

from repro.analysis import figure_banner, format_table
from repro.core.config import SpindleConfig
from repro.workloads import single_subgroup

SIZES = [1, 128, 1024, 10240]
NODES = pick([2, 8, 16], [2, 8])


def bench_fig04_delivery_rate(benchmark):
    def experiment():
        return {
            (n, size): single_subgroup(
                n, "all", SpindleConfig.optimized(),
                message_size=size, count=pick(200, 120))
            for n in NODES for size in SIZES
        }

    results = run_once(benchmark, experiment)
    rows = []
    for n in NODES:
        rates = [results[(n, size)].message_rate / 1e6 for size in SIZES]
        rows.append([n] + [f"{r:.2f}" for r in rates])
    text = figure_banner(
        "Figure 4", "Delivery rate (million msgs/s) vs message size",
        "delivery rate roughly constant across 1 B .. 10 KB",
    ) + "\n" + format_table(
        ["n"] + [f"{s} B" for s in SIZES], rows)
    emit("fig04_delivery_rate", text)

    # Shape: per-n, rates across sizes stay within a modest factor.
    for n in NODES:
        rates = [results[(n, size)].message_rate for size in SIZES]
        assert max(rates) / min(rates) < 3.0
    benchmark.extra_info["rate_16_10KB_mps"] = (
        results[(NODES[-1], 10240)].message_rate)

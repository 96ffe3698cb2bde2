"""Figure 5: batching applied to successively more pipeline stages.

Paper: adding delivery, then receive, then send batching improves BOTH
throughput and latency at every subgroup size (unlike traditional fixed
batching, which trades latency for throughput).
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps, usec
from repro.core.config import SpindleConfig
from repro.workloads import single_subgroup

NODES = [2, 4, 8, 16]

STAGES = [
    ("baseline", SpindleConfig.baseline()),
    ("+delivery", SpindleConfig.baseline().with_(batch_delivery=True)),
    ("+receive", SpindleConfig.baseline().with_(batch_delivery=True,
                                                batch_receive=True)),
    ("+send", SpindleConfig.batching_only()),
]


def bench_fig05_incremental_batching(benchmark):
    def experiment():
        return {
            (n, name): single_subgroup(
                n, "all", config,
                count=60 if name == "baseline" else 150)
            for n in NODES for name, config in STAGES
        }

    results = run_once(benchmark, experiment)
    rows = []
    for n in NODES:
        row = [n]
        for name, _ in STAGES:
            r = results[(n, name)]
            row.append(f"{gbps(r.throughput)}/{usec(r.latency)}")
        rows.append(row)
    text = figure_banner(
        "Figure 5", "Incremental batching: throughput (GB/s) / latency (us)",
        "each added stage improves BOTH throughput and latency",
    ) + "\n" + format_table(["n"] + [name for name, _ in STAGES], rows)
    emit("fig05_incremental_batching", text)

    for n in NODES:
        # Monotone throughput through the stages...
        thr = [results[(n, name)].throughput for name, _ in STAGES]
        assert thr[-1] > thr[0]
        assert thr[1] >= thr[0] * 0.9  # each stage helps (small noise ok)
        # ...and full batching beats baseline on latency as well.
        assert (results[(n, "+send")].latency
                < results[(n, "baseline")].latency)
    benchmark.extra_info["thr_16_full"] = results[(16, "+send")].throughput / 1e9

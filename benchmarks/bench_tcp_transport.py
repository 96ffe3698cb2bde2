"""§1 claim: the Spindle optimizations also apply on other transports.

"Here, we focus on RDMA but the same observation and optimizations
would also apply to other high-speed networking technologies (Derecho
supports many kinds of networks, including TCP)."

We rerun the all-senders experiment on a kernel-TCP fabric model
(~30 µs latency, 10 Gbps, 3 µs per-send CPU) and check that (a) the
optimizations still deliver a large speedup, and (b) RDMA beats TCP.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.rdma.latency import LatencyModel
from repro.workloads import single_subgroup

NODES = [4, 8]


def bench_tcp_transport(benchmark):
    def experiment():
        out = {}
        for n in NODES:
            out[(n, "tcp", "base")] = single_subgroup(
                n, "all", SpindleConfig.baseline(),
                latency_model=LatencyModel.tcp(), count=40, max_time=300.0)
            out[(n, "tcp", "opt")] = single_subgroup(
                n, "all", SpindleConfig.optimized(),
                latency_model=LatencyModel.tcp(), count=120, max_time=300.0)
            out[(n, "rdma", "opt")] = single_subgroup(
                n, "all", SpindleConfig.optimized(), count=120)
        return out

    results = run_once(benchmark, experiment)
    rows = []
    for n in NODES:
        base = results[(n, "tcp", "base")].throughput
        opt = results[(n, "tcp", "opt")].throughput
        rdma = results[(n, "rdma", "opt")].throughput
        rows.append([n, gbps(base), gbps(opt), f"{opt / base:.1f}x",
                     gbps(rdma), f"{rdma / opt:.1f}x"])
    text = figure_banner(
        "§1 transport claim", "Spindle on a kernel-TCP fabric (10 KB, all "
        "senders)",
        "optimizations help on TCP too; RDMA remains far faster",
    ) + "\n" + format_table(
        ["n", "tcp base", "tcp optimized", "tcp speedup",
         "rdma optimized", "rdma/tcp"], rows)
    emit("tcp_transport", text)

    for n in NODES:
        assert (results[(n, "tcp", "opt")].throughput
                > 2 * results[(n, "tcp", "base")].throughput)
        assert (results[(n, "rdma", "opt")].throughput
                > 2 * results[(n, "tcp", "opt")].throughput)
    benchmark.extra_info["tcp_speedup_8"] = (
        results[(8, "tcp", "opt")].throughput
        / results[(8, "tcp", "base")].throughput)

"""§4.1.1 internal metrics: why opportunistic batching wins (16 senders).

Paper (baseline -> optimized): RDMA write requests 18.2 M -> 1.1 M;
polling-thread time posting writes 64.84 s -> 4.29 s; sender-thread
time blocked waiting for a free buffer 97.6% -> 52.7% of (much shorter)
runtime. Our message counts are smaller, so we compare *ratios*.
"""

from _common import emit, pick, run_once

from repro.analysis import figure_banner, format_table
from repro.core.config import SpindleConfig
from repro.workloads import single_subgroup

N = 16
COUNT = pick(250, 220)  # > window (100): senders must recycle and wait


def bench_sec411_metrics(benchmark):
    def experiment():
        return {
            "baseline": single_subgroup(
                N, "all", SpindleConfig.baseline(), count=COUNT),
            "optimized": single_subgroup(
                N, "all", SpindleConfig.batching_only(), count=COUNT),
        }

    results = run_once(benchmark, experiment)
    base, opt = results["baseline"], results["optimized"]
    messages = N * COUNT
    rows = [
        ["RDMA writes", f"{base.rdma_writes:,}", f"{opt.rdma_writes:,}",
         f"{base.rdma_writes / opt.rdma_writes:.1f}x fewer"],
        ["writes/message", f"{base.rdma_writes / messages:.1f}",
         f"{opt.rdma_writes / messages:.1f}", "-"],
        ["post time (node 0)", f"{base.post_time * 1e3:.2f}ms",
         f"{opt.post_time * 1e3:.2f}ms",
         f"{base.post_time / opt.post_time:.1f}x less"],
        ["post/busy fraction", f"{base.post_fraction * 100:.0f}%",
         f"{opt.post_fraction * 100:.0f}%", "-"],
        ["sender wait fraction", f"{base.sender_wait_fraction * 100:.0f}%",
         f"{opt.sender_wait_fraction * 100:.0f}%", "-"],
        ["runtime (sim)", f"{base.duration * 1e3:.1f}ms",
         f"{opt.duration * 1e3:.1f}ms",
         f"{base.duration / opt.duration:.1f}x shorter"],
    ]
    text = figure_banner(
        "§4.1.1", f"Internal metrics, {N} senders, 10 KB",
        "writes 18.2M->1.1M (16x); post time 64.8s->4.3s (15x); "
        "sender wait 97.6%->52.7%",
    ) + "\n" + format_table(["metric", "baseline", "optimized", "change"],
                            rows)
    emit("sec411_metrics", text)

    benchmark.extra_info["write_reduction"] = (
        base.rdma_writes / opt.rdma_writes)
    benchmark.extra_info["post_time_reduction"] = (
        base.post_time / opt.post_time)
    assert base.rdma_writes / opt.rdma_writes > 5
    assert base.post_time / opt.post_time > 5
    assert base.post_fraction > 0.30            # ">30% of its time posting"
    assert opt.sender_wait_fraction < base.sender_wait_fraction
    # ~97.6% in the paper with 1M messages; our 250-message runs spend
    # a window-fill's worth (the first 100 sends) not waiting at all,
    # so the fraction is proportionally lower but still dominant.
    assert base.sender_wait_fraction > 0.5

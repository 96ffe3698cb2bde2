"""Figure 14: memcpy latency and bandwidth vs data size.

Paper: memcpy latency remains low up to a few KB, then deteriorates
quickly for large sizes (the cache boundary) — the basis for the
pragmatic copy-in/copy-out mode of §4.4.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, usec
from repro.core.config import TimingModel

SIZES = [64, 256, 1024, 4096, 10240, 65536, 262144, 1048576, 4194304,
         16777216]


def bench_fig14_memcpy(benchmark):
    def experiment():
        t = TimingModel()
        return {s: (t.memcpy_time(s), t.memcpy_bandwidth(s)) for s in SIZES}

    curve = run_once(benchmark, experiment)
    rows = [
        [size, usec(curve[size][0]), f"{curve[size][1] / 1e9:.1f}"]
        for size in SIZES
    ]
    text = figure_banner(
        "Figure 14", "memcpy latency / bandwidth vs size",
        "latency low up to a few KB, deteriorating for large sizes",
    ) + "\n" + format_table(["size (B)", "latency (us)", "GB/s"], rows)
    emit("fig14_memcpy", text)

    t10k = curve[10240][0]
    benchmark.extra_info["memcpy_10KB_us"] = t10k * 1e6
    assert t10k < 1e-6                       # 10 KB copies stay sub-µs
    assert curve[16777216][1] < 0.5 * curve[65536][1]  # bandwidth cliff
    times = [curve[s][0] for s in SIZES]
    assert times == sorted(times)

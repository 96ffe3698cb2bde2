"""Figure 1: RDMA write latency vs data size.

Paper: latency is nearly constant up to 4 KB — 1.73 µs for 1 B rising
only to 2.46 µs at 4 KB on the 12.5 GB/s fabric.

We measure end-to-end one-sided write latency through the simulated
fabric (post + egress + wire) for the paper's size range.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, usec
from repro.rdma import ByteRegion, RdmaFabric
from repro.sim import Simulator

SIZES = [1, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576]


def measure_write_latency(size: int) -> float:
    """One write, idle fabric: time from post to remote visibility."""
    sim = Simulator()
    fabric = RdmaFabric(sim)
    a, b = fabric.add_node(), fabric.add_node()
    src = ByteRegion(size)
    dst = ByteRegion(size)
    a.register(src)
    key = b.register(dst)
    qp = fabric.queue_pair(a.node_id, b.node_id)
    arrival = {}
    b.on_remote_write.append(lambda region, snap: arrival.setdefault("t", sim.now))
    qp.post_write(src, 0, key, 0, size)
    sim.run()
    return arrival["t"]


def bench_fig01_rdma_latency(benchmark):
    def experiment():
        return {size: measure_write_latency(size) for size in SIZES}

    latencies = run_once(benchmark, experiment)
    rows = [(size, usec(latencies[size]),
             f"{size / latencies[size] / 1e9:.2f}")
            for size in SIZES]
    text = figure_banner(
        "Figure 1", "RDMA write latency vs data size",
        "1.73 us at 1 B -> 2.46 us at 4 KB; nearly flat below 4 KB",
    ) + "\n" + format_table(["size (B)", "latency (us)", "eff. GB/s"], rows)
    emit("fig01_rdma_latency", text)

    benchmark.extra_info["latency_1B_us"] = latencies[1] * 1e6
    benchmark.extra_info["latency_4KB_us"] = latencies[4096] * 1e6
    assert 1.6 < latencies[1] * 1e6 < 1.9
    assert 2.2 < latencies[4096] * 1e6 < 2.7
    assert latencies[4096] / latencies[1] < 1.5  # "nearly constant"

"""Figure 4 remark: SMC vs RDMC — where the large-message plane wins.

Paper (caption of Fig. 4): "Derecho has a second communication layer,
RDMC, for very large subgroups or messages... shifting to it might be
advisable for subgroups with more than 12 members."

This benchmark compares the per-message dissemination time of SMC's
sequential unicast against RDMC's relay schedules across subgroup sizes
and message sizes, locating the crossover.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table
from repro.rdma import RdmaFabric
from repro.rdmc import RdmcGroup
from repro.sim import Simulator

NODES = [4, 8, 12, 16]
SIZES = [64 * 1024, 1 << 20, 8 << 20]
BLOCK = 256 * 1024


def dissemination_time(n: int, scheme: str, size: int) -> float:
    sim = Simulator()
    fabric = RdmaFabric(sim)
    members = [fabric.add_node().node_id for _ in range(n)]
    group = RdmcGroup(fabric, members,
                      block_size=min(BLOCK, size), scheme=scheme)
    session = group.multicast(members[0], size)
    sim.run()
    return max(session.completion_time(m) for m in members)


def bench_rdmc_crossover(benchmark):
    def experiment():
        return {
            (n, size, scheme): dissemination_time(n, scheme, size)
            for n in NODES for size in SIZES
            for scheme in ("sequential", "binomial", "binomial_pipeline")
        }

    results = run_once(benchmark, experiment)
    rows = []
    for size in SIZES:
        for n in NODES:
            seq = results[(n, size, "sequential")]
            tree = results[(n, size, "binomial")]
            pipe = results[(n, size, "binomial_pipeline")]
            rows.append([
                f"{size // 1024} KB", n,
                f"{seq * 1e6:.0f}", f"{tree * 1e6:.0f}",
                f"{pipe * 1e6:.0f}", f"{seq / pipe:.1f}x",
            ])
    text = figure_banner(
        "Fig. 4 remark", "SMC (sequential) vs RDMC dissemination time (us)",
        "RDMC advisable for larger subgroups/messages; relay pipelines "
        "keep time nearly flat in n",
    ) + "\n" + format_table(
        ["message", "n", "sequential", "binomial", "pipeline", "advantage"],
        rows)
    emit("rdmc_crossover", text)

    # Shapes: sequential grows ~linearly with n, and RDMC wins at 16
    # members for every size (the paper's ">12 members" advice)...
    for size in SIZES:
        seq_growth = (results[(16, size, "sequential")]
                      / results[(4, size, "sequential")])
        assert seq_growth > 3.0
        assert (results[(16, size, "binomial_pipeline")]
                < results[(16, size, "sequential")])
    # ...the block pipeline is nearly flat in n once there are enough
    # blocks to pipeline (the 8 MB case)...
    pipe_growth = (results[(16, 8 << 20, "binomial_pipeline")]
                   / results[(4, 8 << 20, "binomial_pipeline")])
    assert pipe_growth < 1.6
    # ...and the crossover is real: for small messages at small n the
    # simple sequential send is still the right choice (why SMC exists).
    assert (results[(4, 64 * 1024, "sequential")]
            < results[(4, 64 * 1024, "binomial_pipeline")])
    benchmark.extra_info["advantage_16_8MB"] = (
        results[(16, 8 << 20, "sequential")]
        / results[(16, 8 << 20, "binomial_pipeline")])

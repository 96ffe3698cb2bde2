"""Ablation (§3.2): opportunistic batching vs fixed batch sizes.

Paper: "In one experiment, we explored waiting to send a fixed batch of
messages on top of receive and delivery batching. Performance collapsed
and latency soared even for very small batch sizes." Opportunistic
batching never waits; fixed batching must pause to accumulate, which at
RDMA speeds is disastrous whenever the application paces itself.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps, usec
from repro.core.config import SpindleConfig
from repro.sim.units import us
from repro.workloads import Cluster, continuous_sender

N = 4
FIXED_SIZES = [0, 4, 16, 64]  # 0 = opportunistic


def run_case(fixed: int, paced: bool):
    config = SpindleConfig.batching_only().with_(fixed_send_batch=fixed)
    cluster = Cluster(N, config=config)
    cluster.add_subgroup(window=100, message_size=10240)
    cluster.build()
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=120, size=10240,
            delay=us(5) if paced else 0.0))
    cluster.run_to_quiescence(max_time=120.0)
    cluster.assert_all_delivered(0, per_sender=120)
    return cluster.aggregate_throughput(0), cluster.mean_latency(0)


def bench_ablation_fixed_batch(benchmark):
    def experiment():
        return {
            (fixed, paced): run_case(fixed, paced)
            for fixed in FIXED_SIZES for paced in (False, True)
        }

    results = run_once(benchmark, experiment)
    rows = []
    for fixed in FIXED_SIZES:
        label = "opportunistic" if fixed == 0 else f"fixed {fixed}"
        thr_t, lat_t = results[(fixed, False)]
        thr_p, lat_p = results[(fixed, True)]
        rows.append([label, gbps(thr_t), usec(lat_t),
                     gbps(thr_p), usec(lat_p)])
    text = figure_banner(
        "Ablation", "Opportunistic vs fixed send batching "
        "(tight loop | paced 5us)",
        "fixed batches make latency soar whenever senders pace themselves",
    ) + "\n" + format_table(
        ["scheme", "tight GB/s", "tight lat", "paced GB/s", "paced lat"],
        rows)
    emit("ablation_fixed_batch", text)

    # Under pacing, fixed batches lose on latency — mildly at size 4,
    # badly beyond (the paper's "latency soared even for very small
    # batch sizes").
    _, lat_opportunistic = results[(0, True)]
    assert results[(4, True)][1] > 1.15 * lat_opportunistic
    for fixed in (16, 64):
        _, lat_fixed = results[(fixed, True)]
        assert lat_fixed > 2 * lat_opportunistic
    benchmark.extra_info["paced_latency_blowup_64"] = (
        results[(64, True)][1] / lat_opportunistic)

"""Figure 7: batch-size histograms for the three pipeline stages
(single subgroup, 16 senders, w=100).

Paper: sends typically batch < 5 messages; receive merges all senders'
streams into larger batches; delivery adds a stability level and forms
the largest batches (multiples of ~16). Mean batch sizes for 1 subgroup:
{1.72, 22.18, 35.19} (send, receive, delivery).
"""

from collections import Counter

from _common import emit, pick, run_once

from repro.analysis import figure_banner, format_table
from repro.core.config import SpindleConfig
from repro.workloads import Cluster, continuous_sender

BUCKETS = [(1, 1), (2, 4), (5, 9), (10, 19), (20, 49), (50, 99),
           (100, 199), (200, 10**9)]


def bucketize(histogram: Counter):
    out = []
    for lo, hi in BUCKETS:
        total = sum(c for size, c in histogram.items() if lo <= size <= hi)
        out.append(total)
    return out


def bench_fig07_batch_histograms(benchmark):
    def experiment():
        cluster = Cluster(16, config=SpindleConfig.optimized())
        cluster.add_subgroup(window=100, message_size=10240)
        cluster.build()
        for nid in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=pick(250, 120), size=10240))
        cluster.run_to_quiescence(max_time=60.0)
        cluster.assert_all_delivered(0, per_sender=pick(250, 120))
        stats = cluster.group(0).stats(0)
        return stats

    stats = run_once(benchmark, experiment)
    send_mean, receive_mean, delivery_mean = stats.mean_batches
    rows = []
    labels = [f"{lo}" if lo == hi else f"{lo}-{hi if hi < 10**9 else '+'}"
              for lo, hi in BUCKETS]
    send_b = bucketize(stats.send_batches)
    recv_b = bucketize(stats.receive_batches)
    deliv_b = bucketize(stats.delivery_batches)
    for label, s, r, d in zip(labels, send_b, recv_b, deliv_b):
        rows.append([label, s, r, d])
    rows.append(["mean", f"{send_mean:.2f}", f"{receive_mean:.2f}",
                 f"{delivery_mean:.2f}"])
    text = figure_banner(
        "Figure 7", "Batch-size histograms (send / receive / delivery)",
        "paper means ~{1.72, 22.18, 35.19}: receive > send, delivery largest",
    ) + "\n" + format_table(["batch size", "send", "receive", "delivery"],
                            rows)
    emit("fig07_batch_histograms", text)

    benchmark.extra_info["mean_send"] = send_mean
    benchmark.extra_info["mean_receive"] = receive_mean
    benchmark.extra_info["mean_delivery"] = delivery_mean
    assert send_mean < receive_mean < delivery_mean
    # Sends form much smaller batches than the merged receive stream
    # (absolute means run ~8x the paper's; see EXPERIMENTS.md).
    assert send_mean < receive_mean / 3

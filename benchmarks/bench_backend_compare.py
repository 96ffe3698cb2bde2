"""Backend comparison: Spindle's SST multicast vs the Multi-Paxos
baseline on identical workloads (docs/ORDERING.md).

The paper's argument is architectural — replacing leader-mediated
quorum rounds with one-sided SST counter pushes removes both the
leader's fan-in/fan-out bottleneck and the per-message handler CPU.
This bench quantifies that on the simulated fabric: the fig03/fig04/
fig16-style single-subgroup loads run unchanged on both backends (only
``backend=`` differs), and the Paxos chaos scenarios re-run to pin
that the baseline stays correct while losing.

The table holds every number exactly (bench-smoke diffs it): each
load's throughput (GB/s, or Mmsg/s for fig04) on both backends with
their ratio, the fig16 load's mean delivery latency (us), and chaos
health. The bench asserts the shape: Spindle beats Paxos on the fig16
headline (``fig16_speedup`` > 1, at lower latency) and every chaos
scenario stays ok.
"""

from _common import emit, pick, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.faults.scenarios import run_scenario
from repro.workloads import single_subgroup

BACKENDS = ["spindle", "paxos"]
CHAOS = ["paxos-leader-crash", "paxos-partition-heal",
         "paxos-crash-restart-rejoin"]


def bench_backend_compare(benchmark):
    n = pick(8, 4)
    count = pick(120, 40)
    window = pick(64, 32)

    def experiment():
        out = {}
        for backend in BACKENDS:
            # fig16-style headline: 10 KB, all senders, optimized stack.
            out[(backend, "fig16")] = single_subgroup(
                n, "all", SpindleConfig.optimized(), message_size=10240,
                count=count, window=window, backend=backend)
            # fig03-style: the one-sender pattern (leader-bound for
            # Paxos only when the sender is not the leader's node).
            out[(backend, "fig03_one")] = single_subgroup(
                n, "one", SpindleConfig.optimized(), message_size=10240,
                count=count, window=window, backend=backend)
            # fig04-style: small messages, delivery *rate* not bytes.
            out[(backend, "fig04")] = single_subgroup(
                n, "all", SpindleConfig.optimized(), message_size=1024,
                count=count, window=window, backend=backend)
        out["chaos"] = {name: run_scenario(name, seed=7) for name in CHAOS}
        return out

    results = run_once(benchmark, experiment)

    rows = []
    for load, metric in [("fig16", "GB/s"), ("fig03_one", "GB/s"),
                         ("fig04", "Mmsg/s")]:
        row = [load]
        for backend in BACKENDS:
            r = results[(backend, load)]
            row.append(gbps(r.throughput) if metric == "GB/s"
                       else f"{r.message_rate / 1e6:.2f}")
        spindle = results[("spindle", load)]
        paxos = results[("paxos", load)]
        row.append(f"{spindle.throughput / paxos.throughput:.2f}x")
        rows.append(row)
    latency = [results[(backend, "fig16")].latency_us for backend in BACKENDS]
    rows.append(["fig16 latency (us)"] + [f"{lat:.1f}" for lat in latency]
                + [f"{latency[0] / latency[1]:.2f}x"])
    chaos = results["chaos"]
    text = figure_banner(
        "Backend compare",
        f"Spindle vs Multi-Paxos, {n} nodes (quick={count <= 40})",
        "same fabric, same workload; only the ordering protocol differs",
    ) + "\n" + format_table(
        ["load", "spindle", "paxos", "spindle/paxos"], rows,
    ) + "\nchaos: " + ", ".join(
        f"{name}={'ok' if chaos[name].ok else 'FAIL'}" for name in CHAOS)
    emit("backend_compare", text)

    for name in CHAOS:
        assert chaos[name].ok, (name, chaos[name].problems)

    fig16_spindle = results[("spindle", "fig16")].throughput
    fig16_paxos = results[("paxos", "fig16")].throughput
    speedup = fig16_spindle / fig16_paxos
    # The architectural claim, as a hard floor: the SST multicast must
    # beat the quorum baseline on the headline load.
    assert speedup > 1.0, (fig16_spindle, fig16_paxos)
    # ...at lower mean delivery latency (121.9 vs 152.7 us quick, 511
    # vs 1,561 us full).
    assert latency[0] < latency[1], latency
    benchmark.extra_info["fig16_speedup"] = speedup

"""§3.5: delays in the delivery upcall.

Paper: upcalls of 1 µs / 100 µs / 1 ms cut throughput by about 9% / 90%
/ 99% — for large delays performance degenerates to one message per
delay period — confirming the protocol delivers in the critical path.
"""

import pytest

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig, TimingModel
from repro.sim.units import ms, us
from repro.workloads import single_subgroup

N = 4
CASES = [("fast (0.4us)", None), ("1us", us(1)), ("100us", us(100)),
         ("1ms", ms(1))]


def bench_sec35_upcall_delay(benchmark):
    def experiment():
        out = {}
        for name, upcall in CASES:
            timing = (TimingModel() if upcall is None
                      else TimingModel(delivery_upcall=upcall))
            count = 150 if upcall is None or upcall <= us(1) else (
                40 if upcall <= us(100) else 8)
            out[name] = single_subgroup(
                N, "all", SpindleConfig.optimized(), timing=timing,
                count=count, max_time=300.0)
        return out

    results = run_once(benchmark, experiment)
    base = results["fast (0.4us)"]
    rows = []
    for name, _ in CASES:
        r = results[name]
        rows.append([
            name, gbps(r.throughput),
            f"-{(1 - r.throughput / base.throughput) * 100:.0f}%",
            f"{r.message_rate:,.0f}",
        ])
    text = figure_banner(
        "§3.5", f"Delivery-upcall delay sensitivity ({N} nodes, 10 KB)",
        "1us/100us/1ms upcalls cost ~9%/90%/99% of throughput",
    ) + "\n" + format_table(
        ["upcall", "GB/s", "throughput loss", "msgs/s"], rows)
    emit("sec35_upcall_delay", text)

    loss100 = 1 - results["100us"].throughput / base.throughput
    loss1ms = 1 - results["1ms"].throughput / base.throughput
    benchmark.extra_info["loss_100us_pct"] = loss100 * 100
    benchmark.extra_info["loss_1ms_pct"] = loss1ms * 100
    assert loss100 > 0.75   # paper: ~90% (our per-message budget is
    assert loss1ms > 0.97   # tighter, so losses skew higher; see notes)
    # The paper's sharpest claim: for large delays, performance
    # degenerates to ~one message delivered per delay period.
    assert results["100us"].message_rate == pytest.approx(10_000, rel=0.15)
    assert results["1ms"].message_rate == pytest.approx(1_000, rel=0.15)

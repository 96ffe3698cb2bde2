"""Figure 18: DDS throughput for all four QoS levels, baseline vs
Spindle.

Paper: Spindle improves the DDS at every QoS level. Spindle-DDS shows
nearly the same performance for unordered and atomic multicast, with
moderate cost for volatile storage and more for logged storage; the
baseline degrades considerably with each added QoS level.
"""

from _common import emit, run_once

from repro.analysis import figure_banner, format_table, gbps
from repro.core.config import SpindleConfig
from repro.dds import DdsDomain, QosLevel, QosProfile

SUBSCRIBERS = 3
SAMPLES = 200
SIZE = 10240


def run_dds(level: QosLevel, config: SpindleConfig) -> float:
    """One publisher, SUBSCRIBERS subscribers, 10 KB Sequence samples."""
    domain = DdsDomain(1 + SUBSCRIBERS, config=config)
    topic = domain.create_topic(
        "bench", publishers=[0],
        subscribers=list(range(1, 1 + SUBSCRIBERS)),
        qos=QosProfile(level), message_size=SIZE, window=100)
    domain.build()
    readers = [domain.participant(n).create_reader(topic, listener=lambda s: None)
               for n in range(1, 1 + SUBSCRIBERS)]
    writer = domain.participant(0).create_writer(topic)

    def publisher():
        for _ in range(SAMPLES):
            yield from writer.write_sized(SIZE)
        writer.finish()

    domain.spawn(publisher())
    domain.run_to_quiescence(max_time=60.0)
    for reader in readers:
        assert reader.received == SAMPLES
    return domain.topic_throughput(topic)


def bench_fig18_dds_qos(benchmark):
    def experiment():
        out = {}
        for level in QosLevel:
            out[(level, "baseline")] = run_dds(level, SpindleConfig.baseline())
            out[(level, "spindle")] = run_dds(level, SpindleConfig.optimized())
        return out

    results = run_once(benchmark, experiment)
    rows = []
    for level in QosLevel:
        base = results[(level, "baseline")]
        spindle = results[(level, "spindle")]
        rows.append([level.name.lower(), gbps(base), gbps(spindle),
                     f"{spindle / base:.1f}x"])
    text = figure_banner(
        "Figure 18", f"DDS, 1 publisher / {SUBSCRIBERS} subscribers, "
        "10 KB Sequence samples",
        "Spindle wins at every QoS; unordered ~= atomic under Spindle; "
        "baseline drops with each added QoS level",
    ) + "\n" + format_table(
        ["QoS", "baseline DDS", "Spindle DDS", "speedup"], rows)
    emit("fig18_dds_qos", text)

    for level in QosLevel:
        assert results[(level, "spindle")] > results[(level, "baseline")]
    spindle_unordered = results[(QosLevel.UNORDERED, "spindle")]
    spindle_atomic = results[(QosLevel.ATOMIC, "spindle")]
    assert abs(spindle_unordered - spindle_atomic) < 0.4 * spindle_atomic
    # Storage QoS levels cost progressively more under Spindle.
    assert (results[(QosLevel.LOGGED, "spindle")]
            < results[(QosLevel.VOLATILE, "spindle")]
            <= spindle_atomic * 1.05)
    benchmark.extra_info["spindle_atomic_gbps"] = spindle_atomic / 1e9

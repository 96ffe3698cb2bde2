"""Tests for the DDS layer: DCPS entities, QoS levels, storage, types."""

import pytest

from repro.core.config import SpindleConfig
from repro.core.persistence import StorageModel
from repro.dds import (
    DdsDomain,
    QosLevel,
    QosProfile,
    SequenceType,
    StructType,
    Topic,
)


def publisher_process(writer, samples):
    for sample in samples:
        yield from writer.write(sample)
    writer.finish()


def build_domain(n=4, qos=None, message_size=1024, window=10,
                 publishers=None, subscribers=None):
    domain = DdsDomain(n, config=SpindleConfig.optimized())
    topic = domain.create_topic(
        "telemetry",
        publishers=publishers if publishers is not None else [0],
        subscribers=subscribers if subscribers is not None else list(range(1, n)),
        qos=qos if qos is not None else QosProfile(QosLevel.ATOMIC),
        message_size=message_size,
        window=window,
    )
    domain.build()
    return domain, topic


class TestQosModel:
    def test_levels_ordered_by_guarantee(self):
        assert not QosLevel.UNORDERED.ordered
        assert QosLevel.ATOMIC.ordered
        assert QosLevel.VOLATILE.stores
        assert QosLevel.LOGGED.stores
        assert not QosLevel.ATOMIC.stores

    def test_history_depth_validation(self):
        QosProfile(QosLevel.VOLATILE, history_depth=10)
        with pytest.raises(ValueError):
            QosProfile(QosLevel.ATOMIC, history_depth=10)
        with pytest.raises(ValueError):
            QosProfile(QosLevel.VOLATILE, history_depth=0)


class TestTopics:
    def test_topic_ids_are_8bit(self):
        with pytest.raises(ValueError):
            Topic(256, "x", SequenceType(), QosProfile(), (0,), (1,))

    def test_domain_enforces_topic_budget(self):
        domain = DdsDomain(2)
        for i in range(256):
            domain.create_topic(f"t{i}", publishers=[0], subscribers=[1],
                                window=2, message_size=16)
        with pytest.raises(ValueError, match="8-bit"):
            domain.create_topic("overflow", publishers=[0], subscribers=[1])

    def test_duplicate_names_rejected(self):
        domain = DdsDomain(2)
        domain.create_topic("t", publishers=[0], subscribers=[1])
        with pytest.raises(ValueError, match="duplicate"):
            domain.create_topic("t", publishers=[0], subscribers=[1])

    def test_participants_are_union(self):
        domain = DdsDomain(5)
        topic = domain.create_topic("t", publishers=[3, 0], subscribers=[2, 3])
        assert topic.participants == (0, 2, 3)

    def test_topic_maps_to_subgroup_with_publishers_as_senders(self):
        domain, topic = build_domain(4)
        sg = domain.subgroup_of(topic)
        spec = domain.cluster.view.subgroups[sg]
        assert spec.senders == (0,)
        assert spec.members == (0, 1, 2, 3)


class TestPubSub:
    def test_single_publisher_samples_reach_all_subscribers(self):
        domain, topic = build_domain(4)
        readers = [domain.participant(n).create_reader(topic)
                   for n in (1, 2, 3)]
        samples = [b"sample-%03d" % k for k in range(30)]
        writer = domain.participant(0).create_writer(topic)
        domain.spawn(publisher_process(writer, samples))
        domain.run_to_quiescence()
        for reader in readers:
            got = [s.value for s in reader.take()]
            assert got == samples

    def test_listener_callback_invoked(self):
        domain, topic = build_domain(3)
        seen = []
        domain.participant(1).create_reader(topic,
                                            listener=lambda s: seen.append(s))
        writer = domain.participant(0).create_writer(topic)
        domain.spawn(publisher_process(writer, [b"a", b"b"]))
        domain.run_to_quiescence()
        assert [s.value for s in seen] == [b"a", b"b"]
        assert all(s.publisher == 0 for s in seen)

    def test_multiple_publishers_total_order(self):
        domain = DdsDomain(4, config=SpindleConfig.optimized())
        topic = domain.create_topic("multi", publishers=[0, 1],
                                    subscribers=[2, 3], window=8,
                                    message_size=256)
        domain.build()
        logs = {}
        for n in (2, 3):
            logs[n] = []
            domain.participant(n).create_reader(
                topic, listener=lambda s, n=n: logs[n].append((s.seq, s.value)))
        for p in (0, 1):
            writer = domain.participant(p).create_writer(topic)
            domain.spawn(publisher_process(
                writer, [b"%d:%d" % (p, k) for k in range(20)]))
        domain.run_to_quiescence()
        assert logs[2] == logs[3]
        assert len(logs[2]) == 40

    def test_non_publisher_cannot_write(self):
        domain, topic = build_domain(3)
        with pytest.raises(ValueError, match="not a publisher"):
            domain.participant(1).create_writer(topic)

    def test_non_participant_cannot_read(self):
        domain = DdsDomain(4)
        topic = domain.create_topic("t", publishers=[0], subscribers=[1])
        domain.build()
        with pytest.raises(ValueError, match="does not participate"):
            domain.participant(3).create_reader(topic)

    def test_oversized_sample_rejected(self):
        domain, topic = build_domain(3, message_size=16)
        writer = domain.participant(0).create_writer(topic)
        with pytest.raises(ValueError, match="exceeds topic max"):
            list(writer.write(b"x" * 17))

    def test_multiple_topics_isolated(self):
        domain = DdsDomain(3, config=SpindleConfig.optimized())
        alt = domain.create_topic("altitude", publishers=[0],
                                  subscribers=[1, 2], window=4,
                                  message_size=64)
        spd = domain.create_topic("speed", publishers=[1],
                                  subscribers=[0, 2], window=4,
                                  message_size=64)
        domain.build()
        got = {"altitude": [], "speed": []}
        domain.participant(2).create_reader(
            alt, listener=lambda s: got["altitude"].append(s.value))
        domain.participant(2).create_reader(
            spd, listener=lambda s: got["speed"].append(s.value))
        wa = domain.participant(0).create_writer(alt)
        ws = domain.participant(1).create_writer(spd)
        domain.spawn(publisher_process(wa, [b"alt%d" % k for k in range(5)]))
        domain.spawn(publisher_process(ws, [b"spd%d" % k for k in range(5)]))
        domain.run_to_quiescence()
        assert got["altitude"] == [b"alt%d" % k for k in range(5)]
        assert got["speed"] == [b"spd%d" % k for k in range(5)]


class TestQosBehaviour:
    def test_unordered_delivers_everything(self):
        domain, topic = build_domain(
            4, qos=QosProfile(QosLevel.UNORDERED), window=8)
        reader = domain.participant(1).create_reader(topic)
        writer = domain.participant(0).create_writer(topic)
        domain.spawn(publisher_process(
            writer, [b"%d" % k for k in range(40)]))
        domain.run_to_quiescence()
        assert reader.received == 40

    def test_volatile_store_retains_history(self):
        domain, topic = build_domain(
            3, qos=QosProfile(QosLevel.VOLATILE))
        reader = domain.participant(1).create_reader(topic)
        writer = domain.participant(0).create_writer(topic)
        domain.spawn(publisher_process(writer, [b"s%d" % k for k in range(10)]))
        domain.run_to_quiescence()
        assert len(reader.store) == 10
        history = reader.store.snapshot()
        assert [d for (_, d) in history] == [b"s%d" % k for k in range(10)]

    def test_volatile_history_depth_bounds_store(self):
        domain, topic = build_domain(
            3, qos=QosProfile(QosLevel.VOLATILE, history_depth=4))
        reader = domain.participant(1).create_reader(topic)
        writer = domain.participant(0).create_writer(topic)
        domain.spawn(publisher_process(writer, [b"s%d" % k for k in range(10)]))
        domain.run_to_quiescence()
        assert len(reader.store) == 4
        assert reader.store.total_stored == 10
        assert [d for (_, d) in reader.store.snapshot()] == [
            b"s6", b"s7", b"s8", b"s9"]

    def test_logged_qos_appends_to_ssd(self):
        domain, topic = build_domain(3, qos=QosProfile(QosLevel.LOGGED))
        reader = domain.participant(1).create_reader(topic)
        writer = domain.participant(0).create_writer(topic)
        domain.spawn(publisher_process(writer, [b"L%d" % k for k in range(8)]))
        domain.run_to_quiescence()
        log = domain.ssd_log(1)
        assert len(log) == 8
        assert [d for (_, d) in log.replay(topic.topic_id)] == [
            b"L%d" % k for k in range(8)]

    def test_qos_throughput_ladder(self):
        """Fig. 18 shape for Spindle-DDS: unordered ≈ atomic, volatile a
        bit lower, logged clearly lower."""
        def thr(level):
            domain = DdsDomain(4, config=SpindleConfig.optimized())
            topic = domain.create_topic(
                "bench", publishers=[0], subscribers=[1, 2, 3],
                qos=QosProfile(level), message_size=10240, window=50)
            domain.build()
            writer = domain.participant(0).create_writer(topic)

            def pub():
                for _ in range(150):
                    yield from writer.write_sized(10240)
                writer.finish()

            domain.spawn(pub())
            domain.run_to_quiescence(max_time=30.0)
            return domain.topic_throughput(topic)

        unordered = thr(QosLevel.UNORDERED)
        atomic = thr(QosLevel.ATOMIC)
        volatile = thr(QosLevel.VOLATILE)
        logged = thr(QosLevel.LOGGED)
        assert unordered == pytest.approx(atomic, rel=0.35)
        assert volatile < atomic
        assert logged < volatile


class TestDataTypes:
    def test_sequence_roundtrip(self):
        t = SequenceType()
        assert t.deserialize(t.serialize(b"abc")) == b"abc"
        with pytest.raises(TypeError):
            t.serialize("not bytes")

    def test_struct_roundtrip(self):
        t = StructType("Position", [("lat", "d"), ("lon", "d"), ("alt", "f")])
        value = {"lat": 48.85, "lon": 2.35, "alt": 1500.0}
        out = t.deserialize(t.serialize(value))
        assert out["lat"] == pytest.approx(48.85)
        assert out["alt"] == pytest.approx(1500.0)
        assert t.size == 20

    def test_struct_missing_field(self):
        t = StructType("P", [("x", "i")])
        with pytest.raises(ValueError, match="missing field"):
            t.serialize({})

    def test_struct_type_end_to_end(self):
        t = StructType("Reading", [("id", "i"), ("value", "d")])
        domain = DdsDomain(3, config=SpindleConfig.optimized())
        topic = domain.create_topic("readings", publishers=[0],
                                    subscribers=[1, 2], data_type=t,
                                    message_size=64, window=4)
        domain.build()
        seen = []
        domain.participant(1).create_reader(
            topic, listener=lambda s: seen.append(s.value))
        writer = domain.participant(0).create_writer(topic)
        domain.spawn(publisher_process(
            writer, [{"id": k, "value": k * 1.5} for k in range(5)]))
        domain.run_to_quiescence()
        assert [v["id"] for v in seen] == list(range(5))
        assert seen[3]["value"] == pytest.approx(4.5)


class TestSsdModel:
    def test_append_time_scales_with_size(self):
        ssd = StorageModel()
        assert ssd.append_time(10240) > ssd.append_time(64)
        assert ssd.append_time(10240) == pytest.approx(
            ssd.append_base + 10240 / ssd.write_bandwidth)

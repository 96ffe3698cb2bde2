"""Edge-case tests for DDS storage, samples and transports."""

import pytest

from repro.core.config import SpindleConfig
from repro.dds import (
    ClientTransport,
    DdsDomain,
    QosLevel,
    QosProfile,
    SsdLog,
    VolatileStore,
)
from repro.sim.units import gb_per_s, us


class TestVolatileStore:
    def test_unbounded_by_default(self):
        store = VolatileStore()
        for i in range(1000):
            store.store(i, b"x")
        assert len(store) == 1000

    def test_snapshot_is_a_copy(self):
        store = VolatileStore()
        store.store(0, b"a")
        snap = store.snapshot()
        store.store(1, b"b")
        assert snap == [(0, b"a")]

    def test_total_stored_counts_evictions(self):
        store = VolatileStore(history_depth=2)
        for i in range(5):
            store.store(i, b"x")
        assert len(store) == 2
        assert store.total_stored == 5


class TestSsdLog:
    def test_replay_filters_by_topic(self):
        log = SsdLog()
        log.append(1, 0, b"a")
        log.append(2, 1, b"b")
        log.append(1, 2, b"c")
        assert log.replay(1) == [(0, b"a"), (2, b"c")]
        assert log.replay(9) == []
        assert len(log) == 3
        assert log.total_bytes == 3

    def test_none_payload_counts_zero_bytes(self):
        log = SsdLog()
        log.append(0, 0, None)
        assert log.total_bytes == 0


class TestCustomTransport:
    def test_custom_transport_times(self):
        t = ClientTransport("sat-link", latency=us(500),
                            bandwidth=gb_per_s(0.01),
                            per_message_cpu=us(5))
        assert t.transfer_time(10_000) == pytest.approx(
            us(500) + 10_000 / 0.01e9)

    def test_slow_transport_end_to_end(self):
        from repro.dds import ExternalClient

        domain = DdsDomain(2, config=SpindleConfig.optimized())
        topic = domain.create_topic("t", publishers=[0], subscribers=[1],
                                    message_size=128, window=4)
        domain.build()
        reader = domain.participant(1).create_reader(topic)
        slow = ClientTransport("slow", latency=us(1000),
                               bandwidth=gb_per_s(0.001),
                               per_message_cpu=us(10))
        client = ExternalClient(domain, relay_node=0, transport=slow)
        domain.spawn(client.publisher(topic, [b"x" * 100]))
        domain.run_to_quiescence(max_time=60.0)
        assert reader.received == 1
        # The sample could not have arrived before the link latency.
        stats = domain.cluster.group(1).stats(domain.subgroup_of(topic))
        assert stats.first_delivery_time > us(1000)


class TestSampleMetadata:
    def test_sample_repr_and_fields(self):
        domain = DdsDomain(2, config=SpindleConfig.optimized())
        topic = domain.create_topic("alt", publishers=[0], subscribers=[1],
                                    message_size=64, window=4)
        domain.build()
        seen = []
        domain.participant(1).create_reader(topic, listener=seen.append)
        writer = domain.participant(0).create_writer(topic)

        def pub():
            yield from writer.write(b"hello")
            writer.finish()

        domain.spawn(pub())
        domain.run_to_quiescence()
        sample = seen[0]
        assert sample.publisher == 0
        assert sample.size == 5
        assert "alt" in repr(sample)

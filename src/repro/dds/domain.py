"""The DDS domain: DCPS entities mapped onto Derecho subgroups.

Mirrors the paper's DDS prototype (§4.6): one Derecho top-level group
contains all publishers and subscribers; each topic becomes a subgroup
whose members are exactly the processes that publish or subscribe to
that topic, with the publishers as the designated senders. Messages are
constructed in place in Derecho-provided slots and marked ready to send.

    domain = DdsDomain(num_nodes=4, config=SpindleConfig.optimized())
    topic = domain.create_topic("altitude", publishers=[0],
                                subscribers=[1, 2, 3],
                                qos=QosProfile(QosLevel.ATOMIC))
    domain.build()
    writer = domain.participant(0).create_writer(topic)
    reader = domain.participant(1).create_reader(topic, listener=...)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.config import SpindleConfig, TimingModel
from ..core.persistence import StorageModel
from ..rdma.latency import LatencyModel
from ..workloads.cluster import Cluster
from .marshal import DataType, SequenceType
from .qos import QosLevel, QosProfile
from .storage import SsdLog, VolatileStore
from .topic import MAX_TOPICS, Topic

__all__ = ["DdsDomain", "DomainParticipant", "DataWriter", "DataReader", "Sample"]


class Sample:
    """One received sample, as handed to reader listeners."""

    __slots__ = ("topic", "publisher", "seq", "value", "size")

    def __init__(self, topic: Topic, publisher: int, seq: int,
                 value: Any, size: int):
        self.topic = topic
        self.publisher = publisher
        self.seq = seq
        self.value = value
        self.size = size

    def __repr__(self) -> str:
        return (f"<Sample topic={self.topic.name!r} seq={self.seq} "
                f"from={self.publisher} {self.size}B>")


class DdsDomain:
    """Cluster-level DDS builder and registry."""

    def __init__(
        self,
        num_nodes: int,
        config: Optional[SpindleConfig] = None,
        timing: Optional[TimingModel] = None,
        latency: Optional[LatencyModel] = None,
        ssd: Optional[StorageModel] = None,
        seed: int = 0,
    ):
        self.cluster = Cluster(num_nodes, config=config, timing=timing,
                               latency=latency, seed=seed)
        self.ssd_model = ssd if ssd is not None else StorageModel()
        self.topics: Dict[int, Topic] = {}
        self.topics_by_name: Dict[str, Topic] = {}
        self._topic_subgroup: Dict[int, int] = {}
        self._participants: Dict[int, "DomainParticipant"] = {}
        self.ssd_logs: Dict[int, SsdLog] = {}
        self._built = False

    # ----------------------------------------------------------------- setup

    def create_topic(
        self,
        name: str,
        publishers: Sequence[int],
        subscribers: Sequence[int],
        data_type: Optional[DataType] = None,
        qos: Optional[QosProfile] = None,
        message_size: int = 10240,
        window: int = 100,
    ) -> Topic:
        """Declare a topic (before :meth:`build`)."""
        if self._built:
            raise RuntimeError("domain already built")
        if name in self.topics_by_name:
            raise ValueError(f"duplicate topic name {name!r}")
        if len(self.topics) >= MAX_TOPICS:
            raise ValueError("8-bit topic space exhausted")
        topic = Topic(
            topic_id=len(self.topics),
            name=name,
            data_type=data_type if data_type is not None else SequenceType(),
            qos=qos if qos is not None else QosProfile(),
            publishers=tuple(publishers),
            subscribers=tuple(subscribers),
            message_size=message_size,
            window=window,
        )
        mode = "unordered" if topic.qos.level is QosLevel.UNORDERED else "atomic"
        spec = self.cluster.add_subgroup(
            members=topic.participants,
            senders=topic.publishers,
            window=window,
            message_size=message_size,
            delivery_mode=mode,
        )
        self.topics[topic.topic_id] = topic
        self.topics_by_name[name] = topic
        self._topic_subgroup[topic.topic_id] = spec.subgroup_id
        return topic

    def build(self) -> "DdsDomain":
        """Build the underlying cluster and wire QoS delivery costs."""
        self.cluster.build()
        timing = self.cluster.timing
        for topic in self.topics.values():
            level = topic.qos.level
            if not level.stores:
                continue
            if level is QosLevel.VOLATILE:
                cost = timing.memcpy_time
            else:  # LOGGED: copy into the store, then append to SSD
                cost = lambda size, t=timing: (
                    t.memcpy_time(size) + self.ssd_model.append_time(size)
                )
            sg = self._topic_subgroup[topic.topic_id]
            for node_id in topic.participants:
                self.cluster.mc(node_id, sg).extra_delivery_cost = cost
        self._built = True
        return self

    # ------------------------------------------------------------------ access

    def participant(self, node_id: int) -> "DomainParticipant":
        """The (cached) participant endpoint on one node."""
        if node_id not in self._participants:
            self._participants[node_id] = DomainParticipant(self, node_id)
        return self._participants[node_id]

    def subgroup_of(self, topic: Topic) -> int:
        return self._topic_subgroup[topic.topic_id]

    def ssd_log(self, node_id: int) -> SsdLog:
        """The node's simulated SSD log (created on first use)."""
        if node_id not in self.ssd_logs:
            self.ssd_logs[node_id] = SsdLog(self.ssd_model)
        return self.ssd_logs[node_id]

    # -------------------------------------------------------------- running

    @property
    def sim(self):
        return self.cluster.sim

    def spawn(self, generator, name: str = "dds-app"):
        return self.cluster.spawn_sender(generator, name=name)

    def run(self, until: Optional[float] = None) -> float:
        return self.cluster.run(until=until)

    def run_to_quiescence(self, max_time: float = 5.0) -> float:
        return self.cluster.run_to_quiescence(max_time=max_time)

    # -------------------------------------------------------------- metrics

    def topic_throughput(self, topic: Topic) -> float:
        """Delivered bytes/second averaged over the topic's members."""
        return self.cluster.aggregate_throughput(self.subgroup_of(topic))

    def topic_latency(self, topic: Topic) -> float:
        return self.cluster.mean_latency(self.subgroup_of(topic))


class DomainParticipant:
    """One node's DCPS endpoint factory."""

    def __init__(self, domain: DdsDomain, node_id: int):
        if node_id not in domain.cluster.node_ids:
            raise ValueError(f"unknown node {node_id}")
        self.domain = domain
        self.node_id = node_id

    def create_writer(self, topic: Topic) -> "DataWriter":
        """A writer for a topic this node publishes."""
        if self.node_id not in topic.publishers:
            raise ValueError(
                f"node {self.node_id} is not a publisher of {topic.name!r}"
            )
        return DataWriter(self.domain, topic, self.node_id)

    def create_reader(
        self,
        topic: Topic,
        listener: Optional[Callable[[Sample], None]] = None,
    ) -> "DataReader":
        """A reader for a topic this node subscribes to (publishers may
        also read their own topic — they are subgroup members)."""
        if self.node_id not in topic.participants:
            raise ValueError(
                f"node {self.node_id} does not participate in {topic.name!r}"
            )
        return DataReader(self.domain, topic, self.node_id, listener)


class DataWriter:
    """DCPS DataWriter: publishes samples into the topic's subgroup."""

    def __init__(self, domain: DdsDomain, topic: Topic, node_id: int):
        self.domain = domain
        self.topic = topic
        self.node_id = node_id
        self.mc = domain.cluster.mc(node_id, domain.subgroup_of(topic))
        self.samples_written = 0

    def write(self, value: Any):
        """Publish one sample (a generator for the app's process).

        Marshals the value if the topic's type requires it (charging the
        marshalling copy); Sequence samples go zero-copy.
        """
        data = self.topic.data_type.serialize(value)
        if len(data) > self.topic.message_size:
            raise ValueError(
                f"sample of {len(data)}B exceeds topic max "
                f"{self.topic.message_size}B"
            )
        if self.topic.data_type.needs_marshalling:
            yield self.domain.cluster.timing.memcpy_time(len(data))
        yield from self.mc.send(max(len(data), 1), data)
        self.samples_written += 1

    def write_sized(self, size: int):
        """Publish a timing-only sample of ``size`` bytes (benchmarks)."""
        yield from self.mc.send(size, None)
        self.samples_written += 1

    def finish(self) -> None:
        """Signal that this writer is done (lets the pipeline settle)."""
        self.mc.mark_finished()


class DataReader:
    """DCPS DataReader: receives samples; stores them per the QoS."""

    def __init__(self, domain: DdsDomain, topic: Topic, node_id: int,
                 listener: Optional[Callable[[Sample], None]] = None):
        self.domain = domain
        self.topic = topic
        self.node_id = node_id
        self.listener = listener
        self.received = 0
        self._queue: List[Sample] = []
        self.store: Optional[VolatileStore] = (
            VolatileStore(topic.qos.history_depth)
            if topic.qos.level.stores else None
        )
        group = domain.cluster.group(node_id)
        group.on_delivery(domain.subgroup_of(topic), self._on_delivery)

    def _on_delivery(self, delivery) -> None:
        value = (self.topic.data_type.deserialize(delivery.payload)
                 if delivery.payload is not None else None)
        sample = Sample(self.topic, delivery.sender, delivery.seq,
                        value, delivery.size)
        self.received += 1
        if self.store is not None:
            self.store.store(delivery.seq, delivery.payload)
        if self.topic.qos.level is QosLevel.LOGGED:
            self.domain.ssd_log(self.node_id).append(
                self.topic.topic_id, delivery.seq, delivery.payload
            )
        if self.listener is not None:
            self.listener(sample)
        else:
            self._queue.append(sample)

    def take(self) -> List[Sample]:
        """Drain and return queued samples (polling-style access)."""
        samples, self._queue = self._queue, []
        return samples

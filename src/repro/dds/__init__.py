"""OMG-DDS layer over Derecho+Spindle (paper §4.6).

Data-Centric Publish-Subscribe mapped onto Derecho subgroups: one topic
per subgroup, publishers as designated senders, four QoS levels
(unordered, atomic multicast, volatile storage, logged storage).
"""

from .domain import DataReader, DataWriter, DdsDomain, DomainParticipant, Sample
from .marshal import DataType, SequenceType, StructType
from .qos import QosLevel, QosProfile
from .storage import SsdLog, VolatileStore
from .topic import MAX_TOPICS, Topic

__all__ = [
    "DdsDomain",
    "DomainParticipant",
    "DataWriter",
    "DataReader",
    "Sample",
    "DataType",
    "SequenceType",
    "StructType",
    "QosLevel",
    "QosProfile",
    "VolatileStore",
    "SsdLog",
    "Topic",
    "MAX_TOPICS",
]

from .external import (
    ClientTransport,
    ExternalClient,
    RDMA_TRANSPORT,
    TCP_TRANSPORT,
)

__all__ += [
    "ExternalClient",
    "ClientTransport",
    "TCP_TRANSPORT",
    "RDMA_TRANSPORT",
]

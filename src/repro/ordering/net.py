"""Message transport for quorum backends, over the simulated RDMA NICs.

Paxos is message-passing, not shared-memory, but it must run on the
*same* fabric as the SST so the comparison is honest: every protocol
message is serialized to real bytes and carried by one
:meth:`~repro.rdma.nic.QueuePair.post_write` into a per-peer landing
region — which means egress serialization, the Figure-1 latency curve,
per-QP FIFO ordering and every fault-plane decision (partition, loss,
jitter, crash) apply to Paxos traffic exactly as they do to SST pushes.

The receiver decodes the message from the write's snapshot in the
``on_remote_write`` hook (the landing region is a mailbox, not a ring:
back-to-back writes may overwrite it, but the snapshot is immutable, so
nothing is lost). Local sends bypass the fabric — there are no loopback
queue pairs, as on real hardware.

The codec is a small tagged binary format (ints, bytes, None, floats,
nested sequences) so message *size* — which drives the timing model —
tracks content honestly: a batched accept carrying three 10 KB payloads
costs three 10 KB payloads of egress, like the SST slot pushes it is
benchmarked against.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..rdma.memory import ByteRegion, Region, WriteSnapshot

__all__ = ["encode_message", "decode_message", "MessageTransport",
           "wire_transports"]

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_LIST = b"L"

#: Size of each mailbox (landing region) and of the staging buffer; a
#: protocol's batch caps must keep its messages under it.
MAILBOX_BYTES = 1 << 17


def _encode_into(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        out.append(_I64.pack(value))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.append(_F64.pack(value))
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        out.append(_U32.pack(len(value)))
        out.append(bytes(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_TAG_STR)
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, (tuple, list)):
        out.append(_TAG_LIST)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, out)
    else:
        raise TypeError(f"cannot encode {type(value).__name__}: {value!r}")


def encode_message(message: Tuple[Any, ...]) -> bytes:
    """Serialize a protocol message (a nested tuple) to wire bytes."""
    out: List[bytes] = []
    _encode_into(message, out)
    return b"".join(out)


def _decode_from(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos:pos + 1]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag in (_TAG_BYTES, _TAG_STR):
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        raw = data[pos:pos + length]
        return (raw if tag == _TAG_BYTES else raw.decode("utf-8")), pos + length
    if tag == _TAG_LIST:
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return tuple(items), pos
    raise ValueError(f"bad message tag {tag!r} at offset {pos - 1}")


def decode_message(data: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`encode_message`."""
    message, _pos = _decode_from(bytes(data), 0)
    return message


class MessageTransport:
    """One endpoint's mailboxes: a landing region per peer, plus the
    staging buffer its own sends are snapshotted from.

    ``on_message(src, message)`` is invoked from the NIC's remote-write
    hook — implementations should only enqueue and ring a doorbell
    there, and do protocol work on their own simulated thread.
    """

    def __init__(self, fabric, node_id: int, peers, name: str,
                 on_message: Callable[[int, Tuple[Any, ...]], None]):
        self.fabric = fabric
        self.node_id = node_id
        self.node = fabric.nodes[node_id]
        self.name = name
        self.on_message = on_message
        self.messages_sent = 0
        self.messages_received = 0
        self._staging = ByteRegion(MAILBOX_BYTES, name=f"{name}.out@{node_id}")
        #: peer -> landing region for that peer's messages to us.
        self._mailboxes: Dict[int, ByteRegion] = {}
        self._src_of: Dict[Region, int] = {}
        #: peer -> rkey of *our* mailbox at that peer (set by wiring).
        self._remote_keys: Dict[int, int] = {}
        for src in peers:
            if src == node_id:
                continue
            region = ByteRegion(MAILBOX_BYTES,
                                name=f"{name}.in.{src}at{node_id}")
            self.node.register(region)
            self._mailboxes[src] = region
            self._src_of[region] = src
        self.node.on_remote_write.append(self._landed)

    # -------------------------------------------------------------- wiring

    def mailbox_key(self, src: int) -> int:
        """The rkey peer ``src`` must address to reach this node."""
        return self._mailboxes[src].key

    def connect(self, dst: int, remote_key: int) -> None:
        """Learn the rkey of our mailbox at ``dst`` (out-of-band
        exchange, like the SST's wiring step)."""
        self._remote_keys[dst] = remote_key

    # ------------------------------------------------------------- sending

    def send(self, dst: int, message: Tuple[Any, ...]) -> int:
        """Post one message to ``dst``; returns its wire size in bytes.

        Consumes no simulated time itself (the caller's thread charges
        the post CPU, as for every ``post_write``); the bytes then pay
        egress occupancy + wire latency like any other RDMA write.
        """
        if dst == self.node_id:
            raise ValueError("no loopback queue pairs; deliver locally")
        data = encode_message(message)
        if len(data) > MAILBOX_BYTES:
            raise ValueError(
                f"message of {len(data)}B exceeds the {MAILBOX_BYTES}B "
                f"mailbox (batch caps must keep messages under it)")
        # Staging is a scratch buffer, not an SST mirror: the write is
        # snapshotted by post_write before reuse, so no monotonicity
        # contract applies.
        self._staging.write_local(0, data)  # spindle-lint: allow[sst-monotonic-write]
        qp = self.fabric.queue_pair(self.node_id, dst)
        qp.post_write(self._staging, 0, self._remote_keys[dst], 0, len(data))
        self.messages_sent += 1
        return len(data)

    # ------------------------------------------------------------ receiving

    def _landed(self, region: Region, snap: WriteSnapshot) -> None:
        src = self._src_of.get(region)
        if src is None:
            return
        self.messages_received += 1
        self.on_message(src, decode_message(snap.data))

    # ------------------------------------------------------------- teardown

    def teardown(self) -> None:
        """Deregister the mailboxes and stop listening (epoch end)."""
        self.node.on_remote_write.remove(self._landed)
        for region in self._mailboxes.values():
            if region.key != -1 and region.key in self.node.regions:
                self.node.deregister(region.key)
        self._mailboxes.clear()
        self._src_of.clear()


def wire_transports(transports: Dict[int, MessageTransport]) -> None:
    """Exchange mailbox rkeys among a set of peers (out-of-band, once
    per view, mirroring ``wire_ssts``)."""
    for src, transport in transports.items():
        for dst, peer in transports.items():
            if src == dst:
                continue
            transport.connect(dst, peer.mailbox_key(src))

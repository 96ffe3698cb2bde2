"""Chunked state transfer over the simulated RDMA fabric.

A rejoining member holds a durable *prefix* of a subgroup's log (what its
SSD persisted before the crash) and must fetch the *delta* — everything
the survivors appended while it was down — before it can be admitted at
the next epoch boundary (paper §2.1: joins happen only between views).
Related RDMA multicast systems treat exactly this receiver-recovery path
as first-class (Gleam's NACK/retransmission plane, PAPERS.md); here it is
a point-to-point bulk transfer because the joiner is not yet a member and
cannot appear in any SST.

The protocol is deliberately boring and therefore auditable:

* the source serializes the delta (:func:`encode_entries`) and ships it
  in fixed-size **chunks**, each framed with a 16-byte header
  (transfer id, chunk index, payload length, total chunks) so the
  destination can reassemble out of an RDMA landing buffer;
* every chunk is covered by a **per-chunk timeout**; a lost or late
  chunk (source crashed, partition cut, injected loss) triggers bounded
  **exponential backoff with seeded jitter** and a retransmit;
* after ``GIVEUP_ATTEMPTS`` consecutive failures on one source the
  transfer **fails over** to the next live source and restarts from
  chunk 0 (survivor logs are prefix-consistent but not length-identical,
  so a mid-stream splice would be unsound);
* the reassembled bytes are validated with **CRC-32** against the
  source-side checksum before anything is applied.

Chunks ride real :class:`~repro.rdma.nic.QueuePair` writes, so the fault
plane's partitions/jitter/crash windows apply to recovery traffic exactly
as they do to protocol traffic — a transfer stalls for the same reasons a
multicast would. Deterministic tests can additionally force timeouts via
``TransferConfig.drop_chunks`` (the first attempt of the named chunk is
swallowed before it reaches the NIC).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..rdma.fabric import RdmaFabric
from ..rdma.memory import ByteRegion, Region, WriteSnapshot
from ..sim.engine import Simulator
from ..sim.sync import Event
from ..sim.units import us

__all__ = [
    "TransferConfig",
    "TransferOutcome",
    "StateTransfer",
    "encode_entries",
    "decode_entries",
]

# --------------------------------------------------------------------------
# Log-entry codec
# --------------------------------------------------------------------------

#: Per-entry header: seq (i32), sender (i32), payload length (i32,
#: -1 = None payload — control messages persist without a body).
_ENTRY = struct.Struct("<iii")

#: Per-chunk frame header: transfer id, chunk index, payload length,
#: total chunk count (all u32).
_CHUNK = struct.Struct("<IIII")

#: First backoff delay; doubles per consecutive failure...
BACKOFF_BASE = us(50.0)
#: ...up to this ceiling on a single delay (bounded exponential).
BACKOFF_CAP = us(800.0)
#: Multiplicative jitter: the delay is scaled by a seeded uniform draw
#: from ``[1, 1 + BACKOFF_JITTER]`` (decorrelates retry storms without
#: breaking determinism — the RNG is seeded per transfer).
BACKOFF_JITTER = 0.25
#: Consecutive timeouts on one source before failing over to the next
#: live source (restarting from chunk 0). Every attempt at a chunk but
#: the last timed out, so this also bounds the attempts per chunk.
GIVEUP_ATTEMPTS = 4
#: CPU cost charged for preparing + posting one chunk.
POST_OVERHEAD = us(1.0)


def encode_entries(entries: Sequence[Tuple[int, int, Optional[bytes]]]) -> bytes:
    """Serialize durable-log entries ``(seq, sender, payload)`` to bytes."""
    parts: List[bytes] = []
    for seq, sender, payload in entries:
        if payload is None:
            parts.append(_ENTRY.pack(seq, sender, -1))
        else:
            parts.append(_ENTRY.pack(seq, sender, len(payload)))
            parts.append(bytes(payload))
    return b"".join(parts)


def decode_entries(data: bytes) -> List[Tuple[int, int, Optional[bytes]]]:
    """Inverse of :func:`encode_entries`; raises ``ValueError`` on a
    truncated or corrupt stream (a failed transfer must not half-apply)."""
    entries: List[Tuple[int, int, Optional[bytes]]] = []
    off = 0
    n = len(data)
    while off < n:
        if off + _ENTRY.size > n:
            raise ValueError("truncated entry header in transfer stream")
        seq, sender, plen = _ENTRY.unpack_from(data, off)
        off += _ENTRY.size
        if plen < 0:
            entries.append((seq, sender, None))
            continue
        if off + plen > n:
            raise ValueError("truncated entry payload in transfer stream")
        entries.append((seq, sender, bytes(data[off:off + plen])))
        off += plen
    return entries


# --------------------------------------------------------------------------
# Configuration and outcome records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferConfig:
    """Knobs of the chunked transfer (docs/RECOVERY.md)."""

    #: Payload bytes per chunk (the frame header rides on top).
    chunk_size: int = 4096
    #: Seconds to wait for a chunk before declaring it lost.
    chunk_timeout: float = us(200.0)
    #: Idle gap inserted between successful chunks (stretches a transfer
    #: across simulated time; lets tests crash the source mid-stream).
    inter_chunk_gap: float = 0.0
    #: Chunk indices whose *first* attempt is swallowed before posting —
    #: a deterministic injected loss that forces the timeout + backoff
    #: path in tests without touching the fault plane.
    drop_chunks: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}")


@dataclass
class TransferOutcome:
    """What one :class:`StateTransfer` run did, for reports and tests."""

    ok: bool = False
    #: Source that ultimately served the full payload (None on failure).
    source: Optional[int] = None
    #: Every source attempted, in order.
    sources_used: List[int] = field(default_factory=list)
    #: The reassembled, checksum-validated bytes (b"" until success).
    data: bytes = b""
    bytes_transferred: int = 0
    chunks: int = 0
    attempts: int = 0
    timeouts: int = 0
    injected_timeouts: int = 0
    backoff_total: float = 0.0
    failovers: int = 0
    checksum_ok: bool = False
    elapsed: float = 0.0
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "source": self.source,
            "sources_used": list(self.sources_used),
            "bytes_transferred": self.bytes_transferred,
            "chunks": self.chunks,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "injected_timeouts": self.injected_timeouts,
            "backoff_total": self.backoff_total,
            "failovers": self.failovers,
            "checksum_ok": self.checksum_ok,
            "elapsed": self.elapsed,
            "error": self.error,
        }


# --------------------------------------------------------------------------
# The transfer protocol
# --------------------------------------------------------------------------

class StateTransfer:
    """One chunked pull of a byte payload from a live source to ``dest``.

    ``fetch_payload(source)`` is called (and re-called on failover) to
    obtain the bytes to ship from that source — the coordinator passes a
    closure that slices the source's durable log past the destination's
    persisted prefix. Returning ``None`` marks the source unusable
    (e.g. its log no longer covers the prefix) and advances failover.

    Drive it from a simulated process::

        st = StateTransfer(sim, fabric, dest=3, sources=[0, 1],
                           fetch_payload=fetch, config=cfg, rng=rng)
        outcome = yield from st.run()
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: RdmaFabric,
        dest: int,
        sources: Sequence[int],
        fetch_payload: Callable[[int], Optional[bytes]],
        config: Optional[TransferConfig] = None,
        rng: Optional[Random] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.dest = dest
        self.sources = list(sources)
        self.fetch_payload = fetch_payload
        self.config = config if config is not None else TransferConfig()
        self.rng = rng if rng is not None else Random(0)
        #: Frame-disambiguation tag (stale chunks from an earlier
        #: transfer generation are ignored by the landing hook). Drawn
        #: from the seeded RNG so runs are bit-deterministic — a
        #: process-wide counter would leak across repeated runs into
        #: the chunk frames (and thus the trace fingerprint).
        self.transfer_id = self.rng.randrange(1, 2 ** 32)
        self.outcome = TransferOutcome()
        # -- landing state (valid while run() is active) ------------------
        self._region: Optional[ByteRegion] = None
        self._received: Dict[int, bytes] = {}
        self._wanted: Optional[Tuple[int, Event]] = None
        self._injected_once: set = set()

    # ------------------------------------------------------------- landing

    def _on_remote_write(self, region: Region, snap: WriteSnapshot) -> None:
        """Dest-NIC hook: parse the chunk frame, stash the payload, and
        wake the waiter if this is the chunk it is blocked on."""
        if region is not self._region:
            return
        data = region.read(0, _CHUNK.size)
        tid, idx, length, _total = _CHUNK.unpack(data)
        if tid != self.transfer_id:
            return  # stale frame from an earlier transfer generation
        if idx not in self._received:
            self._received[idx] = region.read(_CHUNK.size, length)
        if self._wanted is not None:
            want_idx, event = self._wanted
            if want_idx == idx and not event.triggered:
                event.trigger("ok")

    # ----------------------------------------------------------------- run

    def run(self):
        """Generator: performs the transfer, returns a
        :class:`TransferOutcome` (never raises for protocol-level
        failure — ``outcome.ok`` / ``outcome.error`` carry the verdict)."""
        cfg = self.config
        out = self.outcome
        started = self.sim.now
        dest_node = self.fabric.nodes[self.dest]
        self._region = ByteRegion(
            _CHUNK.size + cfg.chunk_size,
            name=f"xfer{self.transfer_id}@{self.dest}",
        )
        dest_key = dest_node.register(self._region)
        dest_node.on_remote_write.append(self._on_remote_write)
        try:
            for source in self.sources:
                src_node = self.fabric.nodes.get(source)
                if src_node is None or not src_node.alive:
                    continue
                if out.sources_used:
                    out.failovers += 1
                out.sources_used.append(source)
                payload = self.fetch_payload(source)
                if payload is None:
                    continue
                done = yield from self._pull_from(source, payload, dest_key)
                if done:
                    out.ok = True
                    out.source = source
                    out.data = payload
                    out.elapsed = self.sim.now - started
                    return out
            if out.error is None:
                out.error = "no live source could serve the transfer"
            out.elapsed = self.sim.now - started
            return out
        finally:
            dest_node.on_remote_write.remove(self._on_remote_write)
            if self._region.key in dest_node.regions:
                dest_node.deregister(self._region.key)
            self._region = None

    def _pull_from(self, source: int, payload: bytes, dest_key: int):
        """Pull the full ``payload`` from one source. Returns True on a
        checksum-validated completion, False to fail over."""
        cfg = self.config
        out = self.outcome
        expected_crc = zlib.crc32(payload)
        total = max(1, -(-len(payload) // cfg.chunk_size))
        # Fresh reassembly per source: survivor logs are prefix-consistent
        # but not length-identical, so chunks from different sources must
        # never be spliced together.
        self._received = {}
        staging = ByteRegion(_CHUNK.size + cfg.chunk_size,
                             name=f"xfer{self.transfer_id}@{source}.src")
        qp = self.fabric.queue_pair(source, self.dest)
        consecutive_failures = 0

        for idx in range(total):
            chunk = payload[idx * cfg.chunk_size:(idx + 1) * cfg.chunk_size]
            frame = _CHUNK.pack(self.transfer_id, idx, len(chunk), total)
            attempt = 0
            while True:
                if idx in self._received:
                    break  # a late retransmit already delivered it
                attempt += 1
                out.attempts += 1
                injected = (idx in cfg.drop_chunks
                            and idx not in self._injected_once)
                if injected:
                    # Deterministic loss injection: swallow the first
                    # attempt of this chunk before it reaches the NIC.
                    self._injected_once.add(idx)
                    out.injected_timeouts += 1
                else:
                    src_node = self.fabric.nodes.get(source)
                    if src_node is None or not src_node.alive:
                        out.error = f"source node {source} died mid-transfer"
                        return False
                    # Bulk staging buffer, not an SST cell: chunk frames
                    # are not monotonic counters.
                    staging.write_local(0, frame + chunk)  # spindle-lint: allow[sst-monotonic-write]
                    yield POST_OVERHEAD
                    qp.post_write(staging, 0, dest_key, 0,
                                  _CHUNK.size + len(chunk))
                event = Event(self.sim,
                              name=f"xfer{self.transfer_id}.c{idx}.a{attempt}")
                self._wanted = (idx, event)
                timer = self.sim.call_after(
                    cfg.chunk_timeout,
                    lambda ev=event: ev.trigger("timeout")
                    if not ev.triggered else None,
                )
                result = yield event
                timer.cancel()
                self._wanted = None
                if result == "ok" or idx in self._received:
                    consecutive_failures = 0
                    break
                # -- timeout ------------------------------------------------
                out.timeouts += 1
                consecutive_failures += 1
                if consecutive_failures >= GIVEUP_ATTEMPTS:
                    out.error = (
                        f"{consecutive_failures} consecutive timeouts from "
                        f"node {source}; failing over"
                    )
                    return False
                delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (attempt - 1)))
                delay *= 1.0 + BACKOFF_JITTER * self.rng.random()
                out.backoff_total += delay
                yield delay
            if cfg.inter_chunk_gap > 0.0 and idx + 1 < total:
                yield cfg.inter_chunk_gap

        assembled = b"".join(self._received[i] for i in range(total))
        out.chunks = total
        out.bytes_transferred = len(assembled)
        out.checksum_ok = (zlib.crc32(assembled) == expected_crc
                           and assembled == payload)
        if not out.checksum_ok:
            out.error = f"checksum mismatch on transfer from node {source}"
            return False
        out.error = None
        return True

"""Sharded RPC-style KV service: per-shard state-machine replication.

Generalizes :class:`repro.apps.kvstore.KvNode` into a sharded service:

* every request is framed with a client-chosen **request id** (rid) so
  retries across rejections, view changes and re-routes are
  **idempotent** — a replica applies each rid at most once and answers
  duplicates with ``"duplicate"`` instead of re-executing them
  (rid ``0`` is the "no dedup" sentinel used by fences and rebalance
  replay, which are idempotent by construction);
* replicas of one subgroup host *all* shards mapped there; per-shard
  reads/checksums/snapshots are projections through the
  :class:`~repro.shard.shardmap.ShardMap`;
* ``sync_read`` stays linearizable *per shard* (a fence through that
  shard's total order — cross-shard reads are not ordered against each
  other, see docs/SHARDING.md for the exact consistency scope), and the
  router optionally serves a **stale-read fast path** from a live
  replica's local state.

Checksums here are crc32 over the canonical item encoding — stable
across processes (``KvNode.checksum`` uses Python's salted ``hash`` and
is only good intra-process), which is what lets the cross-shard
verifier and the chaos artifacts compare digests between runs.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Generator, List, Optional, Tuple

from ..apps.kvstore import OP_CAS, OP_DELETE, OP_FENCE, OP_PUT, KvCommand, KvNode
from ..core.multicast import Delivery
from ..sim.sync import Event
from ..txn.records import (
    W_PUT,
    PrepareRecord,
    SettleRecord,
    decode_txn_record,
    is_txn_payload,
)
from .shardmap import ShardMap

__all__ = ["ShardReplica", "ShardedKv", "frame_request", "unframe_request"]

#: Request-id envelope prepended to every KvCommand payload.
_RID = struct.Struct("<Q")


def frame_request(rid: int, inner: bytes) -> bytes:
    """Prepend the idempotency envelope (rid 0 = no dedup)."""
    return _RID.pack(rid) + inner


def unframe_request(payload: bytes) -> Tuple[int, bytes]:
    """Split a framed payload into (rid, inner KvCommand bytes)."""
    (rid,) = _RID.unpack_from(payload)
    return rid, payload[_RID.size:]


class ShardReplica(KvNode):
    """A KvNode speaking the rid-framed sharded command encoding.

    State transitions happen exactly once per rid: a duplicate delivery
    (a client retry whose original did commit before a view change)
    skips the transition and completes the submitter's waiter with the
    string ``"duplicate"``.
    """

    def __init__(self, mc):
        super().__init__(mc)
        #: rids already applied (never re-executed).
        self.seen_requests: set = set()
        #: deliveries suppressed by rid dedup (retry landed twice).
        self.duplicates_skipped = 0
        # -- transaction state (docs/TRANSACTIONS.md) -----------------------
        # All three maps key by (txn_id, shard), not txn_id alone: a
        # replica can legitimately host two shards of the same txn
        # (co-hashed shards, or a migration landing a second participant
        # shard on this subgroup), and each per-shard slice must be
        # decided and settled independently.
        #: (txn_id, shard) -> PrepareRecord whose writes are buffered
        #: awaiting the settle verdict.
        self.txn_prepared: Dict[Tuple[int, int], PrepareRecord] = {}
        #: key -> txn_id holding the prepared lock (blocks conflicting
        #: prepares until the settle releases it).
        self.txn_locks: Dict[bytes, int] = {}
        #: (txn_id, shard) -> original prepare vote ("yes"/"no");
        #: replayed prepares (retries across view changes) answer with
        #: this instead of re-deciding — exactly-once txn semantics.
        self.txn_verdicts: Dict[Tuple[int, int], str] = {}
        #: (txn_id, shard) -> settle result ("committed"/"aborted"),
        #: same dedup contract for replayed settles.
        self.txn_settled: Dict[Tuple[int, int], str] = {}
        #: txn deliveries answered from verdict memory.
        self.txn_duplicates = 0
        #: (txn_id, shard) -> Event of :meth:`settled`.
        self._settle_events: Dict[Tuple[int, int], Event] = {}

    # ---------------------------------------------------------- replication

    def apply(self, delivery: Delivery) -> None:
        rid, inner = unframe_request(delivery.payload)
        if rid and rid in self.seen_requests:
            self.duplicates_skipped += 1
            # Still consumes one FIFO slot from this sender (the ticket
            # counter must advance exactly once per delivery).
            token = self._next_token(delivery)
            waiter = self._write_waiters.pop(token, None)
            if waiter is not None:
                waiter.trigger("duplicate")
            fence = self._fence_waiters.pop(token, None)
            if fence is not None:
                fence.trigger(None)
            return
        if rid:
            self.seen_requests.add(rid)
        if is_txn_payload(inner):
            outcome = self._apply_txn(inner)
            self.applied += 1
            self.apply_log.append((delivery.seq, inner[0], b"txn"))
            token = self._next_token(delivery)
            waiter = self._write_waiters.pop(token, None)
            if waiter is not None:
                waiter.trigger(outcome)
            return
        super().apply(Delivery(delivery.subgroup_id, delivery.sender,
                               delivery.sender_rank, delivery.seq,
                               inner, delivery.size))

    def apply_command(self, payload: Optional[bytes]) -> None:
        """Recovery replay of a framed durable-log entry (dedup holds
        across replay too: a replayed rid blocks a later live retry)."""
        if payload is None:
            return
        rid, inner = unframe_request(payload)
        if rid:
            if rid in self.seen_requests:
                self.duplicates_skipped += 1
                return
            self.seen_requests.add(rid)
        if is_txn_payload(inner):
            self._apply_txn(inner)
            self.recovered += 1
            return
        super().apply_command(inner)

    def rebuild(self, entries) -> None:
        """Recovery applier body for a rejoining member: forget the
        volatile state the crash lost (the replica object outlives its
        node only as a simulation convenience) and replay the complete
        durable log, oldest first."""
        self.data.clear()
        self.seen_requests.clear()
        self.txn_prepared.clear()
        self.txn_locks.clear()
        self.txn_verdicts.clear()
        self.txn_settled.clear()
        for _seq, _sender, payload in entries:
            self.apply_command(payload)

    # ------------------------------------------------------- txn transitions

    def _apply_txn(self, inner: bytes) -> str:
        """Decide a txn record at its delivery position. Pure state
        transition, deterministic in (state, record) alone, so every
        replica of the subgroup reaches the same verdict at the same
        place in the total order (and durable-log replay reproduces
        it)."""
        rec = decode_txn_record(inner)
        if isinstance(rec, SettleRecord):
            return self._apply_settle(rec)
        return self._apply_prepare(rec)

    def _apply_prepare(self, rec: PrepareRecord) -> str:
        slot = (rec.txn_id, rec.shard)
        if slot in self.txn_verdicts:
            self.txn_duplicates += 1
            return self.txn_verdicts[slot]
        vote = "yes"
        # A key pinned by another prepared-but-unsettled txn may still
        # change: conflicting prepares must wait for that settle (the
        # coordinator retries), so vote no.
        for key in rec.keys():
            holder = self.txn_locks.get(key)
            if holder is not None and holder != rec.txn_id:
                vote = "no"
                break
        if vote == "yes":
            # Authoritative (in-order) OCC validation: every observed
            # value must still match committed state.
            for key, expected in rec.reads:
                if self.data.get(key) != expected:
                    vote = "no"
                    break
        if vote == "yes":
            if rec.auto_commit:
                # No settle will follow: the single-shard fast path
                # applies its writes here (this order *is* the txn's
                # atomicity domain); an OCC validate-only slice has no
                # writes and just certified its reads in-order.
                self._apply_txn_writes(rec.writes)
                self.txn_settled[slot] = "committed"
            else:
                self.txn_prepared[slot] = rec
                for key in rec.write_keys():
                    self.txn_locks[key] = rec.txn_id
        self.txn_verdicts[slot] = vote
        return vote

    def _apply_settle(self, rec: SettleRecord) -> str:
        slot = (rec.txn_id, rec.shard)
        if slot in self.txn_settled:
            self.txn_duplicates += 1
            return self.txn_settled[slot]
        prepared = self.txn_prepared.pop(slot, None)
        if prepared is not None:
            for key in prepared.write_keys():
                if self.txn_locks.get(key) == rec.txn_id:
                    del self.txn_locks[key]
            if rec.commit:
                self._apply_txn_writes(prepared.writes)
        result = "committed" if (rec.commit and prepared is not None) \
            else "aborted"
        self.txn_settled[slot] = result
        event = self._settle_events.pop(slot, None)
        if event is not None:
            event.trigger(result)
        return result

    def settled(self, txn_id: int, shard: int) -> Event:
        """The event this replica's delivery of the ``(txn_id, shard)``
        settle triggers (a ``get`` on a prepared key answers there)."""
        slot = (txn_id, shard)
        event = self._settle_events.get(slot)
        if event is None:
            event = self._settle_events[slot] = Event(
                self.mc.sim, name=f"txn{txn_id}.s{shard}.settled")
        return event

    def _apply_txn_writes(self, writes) -> None:
        for wop, key, value in writes:
            if wop == W_PUT:
                self.data[key] = value
            else:
                self.data.pop(key, None)

    def prepared_txns_touching(self, shard: int,
                               shard_map: ShardMap) -> List[int]:
        """Txn ids prepared-but-unsettled with buffered writes or
        prepared locks on one shard — the rebalance drain barrier."""
        return sorted({
            txn_id for (txn_id, _), rec in self.txn_prepared.items()
            if any(shard_map.shard_of(k) == shard for k in rec.keys())})

    # ------------------------------------------------------------- requests

    def propose_req(self, op: str, rid: int = 0, key: bytes = b"",
                    value: bytes = b"", expected: bytes = b"") -> Generator:
        """Frame one request and propose it **without waiting**: returns
        the :class:`~repro.sim.sync.Event` this replica's delivery of it
        triggers with the op's outcome (see :meth:`KvNode._propose`).

        ``op`` is a router op: ``"put"`` / ``"delete"`` / ``"cas"``;
        ``"get"``, the linearization fence through this subgroup's total
        order (idempotent, always rid 0); anything else is a txn op
        whose ``value`` is the pre-encoded prepare/settle record (rid 0
        — txn records dedup by txn id and answer replays with the
        *original* verdict instead of ``"duplicate"``)."""
        if op == "get":
            return self._propose(frame_request(0, KvCommand.encode(OP_FENCE)),
                                 self._fence_waiters)
        if op == "put":
            inner = KvCommand.encode(OP_PUT, key, value)
        elif op == "delete":
            inner = KvCommand.encode(OP_DELETE, key)
        elif op == "cas":
            inner = KvCommand.encode(OP_CAS, key, value, expected)
        else:
            rid, inner = 0, value
        return self._propose(frame_request(rid, inner), self._write_waiters)

    # Propose-and-wait forms: generators returning the delivery outcome.

    def put_req(self, rid: int, key: bytes, value: bytes) -> Generator:
        return self._wait(self.propose_req("put", rid, key, value))

    def delete_req(self, rid: int, key: bytes) -> Generator:
        return self._wait(self.propose_req("delete", rid, key))

    def cas_req(self, rid: int, key: bytes, expected: bytes,
                value: bytes) -> Generator:
        return self._wait(self.propose_req("cas", rid, key, value, expected))

    def fence_req(self) -> Generator:
        return self._wait(self.propose_req("get"))

    def txn_req(self, record: bytes) -> Generator:
        """Sequence an encoded txn record (prepare/settle) into this
        subgroup's total order; returns the verdict string decided at
        delivery."""
        return self._wait(self.propose_req("txn", value=record))


class ShardedKv:
    """The sharded service: one :class:`ShardReplica` per (subgroup,
    member), rebound across epochs so state survives view changes.

    Created and driven by :func:`repro.shard.build_shard_plane`; the
    router submits through :meth:`gateway_replica` (the subgroup's one
    sender) and reads through :meth:`live_replica` (any live member).
    """

    def __init__(self, cluster, subgroup_ids):
        self.cluster = cluster
        self.subgroup_ids: List[int] = list(subgroup_ids)
        #: (subgroup_id, node_id) -> replica. Replicas persist across
        #: epochs (rebind), so dedup state and data carry over.
        self.replicas: Dict[Tuple[int, int], ShardReplica] = {}

    # ------------------------------------------------------------- wiring

    def attach(self) -> "ShardedKv":
        """Wire replicas for the currently installed view."""
        self._wire(self.cluster.view)
        return self

    def rebind(self, view) -> None:
        """Re-attach every surviving replica to the new epoch's
        multicast endpoints (and create replicas for new members)."""
        self._wire(view)

    def _wire(self, view) -> None:
        if view is None:
            raise RuntimeError("cluster has no installed view; build() first")
        for spec in view.subgroups:
            if spec.subgroup_id not in self.subgroup_ids:
                continue
            for node_id in spec.members:
                group = self.cluster.groups.get(node_id)
                if group is None:
                    continue
                key = (spec.subgroup_id, node_id)
                replica = self.replicas.get(key)
                if replica is None:
                    replica = ShardReplica(group.subgroup(spec.subgroup_id))
                    self.replicas[key] = replica
                else:
                    replica.rebind(group.subgroup(spec.subgroup_id))
                group.on_delivery(spec.subgroup_id, replica.apply)

    # ------------------------------------------------------------ gateways

    def _spec(self, subgroup_id: int):
        for spec in self.cluster.view.subgroups:
            if spec.subgroup_id == subgroup_id:
                return spec
        raise KeyError(f"subgroup {subgroup_id} not in installed view")

    def gateway(self, subgroup_id: int) -> int:
        """The node this subgroup's requests are executed on: its
        designated sender. Raises ``RuntimeError`` in the failover gap —
        the sender has crashed and the view that promotes a successor
        is not installed yet."""
        (sender,) = self._spec(subgroup_id).senders
        if sender not in self.cluster.live_nodes():
            raise RuntimeError(
                f"subgroup {subgroup_id} has no gateway: sender {sender} "
                f"is down and no successor view is installed yet")
        return sender

    def gateway_replica(self, subgroup_id: int) -> ShardReplica:
        return self.replicas[(subgroup_id, self.gateway(subgroup_id))]

    def live_replica(self, subgroup_id: int) -> ShardReplica:
        """The first live member's replica: where reads and audits go.
        Every member holds the subgroup's state, so unlike
        :meth:`gateway_replica` this survives the failover gap (and is
        the gateway whenever the gateway is up: it is the first
        member)."""
        live = self.cluster.live_nodes()
        for node in self._spec(subgroup_id).members:
            if node in live:
                return self.replicas[(subgroup_id, node)]
        raise RuntimeError(f"subgroup {subgroup_id} has no live member")

    def replica(self, subgroup_id: int, node_id: int) -> ShardReplica:
        return self.replicas[(subgroup_id, node_id)]

    # ------------------------------------------------- per-shard projections

    def shard_items(self, shard: int, shard_map: ShardMap,
                    node_id: Optional[int] = None
                    ) -> List[Tuple[bytes, bytes]]:
        """Sorted (key, value) pairs of one shard, read from the
        hosting subgroup's first live member (or an explicit one)."""
        sg = shard_map.subgroup_of(shard)
        replica = (self.replicas[(sg, node_id)] if node_id is not None
                   else self.live_replica(sg))
        return sorted(
            (k, v) for k, v in replica.data.items()
            if shard_map.shard_of(k) == shard
        )

    def shard_checksum(self, shard: int, shard_map: ShardMap,
                       node_id: Optional[int] = None) -> int:
        """crc32 over the canonical item encoding of one shard —
        process-stable, so it can be compared across runs and shipped
        in chaos artifacts."""
        h = 0
        for key, value in self.shard_items(shard, shard_map, node_id):
            h = zlib.crc32(struct.pack("<HI", len(key), len(value)), h)
            h = zlib.crc32(key, h)
            h = zlib.crc32(value, h)
        return h

    def shard_snapshot_entries(self, shard: int, shard_map: ShardMap,
                               node_id: Optional[int] = None
                               ) -> List[Tuple[int, int, bytes]]:
        """The shard's state as (index, 0, framed PUT) entries, ready
        for :func:`repro.recovery.transfer.encode_entries` (the
        rebalance hand-off payload). rid 0: snapshot replay must never
        collide with live request dedup."""
        return [
            (i, 0, frame_request(0, KvCommand.encode(OP_PUT, k, v)))
            for i, (k, v) in enumerate(
                self.shard_items(shard, shard_map, node_id))
        ]

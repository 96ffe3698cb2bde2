"""Live shard migration and the cross-shard checksum verifier.

Moving a shard between subgroups while clients keep arriving is the
rebalancing half of the sharded service plane (docs/SHARDING.md). The
hand-off reuses the recovery plane's chunked, CRC-validated
:class:`~repro.recovery.transfer.StateTransfer` (docs/RECOVERY.md) so
migration traffic rides the same simulated fabric — and the same fault
plane — as protocol traffic.

Hand-off protocol (one migration = one :class:`RebalanceRecord`):

1. **freeze** the shard at the router (queued requests wait; nothing
   new executes against the source subgroup);
2. **drain** requests already executing on the source;
3. **fence** the source subgroup's total order, so every replica's
   state for the shard is identical and final;
4. **snapshot** the shard on the source gateway, record its canonical
   checksum, and **transfer** the encoded entries chunk-by-chunk to the
   target subgroup's gateway (every live source member can serve the
   payload — mid-transfer source-member crashes fail over);
5. **replay** the entries through the *target* subgroup's multicast
   (rid 0: idempotent by construction), so every target replica
   installs the shard through its own total order — streamed through
   the ring, with one wait for the last ticket, not one per key;
6. verify **checksum agreement**: each target replica's shard checksum
   must equal the source's pre-transfer checksum;
7. **commit**: install the updated map (router re-routes the queued
   requests), unfreeze, and delete the source's copy.

The map flip happens *before* the source delete, so a stale read can
never observe the window where neither side holds the shard.

:class:`ShardVerifier` is the rebalance-plane counterpart of
``recovery/verify.py``: at quiescence it audits (a) checksum agreement
across every hosting replica of every shard and (b) placement
conformance — no replica holds a key whose shard lives elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import List, Optional, Tuple

from ..apps.kvstore import OP_PUT, KvCommand
from ..recovery.transfer import (
    StateTransfer,
    TransferConfig,
    decode_entries,
    encode_entries,
)
from .service import unframe_request

__all__ = ["RebalanceRecord", "Rebalancer", "ShardVerifier",
           "ShardAuditReport"]


@dataclass
class RebalanceRecord:
    """Audit record of one shard migration."""

    shard: int
    source_subgroup: int
    target_subgroup: int
    ok: bool = False
    keys_moved: int = 0
    bytes_moved: int = 0
    chunks: int = 0
    crc_ok: bool = False
    checksum_agree: bool = False
    source_checksum: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    map_version: int = -1
    #: Poll rounds spent waiting out prepared-but-unsettled txns
    #: before the fence (step 2b, docs/TRANSACTIONS.md).
    prepared_waits: int = 0
    error: Optional[str] = None
    transfer: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "source_subgroup": self.source_subgroup,
            "target_subgroup": self.target_subgroup,
            "ok": self.ok,
            "keys_moved": self.keys_moved,
            "bytes_moved": self.bytes_moved,
            "chunks": self.chunks,
            "crc_ok": self.crc_ok,
            "checksum_agree": self.checksum_agree,
            "source_checksum": self.source_checksum,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "map_version": self.map_version,
            "prepared_waits": self.prepared_waits,
            "error": self.error,
            "transfer": self.transfer,
        }


class Rebalancer:
    """Executes live shard migrations against a started router."""

    def __init__(self, router, transfer_config: Optional[TransferConfig] = None):
        self.router = router
        self.cluster = router.cluster
        self.service = router.service
        self.transfer_config = (transfer_config if transfer_config is not None
                                else TransferConfig(chunk_size=1024))
        #: Seeded off the cluster seed: transfer ids (and hence chunk
        #: frames and trace fingerprints) replay deterministically.
        self.rng = Random(self.cluster.seed * 1_000_003 + 77)
        self.records: List[RebalanceRecord] = []
        #: Sim-time budget for non-gateway target replicas to deliver
        #: the replayed hand-off writes before step 6 declares a
        #: divergence (delivery skew, see migrate).
        self.settle_timeout: float = 2e-3
        self.settle_poll: float = 25e-6

    # ------------------------------------------------------------ migration

    def migrate(self, shard: int, target_subgroup: int):
        """Generator: move one shard to ``target_subgroup`` live.

        Drive from a simulated process::

            cluster.spawn_sender(rebalancer.migrate(3, target_subgroup=1))

        Returns the :class:`RebalanceRecord` (also appended to
        ``self.records``); failures unfreeze and leave placement
        untouched — the shard stays fully served by the source.
        """
        router = self.router
        service = self.service
        source_sg = router.map.subgroup_of(shard)
        record = RebalanceRecord(shard=shard, source_subgroup=source_sg,
                                 target_subgroup=target_subgroup,
                                 started_at=self.cluster.sim.now)
        self.records.append(record)
        if target_subgroup not in router.map.subgroup_ids:
            record.error = f"target subgroup {target_subgroup} unserviceable"
            record.finished_at = self.cluster.sim.now
            return record
        if target_subgroup == source_sg:
            record.ok = True
            record.checksum_agree = True
            record.crc_ok = True
            record.finished_at = self.cluster.sim.now
            return record

        router.freeze(shard)
        try:
            # 2. drain requests mid-flight on the source subgroup.
            yield from router.drain_executing(shard)
            # 2b. drain prepared-but-unsettled txns touching this shard:
            #     their buffered writes live outside `data`, so a
            #     snapshot taken now would strand them on the source.
            #     Settles still flow while frozen (the router's reserved
            #     lane executes them through the freeze), so this
            #     terminates; record how long we waited for the audit.
            source_rep = service.gateway_replica(source_sg)
            while source_rep.prepared_txns_touching(shard, router.map):
                record.prepared_waits += 1
                yield self.settle_poll
            # 3. fence: all source replicas reach identical shard state.
            yield from source_rep.fence_req()
            # 4. snapshot + checksum on the source, then chunked pull
            #    into the target gateway. Any live source member can
            #    serve the (post-fence identical) payload.
            record.source_checksum = service.shard_checksum(
                shard, router.map)
            live = set(self.cluster.live_nodes())
            sources = [n for n in self._members_of(source_sg) if n in live]
            dest = service.gateway(target_subgroup)

            def fetch(source_node: int) -> Optional[bytes]:
                try:
                    entries = service.shard_snapshot_entries(
                        shard, router.map, node_id=source_node)
                except KeyError:
                    return None
                return encode_entries(entries)

            transfer = StateTransfer(
                self.cluster.sim, self.cluster.fabric, dest=dest,
                sources=sources, fetch_payload=fetch,
                config=self.transfer_config, rng=self.rng)
            outcome = yield from transfer.run()
            record.transfer = outcome.to_dict()
            record.crc_ok = outcome.checksum_ok
            record.chunks = outcome.chunks
            record.bytes_moved = outcome.bytes_transferred
            if not outcome.ok:
                record.error = f"transfer failed: {outcome.error}"
                return record

            # 5. replay through the target subgroup's total order so
            #    every target replica installs the shard identically.
            moved: List[Tuple[bytes, bytes]] = []
            for _idx, _sender, payload in decode_entries(outcome.data):
                _rid, inner = unframe_request(payload)
                op, key, _expected, value = KvCommand.decode(inner)
                if op != OP_PUT:  # snapshot entries are PUTs by contract
                    record.error = f"unexpected op {op} in hand-off stream"
                    return record
                moved.append((key, value))
            target_rep = service.gateway_replica(target_subgroup)
            yield from self._stream(target_rep, "put", moved)
            record.keys_moved = len(moved)

            # 6. checksum agreement across every live target replica.
            #    The replay returns at the *gateway's* delivery; the other
            #    target members deliver the same total order a few
            #    microseconds later (more under jitter), so poll with a
            #    bounded sim-time budget before declaring divergence.
            flipped = router.map.with_assignment(shard, target_subgroup)
            targets = [n for n in self._members_of(target_subgroup)
                       if n in live]
            settle_deadline = self.cluster.sim.now + self.settle_timeout
            while True:
                sums = {n: service.shard_checksum(shard, flipped, node_id=n)
                        for n in targets}
                lagging = {n: got for n, got in sums.items()
                           if got != record.source_checksum}
                if not lagging:
                    record.checksum_agree = True
                    break
                if self.cluster.sim.now >= settle_deadline:
                    node, got = sorted(lagging.items())[0]
                    record.error = (
                        f"checksum mismatch on node {node}: "
                        f"{got:#x} != {record.source_checksum:#x}")
                    return record
                yield self.settle_poll

            # 7. commit: flip the map *before* deleting the source copy
            #    (no window where neither side serves the shard), then
            #    unfreeze so queued requests drain against the target.
            router.install_map(flipped)
            record.map_version = flipped.version
            router.unfreeze(shard)
            yield from self._stream(source_rep, "delete",
                                    [(key, b"") for key, _value in moved])
            record.ok = True
            return record
        finally:
            # Failures (and success) leave the shard unfrozen: a failed
            # migration keeps the shard fully served by the source.
            router.unfreeze(shard)
            record.finished_at = self.cluster.sim.now

    @staticmethod
    def _stream(replica, op: str, items):
        """Generator: propose ``op`` for every ``(key, value)`` through
        the replica's ring, back to back, and wait once — for the last
        ticket. Per-sender FIFO delivery means everything proposed
        before it has been applied by then, so the stream costs one
        round trip plus ring time instead of one round trip per key."""
        last = None
        for key, value in items:
            last = yield from replica.propose_req(op, 0, key, value)
        if last is not None:
            yield last

    def _members_of(self, subgroup_id: int) -> List[int]:
        for spec in self.cluster.view.subgroups:
            if spec.subgroup_id == subgroup_id:
                # Gateway-first: the fenced gateway is the freshest.
                gateway = self.service.gateway(subgroup_id)
                rest = [n for n in spec.members if n != gateway]
                return [gateway] + rest
        return []


# ===========================================================================
# Cross-shard checksum verifier
# ===========================================================================


@dataclass
class ShardAuditReport:
    """Verdict of one :meth:`ShardVerifier.check` pass."""

    ok: bool = True
    violations: List[str] = field(default_factory=list)
    shards_checked: int = 0
    replicas_checked: int = 0
    keys_checked: int = 0

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "shards_checked": self.shards_checked,
            "replicas_checked": self.replicas_checked,
            "keys_checked": self.keys_checked,
        }


class ShardVerifier:
    """Audits shard-plane invariants at quiescence.

    * **Replica agreement** — every live replica of a shard's hosting
      subgroup reports the same shard checksum (crc32 over the
      canonical item encoding, process-stable).
    * **Placement conformance** — no live replica holds a key whose
      shard is mapped to a *different* subgroup (a failed migration
      delete, or routing through a stale map, shows up here).

    Call between epochs / after ``run_to_quiescence`` only: mid-flight
    multicasts legitimately make replicas transiently unequal.
    """

    def __init__(self, router):
        self.router = router
        self.service = router.service
        self.cluster = router.cluster

    def check(self) -> ShardAuditReport:
        report = ShardAuditReport()
        shard_map = self.router.map
        live = set(self.cluster.live_nodes())
        view = self.cluster.view
        specs = {sg.subgroup_id: sg for sg in view.subgroups}
        # -- replica agreement per shard --------------------------------
        for shard in range(shard_map.num_shards):
            sg = shard_map.subgroup_of(shard)
            spec = specs.get(sg)
            if spec is None:
                report.violations.append(
                    f"shard {shard} mapped to missing subgroup {sg}")
                continue
            report.shards_checked += 1
            sums = {}
            for node in spec.members:
                if node not in live:
                    continue
                if (sg, node) not in self.service.replicas:
                    continue
                sums[node] = self.service.shard_checksum(
                    shard, shard_map, node_id=node)
            if len(set(sums.values())) > 1:
                report.violations.append(
                    f"shard {shard} checksums diverge on sg{sg}: "
                    f"{ {n: hex(c) for n, c in sorted(sums.items())} }")
        # -- placement conformance --------------------------------------
        for (sg, node), replica in sorted(self.service.replicas.items()):
            if node not in live or sg not in specs:
                continue
            report.replicas_checked += 1
            for key in sorted(replica.data):
                report.keys_checked += 1
                owner_sg = shard_map.subgroup_of_key(key)
                if owner_sg != sg:
                    report.violations.append(
                        f"node {node} sg{sg} holds stray key {key!r} "
                        f"(shard {shard_map.shard_of(key)} lives on "
                        f"sg{owner_sg})")
        report.ok = not report.violations
        return report

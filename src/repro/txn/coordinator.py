"""The cross-shard transaction coordinator (docs/TRANSACTIONS.md).

A :class:`TxnPlane` composes multi-key transactions over the sharded
service's independent per-subgroup total orders by **two-phase
ordering**: after the CC protocol clears the attempt (2PL locks; OCC
clears at delivery), a :class:`~repro.txn.records.PrepareRecord` is sequenced
through every write shard's own multicast — the vote is decided
*at delivery*, identically on every replica of the hosting subgroup —
then a settle round carries the commit/abort verdict through the same
orders. Every round is one scatter-gather (:meth:`TxnPlane.gather`):
its records are sent at one instant and cost one ordered round trip,
not one per shard; only an OCC retry's prepares go one shard at a time
(:meth:`~repro.txn.cc.ConcurrencyControl.ordered_prepares`). Under
OCC, shards that were only *read* are certified by one-sided reads of
each key's value and prepared lock on the shard gateway **after** every
write shard holds its prepared locks (lock-then-validate): a concurrent
reader that could observe this txn half-applied instead finds a
prepared lock and aborts. Single-shard transactions degenerate to one
auto-commit prepare (no settle round, no WAL): atomicity inside one
total order is free.

Durability: a presumed-abort write-ahead log on the coordinator node's
storage device (``BEGIN`` before the first prepare, ``DECISION`` before
the first settle, both fsynced; ``END`` lazily after the settle round)
makes a coordinator crash mid-commit recoverable by
:func:`repro.txn.recover.recover_txns` — prepared shards hold their
buffered writes (and block conflicting prepares) until a settle with
the logged verdict arrives, which the recovery pass re-drives
idempotently. So the verdict is final at the DECISION fsync: OCC
acknowledges there and settles in a background process owned by the
coordinator node; 2PL acknowledges after its settle round.

Determinism: txn ids are a plane-local counter, wound-wait age is the
first attempt's txn id (retained across retries so wounded txns age
instead of starving), participant rounds send and gather in sorted
shard order, and retry backoffs are jittered by the plane's own
``Random`` seeded from the cluster seed (never ``sim.rng``, so no other
draw shifts) — a (cluster seed, workload) pair replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..metrics.stages import (
    TXN_STAGE_EXECUTE,
    TXN_STAGE_PREPARE,
    TXN_STAGE_SETTLE,
    TXN_STAGE_TIME,
    TXN_STAGE_VALIDATE_OR_LOCK,
    TXN_STAGES,
)
from ..sim.units import us
from .cc import ConcurrencyControl, resolve_cc
from .locks import LockTable, TxnAborted, TxnHandle
from .records import (
    W_PUT,
    WAL_BEGIN,
    WAL_DECISION,
    WAL_END,
    PrepareRecord,
    SettleRecord,
    encode_prepare,
    encode_settle,
    encode_wal,
)

__all__ = ["TxnConfig", "TxnOp", "TxnOutcome", "TxnCounters", "TxnPlane"]

#: ALock fast path: lock-acquire cost when the coordinator node is a
#: member of the shard's hosting subgroup (node-local CAS)...
LOCAL_LOCK_DELAY = us(0.4)
#: ...vs. a one-sided RDMA round trip for a remote coordinator.
REMOTE_LOCK_DELAY = us(4.0)
#: Wound-wait poll interval while an older txn waits a lock out.
LOCK_POLL = us(2.0)
#: Coordinator WAL device name (per coordinator node).
WAL_DEVICE = "txnlog"


@dataclass(frozen=True)
class TxnConfig:
    """Coordinator knobs (docs/TRANSACTIONS.md)."""

    #: Concurrency control protocol: "occ" | "2pl".
    cc: str = "occ"
    #: Attempt budget in :meth:`TxnPlane.run_txn` (validation aborts,
    #: wound-wait losses and admission rejects all consume one).
    max_attempts: int = 12
    #: Mean backoff between attempts: each sleep is this times a seeded
    #: U[0.5, 1.5) draw, so colliding retries fall out of step.
    retry_backoff: float = us(120.0)
    #: Chaos hook: stretch the DECISION -> settle window so a scheduled
    #: coordinator crash deterministically lands mid-commit (under OCC
    #: the window is after the client's acknowledgement).
    settle_delay: float = 0.0


@dataclass(frozen=True)
class TxnOp:
    """One operation of a transaction program: ("get"|"put"|"delete",
    key, value)."""

    op: str
    key: bytes
    value: bytes = b""


@dataclass
class TxnOutcome:
    """Terminal verdict of one :meth:`TxnPlane.run_txn` call."""

    #: "committed" | "aborted"
    status: str
    #: Abort cause: "validation" | "wounded" | "wound-wait" |
    #: "prepare_no" | "rejected" | "attempts" | "" (committed).
    reason: str = ""
    txn_id: int = -1
    attempts: int = 1
    #: Values observed by the committed attempt's "get" ops, in program
    #: order (None = absent).
    reads: List[Optional[bytes]] = field(default_factory=list)
    participants: Tuple[int, ...] = ()
    #: True when the single-shard auto-commit path served the txn.
    fastpath: bool = False


@dataclass
class TxnCounters:
    committed: int = 0
    aborted: int = 0
    attempts: int = 0
    fastpath_commits: int = 0
    prepares_sent: int = 0
    settles_sent: int = 0
    validation_aborts: int = 0
    wound_aborts: int = 0
    prepare_aborts: int = 0
    admission_aborts: int = 0
    wal_records: int = 0
    recovered_settles: int = 0

    def to_dict(self) -> dict:
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "attempts": self.attempts,
            "fastpath_commits": self.fastpath_commits,
            "prepares_sent": self.prepares_sent,
            "settles_sent": self.settles_sent,
            "validation_aborts": self.validation_aborts,
            "wound_aborts": self.wound_aborts,
            "prepare_aborts": self.prepare_aborts,
            "admission_aborts": self.admission_aborts,
            "wal_records": self.wal_records,
            "recovered_settles": self.recovered_settles,
        }


def _voted_yes(outcome) -> bool:
    """A prepare leg's :class:`~repro.shard.router.RequestOutcome`:
    admitted, delivered, and every replica voted yes."""
    return outcome.status == "ok" and outcome.value == "yes"


class _Txn:
    """Coordinator-side state of one transaction attempt."""

    __slots__ = ("txn_id", "coordinator", "attempt", "handle", "reads",
                 "writes", "locked_shards", "lock_seconds", "results",
                 "legs")

    def __init__(self, txn_id: int, coordinator: int, attempt: int = 1,
                 age: Optional[int] = None):
        self.txn_id = txn_id
        self.coordinator = coordinator
        self.attempt = attempt
        # Wound-wait priority survives retries (fresh txn_id, old age).
        self.handle = TxnHandle(txn_id, age)
        #: key -> value observed from committed state (OCC read set).
        self.reads: Dict[bytes, Optional[bytes]] = {}
        #: Buffered writes in program order: (W_PUT|W_DELETE, k, v).
        self.writes: List[Tuple[int, bytes, bytes]] = []
        self.locked_shards: Set[int] = set()
        self.lock_seconds = 0.0
        #: "get" results in program order.
        self.results: List[Optional[bytes]] = []
        #: The current round's fan-out processes (:meth:`TxnPlane.gather`):
        #: they die with the attempt, not with whoever adopted its driver.
        self.legs: Sequence[object] = ()


class TxnPlane:
    """The transaction coordinator over one cluster's shard router. An
    OCC attempt returns at its DECISION fsync; its committed writes
    serve that node's reads from :attr:`decided_writes` until settled."""

    def __init__(self, router, config: Optional[TxnConfig] = None):
        self.router = router
        self.cluster = router.cluster
        self.service = router.service
        self.sim = router.sim
        self.config = config if config is not None else TxnConfig()
        self.cc: ConcurrencyControl = resolve_cc(self.config.cc)
        self.counters = TxnCounters()
        #: Retry-backoff jitter, apart from ``sim.rng``.
        self._backoff_rng = Random(self.cluster.seed * 1_000_003 + 131)
        self._txn_counter = 0
        self._lock_tables: Dict[int, LockTable] = {}
        self._colocated: Dict[int, bool] = {}
        #: Driver processes per coordinator node, killed when that node
        #: crashes (their txns recover via the WAL).
        self._drivers: Dict[int, List[object]] = {}
        #: Live txn handles per coordinator node: a crash releases
        #: their plane-side locks (the coordinator that would have is
        #: dead; prepared-state cleanup is the WAL's job).
        self._live: Dict[int, List[_Txn]] = {}
        #: Per coordinator node, acknowledged commits' unsettled writes:
        #: key -> (txn id, value; None = deleted), read by OccControl.
        self.decided_writes: Dict[int, Dict[bytes, Tuple[int, Optional[bytes]]]] = {}
        self.cluster.faults.on_crash.append(self._on_node_crash)
        #: Coordinator ``[seconds, spans]`` per stage (TXN_STAGES).
        self._stage_time = {stage: [0.0, 0] for stage in TXN_STAGES}
        self._register_metrics()

    # ----------------------------------------------------------- plumbing

    def lock_table(self, shard: int) -> LockTable:
        table = self._lock_tables.get(shard)
        if table is None:
            table = LockTable(self.sim, shard, LOCK_POLL)
            self._lock_tables[shard] = table
        return table

    def lock_delay(self, shard: int) -> float:
        """The ALock asymmetry: local fast path for coordinators
        co-located with the shard's hosting subgroup."""
        return (LOCAL_LOCK_DELAY if self._colocated.get(shard, False)
                else REMOTE_LOCK_DELAY)

    def _default_coordinator(self) -> int:
        return self.cluster.node_ids[0]

    def _wal(self, coordinator: int):
        return self.cluster.storage.device(coordinator, WAL_DEVICE)

    def _wal_append(self, coordinator: int, record: bytes,
                    fsync: bool) -> Generator:
        device = self._wal(coordinator)
        device.write(record)
        self.counters.wal_records += 1
        if fsync:
            yield from device.fsync()

    def _stage_add(self, stage: str, dt: float) -> None:
        stage_time = self._stage_time[stage]
        stage_time[0] += dt
        stage_time[1] += 1

    # -------------------------------------------------------------- client

    def run_txn(self, ops: List[TxnOp],
                coordinator_node: Optional[int] = None) -> Generator:
        """Client generator: run one transaction program to a terminal
        :class:`TxnOutcome`, retrying aborted attempts (fresh txn id,
        jittered backoff) up to ``max_attempts``."""
        coordinator = (coordinator_node if coordinator_node is not None
                       else self._default_coordinator())
        cfg = self.config
        last = None
        age = None  # first attempt's txn id = wound-wait age for retries
        for attempt in range(1, cfg.max_attempts + 1):
            self.counters.attempts += 1
            out = yield from self._attempt(ops, coordinator, attempt, age)
            out.attempts = attempt
            if age is None:
                age = out.txn_id
            if out.status == "committed":
                self.counters.committed += 1
                return out
            last = out
            if attempt < cfg.max_attempts:
                # A fixed sleep keeps two transactions that abort each
                # other in lockstep (docs/TRANSACTIONS.md).
                yield cfg.retry_backoff * (0.5 + self._backoff_rng.random())
        self.counters.aborted += 1
        last.reason = last.reason or "attempts"
        return last

    def spawn_txn(self, ops: List[TxnOp],
                  coordinator_node: Optional[int] = None,
                  name: str = "txn", outcomes: Optional[list] = None):
        """Fire-and-track: run the txn in its own simulated process,
        registered to die with its coordinator node (chaos)."""
        coordinator = (coordinator_node if coordinator_node is not None
                       else self._default_coordinator())
        sink = outcomes if outcomes is not None else []

        def driver():
            out = yield from self.run_txn(ops, coordinator_node=coordinator)
            sink.append(out)

        proc = self.sim.spawn(driver(), name=name)
        self.adopt(coordinator, proc)
        return proc, sink

    def adopt(self, coordinator: int, proc) -> None:
        """Register a driver process to be killed when ``coordinator``
        crashes (chaos scenarios spawn their own client loops)."""
        drivers = self._drivers.setdefault(coordinator, [])
        drivers[:] = [p for p in drivers if p.alive]
        drivers.append(proc)

    # ------------------------------------------------------------ attempts

    def _begin(self, coordinator: int, attempt: int = 1,
               age: Optional[int] = None) -> _Txn:
        self._txn_counter += 1
        txn = _Txn(self._txn_counter, coordinator, attempt, age)
        self._live.setdefault(coordinator, []).append(txn)
        return txn

    def _end(self, txn: _Txn) -> None:
        # All finished unless the driver was killed mid-round.
        for leg in txn.legs:
            leg.kill()
        txn.legs = ()
        self.cc.finish(self, txn)
        live = self._live.get(txn.coordinator)
        if live is not None and txn in live:
            live.remove(txn)

    def _attempt(self, ops: List[TxnOp], coordinator: int,
                 attempt: int = 1, age: Optional[int] = None) -> Generator:
        self._snapshot_colocation(coordinator)
        txn = self._begin(coordinator, attempt, age)
        settle = None
        try:
            # ---- execute: reads + buffered writes under the CC, then
            # its clearance (the 2PL wound check) --------------------
            t0 = self.sim.now
            try:
                for op in ops:
                    if op.op == "get":
                        value = yield from self.cc.read(self, txn, op.key)
                        txn.results.append(value)
                    elif op.op == "put":
                        yield from self.cc.write(self, txn, op.key, op.value)
                    elif op.op == "delete":
                        yield from self.cc.delete(self, txn, op.key)
                    else:
                        raise ValueError(f"unknown txn op {op.op!r}")
                self.cc.validate(self, txn)
            except TxnAborted as exc:
                self.counters.wound_aborts += 1
                return TxnOutcome("aborted", exc.reason, txn.txn_id)
            self._stage_add(TXN_STAGE_EXECUTE, self.sim.now - t0)
            # 2PL accrues its lock time during execute; fold it in so
            # the stage means "conflict clearance" under either CC.
            self._stage_add(TXN_STAGE_VALIDATE_OR_LOCK, txn.lock_seconds)

            participants, read_only = self._shard_split(txn)
            if not participants:
                if not read_only:  # nothing shard-resident to certify
                    return TxnOutcome("committed", "", txn.txn_id,
                                      reads=list(txn.results), fastpath=True)
                # OCC pure read: one-sided reads certify the read set
                # and nothing goes through any order — no prepared
                # state, so no WAL and no settle round either.
                ok, reason = yield from self._certify_reads(txn, read_only)
                if not ok:
                    return TxnOutcome("aborted", reason, txn.txn_id,
                                      participants=read_only)
                return TxnOutcome("committed", "", txn.txn_id,
                                  reads=list(txn.results),
                                  participants=read_only)

            # ---- single-shard fast path: one auto-commit prepare, no
            # WAL and no settle round ---------------------------------
            if len(participants) == 1 and not read_only:
                out = yield from self._fastpath(txn, participants[0])
                return out

            # ---- two-phase ordering with a presumed-abort WAL -------
            yield from self._wal_append(
                coordinator,
                encode_wal(WAL_BEGIN, txn.txn_id, participants=participants),
                fsync=True)
            t0 = self.sim.now
            prepares = [
                self._send(self._prepare_record(txn, shard, auto_commit=False))
                for shard in participants]
            outcomes = yield from self.gather(
                txn, prepares, ordered=self.cc.ordered_prepares(txn))
            votes_ok, reason = self._tally(outcomes, "prepare_no")
            self._stage_add(TXN_STAGE_PREPARE, self.sim.now - t0)

            # ---- lock-then-validate: read-only shards certify only
            # after every write shard holds its prepared locks, so a
            # concurrent reader can never observe this txn half-applied.
            if votes_ok and read_only:
                votes_ok, reason = yield from self._certify_reads(
                    txn, read_only)

            commit = votes_ok
            yield from self._wal_append(
                coordinator,
                encode_wal(WAL_DECISION, txn.txn_id, commit=commit),
                fsync=True)
            settle = self._settle(txn, participants, commit)
            if self.cc.acks_at_decision:
                # Acknowledge now. A crash kills the settle process and
                # recover_txns re-drives the logged verdict instead.
                if commit:
                    decided = self.decided_writes.setdefault(coordinator, {})
                    for wop, key, value in txn.writes:
                        decided[key] = (txn.txn_id,
                                        value if wop == W_PUT else None)
                self.adopt(coordinator,
                           self.sim.spawn(settle, name="txn.settle"))
            else:
                yield from settle

            if commit:
                return TxnOutcome("committed", "", txn.txn_id,
                                  reads=list(txn.results),
                                  participants=participants)
            return TxnOutcome("aborted", reason, txn.txn_id,
                              participants=participants)
        finally:
            if settle is None:  # else the settle ends the txn
                self._end(txn)

    def _fastpath(self, txn: _Txn, shard: int) -> Generator:
        """One auto-commit prepare through the only participant's
        order: the shard's own total order is the atomicity domain, so
        no WAL and no settle round are needed."""
        t0 = self.sim.now
        outcome = yield from self._send(
            self._prepare_record(txn, shard, auto_commit=True))
        self._stage_add(TXN_STAGE_PREPARE, self.sim.now - t0)
        ok, reason = self._tally([outcome], "validation")
        if not ok:
            return TxnOutcome("aborted", reason, txn.txn_id,
                              participants=(shard,), fastpath=True)
        self.counters.fastpath_commits += 1
        return TxnOutcome("committed", "", txn.txn_id,
                          reads=list(txn.results),
                          participants=(shard,), fastpath=True)

    def _settle(self, txn: _Txn, participants: Tuple[int, ...],
                commit: bool) -> Generator:
        """After the DECISION: ``settle_delay``, the settle round, lazy
        ``END``, dropping the decided writes no newer commit replaced,
        and the txn's end (2PL releases its locks only here)."""
        try:
            if self.config.settle_delay > 0.0:
                yield self.config.settle_delay
            t0 = self.sim.now
            yield from self._settle_round(txn.txn_id, participants, commit,
                                          txn)
            self._stage_add(TXN_STAGE_SETTLE, self.sim.now - t0)
            # Lazy END: losing it only costs an idempotent re-drive.
            self._wal(txn.coordinator).write(encode_wal(WAL_END, txn.txn_id))
            self.counters.wal_records += 1
            decided = self.decided_writes.get(txn.coordinator)
            if commit and decided:
                for _, key, _ in txn.writes:
                    entry = decided.get(key)
                    if entry is not None and entry[0] == txn.txn_id:
                        del decided[key]
        finally:
            self._end(txn)

    def _settle_round(self, txn_id: int, participants: Tuple[int, ...],
                      commit: bool, txn: Optional[_Txn] = None) -> Generator:
        """Carry the verdict through every participant's order. Settle
        messages ride the router's reserved lane (never rejected by
        admission control, executed even through a rebalance freeze) so
        a prepared txn can always be settled. ``txn`` is the live
        attempt; :func:`~repro.txn.recover.recover_txns` has none and
        its legs count as recovered settles."""
        yield from self.gather(txn, [
            self._send(SettleRecord(txn_id=txn_id, shard=shard,
                                    commit=commit))
            for shard in participants])
        self.counters.settles_sent += len(participants)
        if txn is None:
            self.counters.recovered_settles += len(participants)

    # ------------------------------------------------------------- rounds

    def gather(self, txn: Optional[_Txn], legs: List[Generator],
               ordered: bool = False) -> Generator:
        """One coordinator round: run ``legs`` (un-started generators,
        in shard order) and return their results in that order.

        Fan-out: every leg is its own process, spawned at this instant
        and joined in order, so the round costs its slowest leg rather
        than their sum, and records bound for one gateway reach its
        ring together (§3.2 batching). The processes belong to ``txn``
        so a coordinator crash takes them down with the attempt.

        ``ordered``: one leg at a time, and a vote other than yes ends
        the round — the later legs are never sent."""
        if not ordered and len(legs) > 1:
            procs = [self.sim.spawn(leg, name="txn.leg") for leg in legs]
            if txn is not None:
                txn.legs = procs
            results = []
            for proc in procs:
                results.append((yield proc))
            return results
        results = []
        for leg in legs:
            result = yield from leg
            results.append(result)
            if ordered and not _voted_yes(result):
                break
        return results

    def _send(self, rec) -> Generator:
        """One leg: a txn record through its shard's order (un-started
        until a round runs it)."""
        if isinstance(rec, SettleRecord):
            op, value = "txn_settle", encode_settle(rec)
        else:
            op, value = "txn_prepare", encode_prepare(rec)
        return self.router.request(op, b"", shard=rec.shard, value=value)

    def _tally(self, outcomes: List[object], no_reason: str
               ) -> Tuple[bool, str]:
        """The one vote-aggregation site, over the prepare legs a round
        sent: the first failing shard, in shard order, names the abort
        reason — ``"rejected"`` when admission gave up on the leg,
        ``no_reason`` when the replicas voted no."""
        counters = self.counters
        counters.prepares_sent += len(outcomes)
        for outcome in outcomes:
            if _voted_yes(outcome):
                continue
            if outcome.status != "ok":
                counters.admission_aborts += 1
                return False, "rejected"
            if no_reason == "validation":
                counters.validation_aborts += 1
            else:
                counters.prepare_aborts += 1
            return False, no_reason
        return True, ""

    # ------------------------------------------------------------- helpers

    def _shard_split(self, txn: _Txn) -> Tuple[Tuple[int, ...],
                                               Tuple[int, ...]]:
        """(participants, read_only): write shards run the full
        prepare/settle protocol (their slice also re-validates any
        co-resident reads at delivery). Under OCC, shards that were
        *only read* are certified by :meth:`_certify_reads` after the
        write prepares. Under 2PL the locks already pin read
        stability — read-only shards need nothing."""
        write_shards: Set[int] = set()
        for _, key, _ in txn.writes:
            write_shards.add(self.router.map.shard_of(key))
        read_only: Set[int] = set()
        if self.cc.name == "occ":
            for key in txn.reads:
                shard = self.router.map.shard_of(key)
                if shard not in write_shards:
                    read_only.add(shard)
        return tuple(sorted(write_shards)), tuple(sorted(read_only))

    def _certify_reads(self, txn: _Txn,
                       shards: Tuple[int, ...]) -> Generator:
        """OCC read certification by one-sided reads of each read key's
        value and prepared lock on its shard's gateway replica, which
        delivered the votes this attempt waited for. The shards are read
        in parallel: one ALock round trip to the farthest. No gateway
        (the failover gap) aborts as ``"rejected"``."""
        delay = max(self.lock_delay(shard) for shard in shards)
        yield delay
        self._stage_add(TXN_STAGE_VALIDATE_OR_LOCK, delay)
        shard_map = self.router.map
        for shard in shards:
            try:
                replica = self.service.gateway_replica(
                    shard_map.subgroup_of(shard))
            except RuntimeError:
                self.counters.admission_aborts += 1
                return False, "rejected"
            for key, expected in txn.reads.items():
                if shard_map.shard_of(key) == shard and (
                        key in replica.txn_locks
                        or replica.data.get(key) != expected):
                    self.counters.validation_aborts += 1
                    return False, "validation"
        return True, ""

    def _prepare_record(self, txn: _Txn, shard: int,
                        auto_commit: bool) -> PrepareRecord:
        """This shard's slice of the txn. OCC ships the read set for
        authoritative in-order validation; 2PL ships none (the lock
        table already serialized conflicting access)."""
        reads: Tuple[Tuple[bytes, Optional[bytes]], ...] = ()
        if self.cc.name == "occ":
            reads = tuple(sorted(
                (k, v) for k, v in txn.reads.items()
                if self.router.map.shard_of(k) == shard))
        writes = tuple((wop, k, v) for wop, k, v in txn.writes
                       if self.router.map.shard_of(k) == shard)
        return PrepareRecord(txn_id=txn.txn_id, shard=shard,
                             cc=self.cc.name, auto_commit=auto_commit,
                             reads=reads, writes=writes)

    def _snapshot_colocation(self, coordinator: int) -> None:
        """Cache, per shard, whether ``coordinator`` is a member of the
        hosting subgroup (the ALock local/remote split)."""
        view = self.cluster.view
        members: Dict[int, Tuple[int, ...]] = {
            spec.subgroup_id: tuple(spec.members)
            for spec in view.subgroups}
        self._colocated = {
            shard: coordinator in members.get(
                self.router.map.subgroup_of(shard), ())
            for shard in range(self.router.map.num_shards)}

    # --------------------------------------------------------------- chaos

    def _on_node_crash(self, node: int) -> None:
        """The coordinator host died: kill its driver processes
        mid-txn and release their plane-side locks. Prepared shard
        state stays pinned until :func:`~repro.txn.recover.recover_txns`
        re-drives the WAL's verdicts."""
        for proc in self._drivers.pop(node, []):
            proc.kill()
        self.decided_writes.pop(node, None)  # volatile, like the node
        for txn in self._live.pop(node, []):
            for leg in txn.legs:
                leg.kill()
            for shard in txn.locked_shards:
                self.lock_table(shard).release_all(txn.handle)

    # ------------------------------------------------------------- metrics

    def _register_metrics(self) -> None:
        registry = self.cluster.metrics

        def mirror() -> None:
            for stage, (seconds, spans) in self._stage_time.items():
                registry.timer(TXN_STAGE_TIME, "txn coordinator time by stage",
                               stage=stage).set_to(seconds, spans)
            c = self.counters
            registry.counter("spindle_txn_committed_total",
                             "transactions committed").set_to(c.committed)
            registry.counter("spindle_txn_aborted_total",
                             "transactions aborted").set_to(c.aborted)
            registry.counter("spindle_txn_attempts_total",
                             "transaction attempts").set_to(c.attempts)
            registry.counter("spindle_txn_fastpath_total",
                             "single-shard fast-path commits"
                             ).set_to(c.fastpath_commits)
            registry.counter("spindle_txn_prepares_total",
                             "prepare records sequenced"
                             ).set_to(c.prepares_sent)
            registry.counter("spindle_txn_settles_total",
                             "settle records sequenced"
                             ).set_to(c.settles_sent)
            held = sum(t.held() for t in self._lock_tables.values())
            registry.gauge("spindle_txn_locks_held",
                           "key locks currently held").set(held)

        registry.add_collector(mirror)

    def stage_seconds(self) -> Dict[str, float]:
        """Coordinator time per stage."""
        return {stage: seconds
                for stage, (seconds, _spans) in self._stage_time.items()}

    def lock_counters(self) -> Dict[str, int]:
        total = {"acquired": 0, "wounds": 0, "wait_aborts": 0, "waits": 0}
        for table in self._lock_tables.values():
            for key, value in table.counters().items():
                total[key] += value
        return total

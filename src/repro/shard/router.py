"""The client-facing request router of the sharded service plane.

Clients are **first-class load sources** here — open-loop arrival
processes (repro.workloads.generators.open_loop_client) submit
requests to the router instead of occupying in-group sender slots.
The router:

* maps each request's key to a shard and the shard to its hosting
  subgroup through the installed :class:`~repro.shard.shardmap.ShardMap`;
* holds a **bounded per-shard queue** drained by per-shard
  **dispatcher** processes that propose each request on the hosting
  subgroup's gateway replica and move on to the next (so a shard's
  requests retain the subgroup's total order, and its send window —
  not a round trip per dispatcher — bounds what is in flight; the
  gateway's delivery completes the request);
* applies **admission control**: a request is rejected with a
  ``retry_after`` hint when the shard's queue is full, when the hosting
  subgroup has no gateway (its sender crashed and the successor view is
  not installed yet — reason ``no_gateway``), or when the gateway's
  sender pipeline is saturated — the congestion
  signal is the backend-generic
  :meth:`~repro.ordering.base.OrderingEndpoint.congestion` (on Spindle:
  the SST stability counters, since slots stay occupied exactly until
  the slowest member's delivered/received column passes them, §2.3; on
  Paxos: the in-flight proposal fraction). Without this, open-loop
  overload collapses into unbounded queueing; with it, clients see
  honest ``rejected`` outcomes and back off;
* survives **view changes**: at the epoch boundary every dispatcher
  is killed (the waiters died with the old epoch), executing requests
  are re-queued at the front, the map is re-derived for the committed
  view, and fresh dispatchers re-execute idempotently (rid dedup in
  :class:`~repro.shard.service.ShardReplica` makes the replay exactly-
  once even when the original committed before the wedge).

Everything is deterministic in the cluster seed: rids are a plain
counter, queue order is FIFO, and requeues are sorted — chaos scenarios
replay the router byte-identically (tests/test_shard.py).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict, Generator, List, Optional, Set

from ..sim.sync import Doorbell, Event
from ..sim.units import us
from .service import ShardedKv
from .shardmap import ShardMap

__all__ = ["RouterConfig", "ShardBusy", "RequestOutcome", "ShardRouter",
           "REJECT_REASONS"]

_WRITE_OPS = ("put", "delete", "cas")
#: Transaction-plane ops (repro.txn): the payload is a pre-encoded txn
#: record, routed by an explicit shard instead of a key. Settles ride a
#: reserved admission lane — see :meth:`ShardRouter._enqueue`.
_TXN_OPS = ("txn_prepare", "txn_settle")
_OPS = _WRITE_OPS + ("get",) + _TXN_OPS
#: Why admission control refuses a submission (docs/SHARDING.md).
REJECT_REASONS = ("queue_full", "window_saturated", "no_gateway")


@dataclass(frozen=True)
class RouterConfig:
    """Admission-control and retry knobs (docs/SHARDING.md)."""

    #: Bounded per-shard queue: submissions beyond this are rejected
    #: with reason "queue_full".
    queue_depth: int = 64
    #: Dispatcher processes draining each shard's queue. Each proposes
    #: and moves on, so this is how many requests can be *entering* the
    #: gateway's ring at once, not how many are in flight (the ring
    #: window bounds that).
    workers_per_shard: int = 2
    #: Retry-after hint handed to rejected clients.
    retry_after: float = us(100.0)
    #: Reject new work when the gateway endpoint's congestion() reaches
    #: this fraction (1.0 = only reject when the next propose would
    #: actually block).
    congestion_threshold: float = 1.0
    #: Client-side resubmission budget in :meth:`ShardRouter.request`.
    max_retries: int = 50


class ShardBusy(Exception):
    """Admission control rejected a submission; retry after the hint."""

    def __init__(self, shard: int, reason: str, retry_after: float):
        super().__init__(f"shard {shard} busy ({reason}); "
                         f"retry after {retry_after * 1e6:.0f} us")
        self.shard = shard
        self.reason = reason
        self.retry_after = retry_after


@dataclass
class RequestOutcome:
    """Terminal verdict of one routed request."""

    #: "ok" | "rejected" | "timeout"
    status: str
    #: get: the value (or None); put/delete/cas: the op's boolean.
    value: object = None
    #: Submission attempts (1 = accepted first try).
    attempts: int = 1
    shard: int = -1
    #: True when rid dedup suppressed a replayed retry (the original
    #: already committed; the state transition happened exactly once).
    duplicate: bool = False
    #: On "rejected": the router's (possibly jittered) back-off hint —
    #: how long the last ShardBusy asked the client to wait. Open-loop
    #: clients honor it via ``open_loop_client(max_resubmits=...)``.
    retry_after: float = 0.0


class _RequestState:
    """One in-flight routed request (queued or executing)."""

    __slots__ = ("rid", "op", "key", "value", "expected", "shard",
                 "event", "deadline", "enqueued_at", "attempts")

    def __init__(self, rid: int, op: str, key: bytes, value: bytes,
                 expected: bytes, shard: int, event: Event,
                 deadline: Optional[float]):
        self.rid = rid
        self.op = op
        self.key = key
        self.value = value
        self.expected = expected
        self.shard = shard
        self.event = event
        self.deadline = deadline
        self.enqueued_at = 0.0
        self.attempts = 1


@dataclass
class RouterCounters:
    """Plain-int router accounting, mirrored into ``spindle_router_*``
    metrics by a pull collector (zero hot-path cost)."""

    accepted: int = 0
    completed: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    client_gaveup: int = 0
    timeouts: int = 0
    reroutes: int = 0
    gateway_changes: int = 0
    epoch_retries: int = 0
    wedge_aborts: int = 0
    stale_reads: int = 0
    #: Settle messages admitted through the reserved lane.
    settle_reserved: int = 0

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "completed": self.completed,
            "rejected": dict(sorted(self.rejected.items())),
            "client_gaveup": self.client_gaveup,
            "timeouts": self.timeouts,
            "reroutes": self.reroutes,
            "gateway_changes": self.gateway_changes,
            "epoch_retries": self.epoch_retries,
            "wedge_aborts": self.wedge_aborts,
            "stale_reads": self.stale_reads,
            "settle_reserved": self.settle_reserved,
        }


class ShardRouter:
    """Routes client requests onto per-shard subgroup total orders."""

    def __init__(self, cluster, service: ShardedKv, shard_map: ShardMap,
                 config: Optional[RouterConfig] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.service = service
        self.map = shard_map
        self.config = config if config is not None else RouterConfig()
        self.counters = RouterCounters()
        n = shard_map.num_shards
        self._queues: List[Deque[_RequestState]] = [deque() for _ in range(n)]
        self._bells = [Doorbell(cluster.sim, name=f"shard{s}.router")
                       for s in range(n)]
        self._executing: List[List[_RequestState]] = [[] for _ in range(n)]
        #: Rung when a shard's last executing request completes (the
        #: rebalance drain barrier waits on it).
        self._drained = [Doorbell(cluster.sim, name=f"shard{s}.drained")
                         for s in range(n)]
        self._dispatchers: List[list] = [[] for _ in range(n)]
        self._frozen: Set[int] = set()
        self._epoch_id = 0
        self._rid_counter = 0
        self._started = False
        self._last_gateways: Dict[int, int] = {}
        #: Per shard ``[seconds, requests]`` spent in the shard queue
        #: and executing on the subgroup (mirrored as timers).
        self._queue_wait = [[0.0, 0] for _ in range(n)]
        self._service = [[0.0, 0] for _ in range(n)]

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ShardRouter":
        """Spawn dispatchers and register the epoch hooks (idempotent-ish:
        call once, after ``cluster.build()``)."""
        if self._started:
            raise RuntimeError("router already started")
        self._started = True
        self.cluster.on_epoch_end.append(self._on_epoch_end)
        self.cluster.on_view_installed.append(self._on_view_installed)
        self._snapshot_gateways()
        self._register_metrics()
        self._spawn_dispatchers()
        return self

    def _spawn_dispatchers(self) -> None:
        epoch = self._epoch_id
        for shard in range(self.map.num_shards):
            self._dispatchers[shard] = [
                self.sim.spawn(
                    self._dispatcher(shard, epoch),
                    name=f"router.s{shard}.w{w}.e{epoch}")
                for w in range(self.config.workers_per_shard)
            ]
            self._bells[shard].ring()

    # --------------------------------------------------------------- client

    def request(self, op: str, key: bytes, value: bytes = b"",
                expected: bytes = b"",
                deadline: Optional[float] = None,
                shard: Optional[int] = None) -> Generator:
        """Client generator: submit with idempotent retry/backoff.

        Allocates the request id once — every resubmission (admission
        reject, view-change requeue) reuses it, so the state transition
        is applied at most once no matter how the retries land.
        Returns a :class:`RequestOutcome`.

        Txn ops ("txn_prepare"/"txn_settle") pass the encoded record as
        ``value`` and route by explicit ``shard`` (a txn record may
        touch many keys of one shard); their exactly-once contract is
        txn-id verdict memory on the replica rather than rid dedup.
        """
        if op not in _OPS:
            raise ValueError(f"unknown router op {op!r}")
        rid = 0
        if op in _WRITE_OPS:
            self._rid_counter += 1
            rid = self._rid_counter
        if shard is None:
            shard = self.map.shard_of(key)
        elif op not in _TXN_OPS:
            raise ValueError("explicit shard routing is txn-only")
        state = _RequestState(
            rid, op, key, value, expected, shard,
            Event(self.sim, name=f"router.req{rid or 'g'}.{shard}"),
            deadline)
        cfg = self.config
        while True:
            try:
                self._enqueue(state)
            except ShardBusy as exc:
                state.attempts += 1
                if state.attempts > cfg.max_retries or (
                        state.deadline is not None
                        and self.sim.now + exc.retry_after > state.deadline):
                    self.counters.client_gaveup += 1
                    return RequestOutcome("rejected", None,
                                          state.attempts, shard,
                                          retry_after=exc.retry_after)
                yield exc.retry_after
                continue
            outcome = yield state.event
            return outcome

    def stale_read(self, key: bytes):
        """Optional fast path: read a live replica's local state (the
        gateway's while it is up) without a fence. Sequentially
        consistent per shard (may lag the log tip); never queues, never
        rejects — a crashed gateway does not take reads down with it."""
        self.counters.stale_reads += 1
        sg = self.map.subgroup_of_key(key)
        return self.service.live_replica(sg).read(key)

    # ------------------------------------------------------------ admission

    def congestion(self, shard: int) -> Optional[float]:
        """Saturation of the hosting subgroup's gateway in [0, 1], via
        :meth:`~repro.ordering.base.OrderingEndpoint.congestion` — ring
        occupancy on Spindle, in-flight proposal count on quorum
        backends, 1.0 when wedged. The router never reaches into SST
        internals, so admission control works on any backend. ``None``
        in the failover gap: there is no gateway to be congested."""
        sg = self.map.subgroup_of(shard)
        try:
            node = self.service.gateway(sg)
        except (RuntimeError, KeyError):
            return None
        return self.cluster.groups[node].subgroup(sg).congestion()

    def _enqueue(self, state: _RequestState) -> None:
        if not self._started:
            raise RuntimeError("router not started")
        cfg = self.config
        shard = state.shard
        queue = self._queues[shard]
        if state.op == "txn_settle":
            # Reserved lane: a prepared-but-unsettled txn pins keys on
            # the replica, so its settle must never be starved by the
            # very backlog those pins create — skip the queue bound and
            # the congestion check (settles are bounded by in-flight
            # prepares, which *did* pass admission).
            state.enqueued_at = self.sim.now
            queue.append(state)
            self.counters.accepted += 1
            self.counters.settle_reserved += 1
            self._bells[shard].ring()
            return
        if len(queue) >= cfg.queue_depth:
            self._reject(shard, "queue_full")
        if shard not in self._frozen:
            # Frozen shards (mid-rebalance) queue without the window
            # check: the old subgroup's window is irrelevant, the queue
            # bound alone protects the router.
            congestion = self.congestion(shard)
            if congestion is None:
                self._reject(shard, "no_gateway")
            if congestion >= cfg.congestion_threshold:
                self._reject(shard, "window_saturated")
        state.enqueued_at = self.sim.now
        queue.append(state)
        self.counters.accepted += 1
        self._bells[shard].ring()

    def _reject(self, shard: int, reason: str) -> None:
        counts = self.counters.rejected
        counts[reason] = counts.get(reason, 0) + 1
        raise ShardBusy(shard, reason, self.config.retry_after)

    # ---------------------------------------------------------- dispatchers

    def _dispatcher(self, shard: int, epoch: int):
        """Pop, propose, move on. A dispatcher blocks only where an
        application sender does (§3.2) — on the gateway's send window
        and the shared lock inside ``propose`` — so a shard keeps up to
        a ring of requests in flight and the send predicate finds
        batches to push; :meth:`_complete` answers each request when
        the gateway delivers it."""
        queue = self._queues[shard]
        bell = self._bells[shard]
        while True:
            if self._epoch_id != epoch:
                return
            if shard in self._frozen:
                # A frozen shard (mid-rebalance) still executes settle
                # messages: the migration's prepared-txn drain barrier
                # waits on exactly those, so parking them with the rest
                # of the queue would deadlock the hand-off.
                state = self._pop_settle(queue)
                if state is None:
                    yield bell.wait()
                    continue
            elif not queue:
                yield bell.wait()
                continue
            else:
                state = queue.popleft()
            now = self.sim.now
            if state.deadline is not None and now > state.deadline:
                self.counters.timeouts += 1
                state.event.trigger(RequestOutcome(
                    "timeout", None, state.attempts, shard))
                continue
            queue_wait = self._queue_wait[shard]
            queue_wait[0] += now - state.enqueued_at
            queue_wait[1] += 1
            self._executing[shard].append(state)
            try:
                replica = self.service.gateway_replica(
                    self.map.subgroup_of(shard))
                delivered = yield from replica.propose_req(
                    state.op, state.rid, state.key, state.value,
                    state.expected)
            except RuntimeError:
                # The epoch wedged (view change) or the gateway died
                # under us: leave the request in _executing for the
                # epoch-end requeue and let this dispatcher die — the
                # successor epoch's dispatchers replay it idempotently.
                self.counters.wedge_aborts += 1
                return
            delivered.add_waiter(
                partial(self._complete, state, epoch, replica, now))

    def _pop_settle(self, queue: Deque[_RequestState]
                    ) -> Optional[_RequestState]:
        """Remove and return the oldest queued settle, if any."""
        for state in queue:
            if state.op == "txn_settle":
                queue.remove(state)
                return state
        return None

    def _complete(self, state: _RequestState, epoch: int, replica,
                  started: float, out, settled: bool = False) -> None:
        """The gateway delivered a dispatched request: answer the
        client. A ``get`` reads the gateway's state here, at its fence's
        delivery, or at the settle of a prepared txn holding its key,
        which may be acknowledged already (docs/TRANSACTIONS.md)."""
        if self._epoch_id != epoch:
            # The epoch ended between the delivery and this callback:
            # the request was requeued and its replay answers it.
            return
        if state.op == "get" and not settled:
            holder = replica.txn_locks.get(state.key)
            if holder is not None:
                replica.settled(holder, state.shard).add_waiter(partial(
                    self._complete, state, epoch, replica, started,
                    settled=True))
                return
        shard = state.shard
        executing = self._executing[shard]
        executing.remove(state)
        service = self._service[shard]
        service[0] += self.sim.now - started
        service[1] += 1
        self.counters.completed += 1
        duplicate = out == "duplicate"
        if state.op == "get":
            out = replica.data.get(state.key)
        elif duplicate:
            out = None
        state.event.trigger(RequestOutcome("ok", out, state.attempts, shard,
                                           duplicate=duplicate))
        if not executing:
            self._drained[shard].ring()

    # ------------------------------------------------------- epoch handling

    def _on_epoch_end(self, _old_view, _old_groups) -> None:
        """The old epoch is dying: kill every dispatcher, disown the
        completions still pending (their waiters die with the epoch) and
        push executing requests — up to a send window of them — back to
        the front of their queues, oldest first, for idempotent
        re-execution."""
        self._epoch_id += 1
        for shard in range(self.map.num_shards):
            for proc in self._dispatchers[shard]:
                proc.kill()
            self._dispatchers[shard] = []
            stuck = self._executing[shard]
            self._executing[shard] = []
            for state in sorted(stuck, key=lambda s: (s.enqueued_at, s.rid),
                                reverse=True):
                state.attempts += 1
                self.counters.epoch_retries += 1
                self._queues[shard].appendleft(state)
            self._drained[shard].ring()

    def _on_view_installed(self, view) -> None:
        """A committed view was installed: re-derive the map, rebind
        the service, count re-routes, and spawn the epoch's dispatchers."""
        if view.view_id == 0:
            return  # initial build; start() handles it
        old_map = self.map
        new_map = old_map.rederive(view)
        self.service.rebind(view)
        moved = old_map.moved_shards(new_map)
        for shard in moved:
            self.counters.reroutes += (
                len(self._queues[shard]) + len(self._executing[shard])) or 1
        self.map = new_map
        old_gateways = dict(self._last_gateways)
        self._snapshot_gateways()
        for sg, node in self._last_gateways.items():
            if sg in old_gateways and old_gateways[sg] != node:
                self.counters.gateway_changes += 1
        self._spawn_dispatchers()

    def _snapshot_gateways(self) -> None:
        self._last_gateways = {}
        for sg in self.map.subgroup_ids:
            try:
                self._last_gateways[sg] = self.service.gateway(sg)
            except (RuntimeError, KeyError):
                continue

    # ------------------------------------------------------------ rebalance

    def freeze(self, shard: int) -> None:
        """Stop executing (not accepting) requests for one shard —
        rebalance hand-off protocol, docs/SHARDING.md."""
        self._frozen.add(shard)

    def unfreeze(self, shard: int) -> None:
        self._frozen.discard(shard)
        self._bells[shard].ring()

    def drain_executing(self, shard: int):
        """Generator: wait until no request of this shard is mid-flight
        on a replica (queued requests stay queued while frozen)."""
        while self._executing[shard]:
            yield self._drained[shard].wait()

    def install_map(self, new_map: ShardMap) -> None:
        """Atomically swap the placement (rebalance commit point)."""
        moved = self.map.moved_shards(new_map)
        for shard in moved:
            self.counters.reroutes += (
                len(self._queues[shard]) + len(self._executing[shard])) or 1
        self.map = new_map
        for bell in self._bells:
            bell.ring()

    # -------------------------------------------------------------- queries

    def queue_depth(self, shard: int) -> int:
        return len(self._queues[shard])

    def executing(self, shard: int) -> int:
        """Requests a dispatcher has handed to the gateway and not yet
        completed (what a gateway crash catches mid-flight): at most the
        gateway's send window, plus one per dispatcher waiting for a
        slot in it."""
        return len(self._executing[shard])

    def inflight(self, shard: int) -> int:
        return len(self._queues[shard]) + len(self._executing[shard])

    # -------------------------------------------------------------- metrics

    def _register_metrics(self) -> None:
        registry = self.cluster.metrics

        def mirror() -> None:
            for shard in range(self.map.num_shards):
                scope = registry.scoped(shard=shard)
                scope.timer("spindle_router_queue_wait_seconds",
                            "time requests spent in the shard queue"
                            ).set_to(*self._queue_wait[shard])
                scope.timer("spindle_router_service_seconds",
                            "time requests spent executing on the subgroup"
                            ).set_to(*self._service[shard])
            c = self.counters
            registry.counter("spindle_router_requests_total",
                             "requests admitted").set_to(c.accepted)
            registry.counter("spindle_router_completed_total",
                             "requests completed").set_to(c.completed)
            registry.counter("spindle_router_timeouts_total",
                             "requests expired in queue").set_to(c.timeouts)
            for reason in REJECT_REASONS:
                registry.counter(
                    "spindle_router_rejected_total",
                    "admission-control rejects, by reason",
                    reason=reason).set_to(c.rejected.get(reason, 0))
            registry.counter("spindle_router_reroutes_total",
                             "requests re-routed by shard moves"
                             ).set_to(c.reroutes)
            registry.counter("spindle_router_epoch_retries_total",
                             "requests replayed across a view change"
                             ).set_to(c.epoch_retries)
            registry.counter("spindle_router_stale_reads_total",
                             "stale fast-path reads served"
                             ).set_to(c.stale_reads)
            registry.counter("spindle_router_settle_reserved_total",
                             "txn settles admitted via the reserved lane"
                             ).set_to(c.settle_reserved)
            duplicates = sum(r.duplicates_skipped
                             for r in self.service.replicas.values())
            registry.counter("spindle_router_duplicates_total",
                             "rid-deduplicated replays").set_to(duplicates)
            registry.gauge("spindle_shard_map_version",
                           "installed shard-map version").set(self.map.version)
            for shard in range(self.map.num_shards):
                registry.gauge(
                    "spindle_router_queue_depth",
                    "queued requests per shard",
                    shard=shard).set(len(self._queues[shard]))

        registry.add_collector(mirror)

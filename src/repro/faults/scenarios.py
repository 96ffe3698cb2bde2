"""Chaos scenarios: one harness, one driver, one table of specs.

A scenario is a *value*: a frozen :class:`Scenario` naming its cluster
shape, planes, workload, :class:`FaultSchedule`, stop rule, auditors,
counter floors and the few conditions that are its own (``expect``).
:func:`run` executes any spec through one fixed phase order — build,
recorders, planes, auditor arming, workload, faults, drivers, run,
floors, ``expect``, auditors, result — and returns a
:class:`ScenarioResult` whose ``ok``/``problems`` encode the protocol
invariants the run must uphold (identical survivor delivery logs, view
agreement, quiescence, minority stall, zero acknowledged loss —
docs/FAULTS.md). Because a spec is data, ``dataclasses.replace`` derives
variants: replay a failure artifact's schedule, empty the schedule, or
map CLI flags on (``spindle-repro recover``).

Everything is deterministic in ``(spec, seed)``: the cluster seed, the
schedule seed, and the fault plane's RNG all derive from the one
``seed`` argument, so ``run_scenario(name, seed)`` executed twice yields
byte-identical delivery logs and trace fingerprints — that property is
pinned by tests/test_chaos_determinism.py and re-checked on every
``spindle-repro chaos`` invocation via ``--repeat``. The fingerprint
orders same-instant events by construction order, so the phase order
above is part of the pinned behaviour.

    from repro.faults.scenarios import run_scenario, SCENARIOS
    result = run_scenario("partition-heal", seed=7)
    assert result.ok, result.problems
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.units import ms, us
from .schedule import (CrashEvent, FaultSchedule, JitterEvent, PartitionEvent,
                       StallEvent, StorageFaultEvent)

__all__ = ["ScenarioResult", "Scenario", "Run", "SCENARIOS", "run",
           "run_scenario", "scenario_names"]


@dataclass
class ScenarioResult:
    """Outcome of one chaos scenario run (JSON-friendly via ``to_dict``)."""

    name: str
    seed: int
    ok: bool
    problems: List[str]
    duration: float
    delivered: Dict[int, int]
    #: sha256 over every node's ordered delivery log — the replay pin.
    log_digest: str
    #: sha256 over the full protocol event timeline (Tracer.fingerprint).
    trace_fingerprint: str
    drops_by_reason: Dict[str, int]
    fault_counters: Dict[str, int]
    #: node -> list of installed successor-view member tuples.
    views: Dict[int, List[Tuple[int, ...]]]
    schedule_json: str
    notes: List[str] = field(default_factory=list)
    #: Black-box linearizability audit (repro.analysis.linearize), for
    #: scenarios that drive a KV/shard workload; None when not audited.
    linearizability: Optional[dict] = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["delivered"] = {str(k): v for k, v in self.delivered.items()}
        out["views"] = {str(k): [list(m) for m in v]
                        for k, v in self.views.items()}
        return out


@dataclass(frozen=True)
class Scenario:
    """One chaos scenario, declaratively. Plane configs are keyword
    dicts for the config class named beside each (``None`` = plane
    off), so the table imports no plane at module load."""

    name: str
    #: What the run exercises and must uphold; ``chaos --list`` prints
    #: the first line.
    summary: str
    nodes: int
    #: Key into :data:`WORKLOADS`, and that workload's parameters.
    workload: str
    load: dict
    #: Armed through :meth:`FaultPlane.apply`; the run's ``seed``
    #: replaces the schedule's own.
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    #: Stop rule: run to this simulated instant; None = run to quiescence.
    until: Optional[float] = None
    # -- topology: one global subgroup, or ``Cluster.add_shards(**shards)``
    shards: Optional[dict] = None
    senders: Optional[Tuple[int, ...]] = None  # None = every member
    size: int = 512
    window: int = 10
    persistent: bool = False
    # -- planes
    paxos: Optional[dict] = None       # PaxosConfig; None = Spindle
    membership: Optional[dict] = None  # Cluster.enable_membership
    recovery: Optional[dict] = None    # TransferConfig of the coordinator
    router: dict = field(default_factory=dict)  # RouterConfig (sharded)
    txn: Optional[dict] = None         # TxnConfig
    #: Scenario-specific actors started after the faults are armed
    #: (recovery drivers, migrations, probes); each is ``fn(run)``.
    drivers: Tuple[Callable, ...] = ()
    #: Nodes expected to end the run in agreement (None = the live
    #: nodes): the population of the delivery / log / view auditors.
    survivors: Optional[Tuple[int, ...]] = None
    #: Keys into :data:`AUDITORS`, run in order after ``expect``.
    auditors: Tuple[str, ...] = ()
    #: ``"plane.counter" -> least value`` over :meth:`Run.facts`: proof
    #: that the schedule's faults landed and the path the scenario
    #: exists for actually ran (a campaign whose fault never fired, or
    #: whose race never happened, proves nothing).
    floors: Dict[str, int] = field(default_factory=dict)
    #: ``expect(run, problems, notes)``: this scenario's own conditions.
    expect: Optional[Callable] = None


class Run:
    """The scenario harness: one spec armed against one cluster.

    Construction performs every phase up to the stop rule; :meth:`execute`
    runs the simulation, judges it and builds the result. ``state`` holds
    what drivers record for ``facts`` and ``expect``.
    """

    def __init__(self, spec: Scenario, seed: int):
        from ..analysis.trace import Tracer
        from ..core.config import SpindleConfig
        from ..workloads import Cluster

        self.spec, self.seed = spec, seed
        self.state: dict = {}
        self.linearizability: Optional[dict] = None
        # ---- build
        backend = None
        if spec.paxos is not None:
            from ..ordering.paxos import PaxosBackend, PaxosConfig
            backend = PaxosBackend(PaxosConfig(**spec.paxos))
        cluster = self.cluster = Cluster(
            num_nodes=spec.nodes, config=SpindleConfig.optimized(),
            seed=seed, backend=backend)
        shape = dict(window=spec.window, message_size=spec.size,
                     persistent=spec.persistent)
        if spec.shards is not None:
            cluster.add_shards(**shape, **spec.shards)
        else:
            cluster.add_subgroup(senders=spec.senders, **shape)
        if spec.membership is not None:
            cluster.enable_membership(**spec.membership)
        cluster.build()
        #: The subgroups whose deliveries are logged (sharded clusters
        #: tag each entry with its subgroup).
        self.subgroup_ids = (cluster._shard_plan["subgroup_ids"]
                             if spec.shards is not None else [0])
        # ---- recorders: delivery logs, installed views, the tracer
        self.logs: Dict[int, List[tuple]] = {n: [] for n in cluster.node_ids}
        self.views: Dict[int, List[Tuple[int, ...]]] = {
            n: [] for n in cluster.node_ids}
        self._hook_epoch(cluster.view)
        cluster.on_view_installed.append(self._hook_epoch)
        if not cluster.backend.view_synchronous:
            # No membership plane: the backend masks failures itself and
            # a restarted node re-learns the whole log from instance 0,
            # so its delivery log restarts too — the recorded log is the
            # post-recovery replay, comparable with the survivors'.
            cluster.faults.on_restart.append(
                lambda node: self.logs[node].clear())
        self.tracer = Tracer(cluster)
        self.tracer.attach()
        # ---- planes
        if spec.recovery is not None:
            from ..recovery import RecoveryConfig, TransferConfig
            cluster.enable_recovery(RecoveryConfig(
                transfer=TransferConfig(**spec.recovery)))
        self.router = self.plane = None
        if spec.shards is not None:
            from ..shard import RouterConfig
            self.router = cluster.router(RouterConfig(**spec.router))
        if spec.txn is not None:
            from ..txn import TxnConfig
            self.plane = cluster.txn(TxnConfig(**spec.txn))
            cluster.faults.on_restart.append(self._recover_txns)
        # ---- auditor arming, workload, faults, drivers
        for name in spec.auditors:
            arm = AUDITORS[name][0]
            if arm is not None:
                arm(self)
        #: key -> last acknowledged value, and one tuple per returned
        #: client request (service workloads).
        self.expected: Dict[bytes, bytes] = {}
        self.outcomes: List[tuple] = []
        WORKLOADS[spec.workload](self, **spec.load)
        cluster.faults.apply(replace(spec.faults, seed=seed))
        for driver in spec.drivers:
            driver(self)

    def _hook_epoch(self, _view) -> None:
        """Register the delivery and view recorders on the current
        epoch's groups. Groups are rebuilt per view, so hooks die with
        the view they were registered in; this runs at build and again
        from ``on_view_installed``."""
        tagged = self.spec.shards is not None
        for nid, group in self.cluster.groups.items():
            log = self.logs.setdefault(nid, [])
            for sg in self.subgroup_ids:
                if sg in group.multicasts:
                    tag = (sg,) if tagged else ()
                    group.on_delivery(
                        sg, lambda d, log=log, tag=tag: log.append(
                            tag + (d.seq, d.sender, d.size)))
            if group.membership is not None:
                views = self.views.setdefault(nid, [])
                group.membership.on_new_view.append(
                    lambda v, views=views: views.append(v.members))

    def _recover_txns(self, node: int) -> None:
        """A restarted host re-drives the verdicts in its txn WAL."""
        from ..txn.recover import recover_txns

        def recovery_pass():
            self.state["txn_recovery"] = yield from recover_txns(
                self.plane, node=node)

        self.cluster.spawn_sender(recovery_pass(), name="txn-recovery")

    def txn(self, client: int, ops: list, coord: int):
        """One recorded transaction (generator; returns its outcome):
        the write set is declared up front so a client that dies
        mid-commit leaves a pending txn the auditor can place."""
        rec, sim = self.recorder, self.cluster.sim
        writes = {op.key: op.value for op in ops if op.op == "put"}
        tid = rec.invoke(client, sim.now)
        rec.pending_writes(tid, writes)
        out = yield from self.plane.run_txn(ops, coordinator_node=coord)
        if out.status == "committed":
            gets = [op.key for op in ops if op.op == "get"]
            rec.complete(tid, sim.now, reads=dict(zip(gets, out.reads)),
                         writes=writes)
            self.expected.update(writes)
        else:
            rec.drop(tid)
        return out

    def live_replicas(self, key: bytes) -> Optional[List[Tuple[int, dict]]]:
        """``(node, state)`` of every live replica that must hold
        ``key`` (a corpse's state is legitimately stale); None if the
        key maps to a subgroup the current view lacks."""
        live = set(self.cluster.live_nodes())
        if self.router is None:
            return [(nid, self.stores[nid].data)
                    for nid in sorted(self.stores) if nid in live]
        sg = self.router.map.subgroup_of_key(key)
        spec = next((s for s in self.cluster.view.subgroups
                     if s.subgroup_id == sg), None)
        if spec is None:
            return None
        replicas = self.router.service.replicas
        return [(nid, replicas[sg, nid].data) for nid in spec.members
                if nid in live and (sg, nid) in replicas]

    def facts(self) -> Dict[str, dict]:
        """``plane -> counter -> value``: what the run's planes did.
        ``Scenario.floors`` are held against it and the result's notes
        print it, so every spec — a fuzzed one too — explains itself."""
        cluster, state = self.cluster, self.state
        facts = {"faults": cluster.faults.counters(),
                 "drops": cluster.fabric.drops_by_reason(),
                 "storage": cluster.storage.counters()}
        if self.spec.membership is not None:
            facts["membership"] = {"false_alarms": sum(
                sum(group.membership.false_alarms.values())
                for group in cluster.groups.values())}
        if self.spec.recovery is not None:
            # One rejoiner per scenario today; a later one would overwrite.
            for report in cluster.recovery.reports.values():
                facts["recovery"] = {
                    "state": report.state, "cut_retries": report.cut_retries,
                    "replayed": report.replayed.get(0, 0),
                    "fetched": report.fetched.get(0, 0)}
                if 0 in report.transfers:
                    xfer = report.transfers[0]
                    facts["transfer"] = dict(
                        xfer.to_dict(), sources=len(xfer.sources_used))
        if self.router is not None:
            facts["router"] = self.router.counters.to_dict()
        if self.plane is not None:
            facts["txn"] = dict(self.plane.counters.to_dict(),
                                **self.plane.lock_counters())
        for name in ("migration", "txn_recovery"):
            if name in state:
                facts[name] = state[name].to_dict()
        if "power_loss" in state:
            facts["power_loss"] = asdict(state["power_loss"])
        return facts

    def execute(self) -> ScenarioResult:
        spec, cluster = self.spec, self.cluster
        problems: List[str] = []
        if spec.until is None:
            try:
                cluster.run_to_quiescence(max_time=2.0)
            except RuntimeError as exc:
                cluster.run()
                problems.append(f"no quiescence: {exc}")
        else:
            cluster.run(until=spec.until)
            if not cluster.backend.quiesces:
                # Standing timers (Paxos heartbeats) never quiesce:
                # stop them and drain the event queue.
                cluster.stop()
                cluster.run(until=spec.until + ms(1))
        facts = self.facts()
        # The result carries the fault and drop counters as fields.
        notes = [f"{plane}: " + ", ".join(
            f"{k}={v}" for k, v in counters.items() if v)
            for plane, counters in facts.items()
            if plane not in ("faults", "drops") and any(counters.values())]
        if not problems:
            for key, floor in spec.floors.items():
                plane, _, counter = key.partition(".")
                got = facts.get(plane, {}).get(counter, 0)
                if got < floor:
                    problems.append(
                        f"{key} is {got}, expected at least {floor} (a "
                        f"scheduled fault did not fire, or the path it "
                        f"should force did not run)")
            # The scenario's own judgement comes before the shared
            # auditors: it may widen what they hold the run to
            # (``expected``).
            if spec.expect is not None:
                spec.expect(self, problems, notes)
            for name in spec.auditors:
                AUDITORS[name][1](self, problems, notes)
        digest = hashlib.sha256()
        for nid in sorted(self.logs):
            digest.update(f"node {nid}:{self.logs[nid]!r}\n".encode())
        return ScenarioResult(
            name=spec.name, seed=self.seed, ok=not problems,
            problems=problems, duration=cluster.sim.now,
            delivered={nid: len(log) for nid, log in self.logs.items()},
            log_digest=digest.hexdigest(),
            trace_fingerprint=self.tracer.fingerprint(),
            drops_by_reason=cluster.fabric.drops_by_reason(),
            fault_counters=cluster.faults.counters(),
            views=dict(self.views),
            schedule_json=cluster.faults.schedule.to_json(),
            notes=notes, linearizability=self.linearizability)


def run(spec: Scenario, seed: int = 0) -> ScenarioResult:
    """Execute one spec (any spec: a table entry or a ``replace`` of one)."""
    return Run(spec, seed).execute()


# ---------------------------------------------------------------- workloads


def _senders(run: Run, count: int, gap: float = 0.0) -> None:
    """Every sender streams ``count`` messages back to back (``gap``: a
    busy-wait after each)."""
    from ..workloads import continuous_sender

    cluster, spec = run.cluster, run.spec
    for nid in spec.senders or cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=spec.size, delay=gap))


def _kv_epochs(run: Run, puts: int, pad: int, gap: float) -> None:
    """Attach a replicated KV store (apps.kvstore) to subgroup 0 of
    every member and spawn one epoch-tagged writer per member on every
    installed view (the initial view included).

    Recovery scenarios cannot use ``continuous_sender`` — a wedged epoch
    would raise out of it — so each writer issues a bounded burst of
    PUTs with unique per-(view, node) keys and stops cleanly when the
    epoch wedges under it. Stores are *rebound* across epochs (replica
    state carries over, per-epoch waiters are dropped); a node first
    seen in a later view (the rejoiner) gets a fresh store, which the
    recovery applier then rebuilds from the durable log.
    """
    from ..analysis.linearize import HistoryRecorder
    from ..apps.kvstore import attach_store

    cluster = run.cluster
    stores = run.stores = {}
    recorder = run.recorder = HistoryRecorder()

    def writer(store, view_id: int, nid: int):
        try:
            for i in range(puts):
                key = b"k%d.%d.%d" % (view_id, nid, i)
                value = (b"v%d.%d.%d" % (view_id, nid, i)).ljust(pad, b".")
                # History recording is passive (plain list appends, no
                # sim events) — a wedge leaves the op pending, which is
                # exactly what the auditor's semantics want.
                op = recorder.invoke(nid, "put", key, value, cluster.sim.now)
                yield from store.put(key, value)
                recorder.complete(op, cluster.sim.now)
                yield gap
        except RuntimeError:
            return  # epoch wedged mid-write: the view change wins

    def start_epoch(view) -> None:
        for nid, group in cluster.groups.items():
            store = stores.get(nid)
            if store is None:
                stores[nid] = store = attach_store(group, 0)
            else:
                store.rebind(group.subgroup(0))
                group.on_delivery(0, store.apply)
            cluster.spawn_sender(writer(store, view.view_id, nid),
                                 name=f"kv-writer-v{view.view_id}-n{nid}")

    def rebuild(node: int, entries) -> None:
        """Recovery applier: wipe the rejoiner's (volatile, crash-lost)
        KV state and replay the complete durable log through the pure
        state-transition path."""
        stores[node].data.clear()
        for _seq, _sender, payload in entries:
            stores[node].apply_command(payload)

    cluster.on_view_installed.append(start_epoch)
    start_epoch(cluster.view)
    cluster.recovery.set_applier(0, rebuild)
    cluster.recovery.set_checksum(0, lambda nid: stores[nid].checksum())


def _router_clients(run: Run, clients: int, puts: int, gap: float,
                    pad: int = 24) -> None:
    """Spawn ``clients`` deterministic sequential writers against the
    router. Unlike raw subgroup senders these are *service* clients:
    rejections/timeouts surface as outcomes, and view changes are
    absorbed by the router's idempotent replay — so the client bodies
    never see a wedge RuntimeError."""
    from ..analysis.linearize import HistoryRecorder

    sim, router = run.cluster.sim, run.router
    recorder = run.recorder = HistoryRecorder()

    def client(c: int):
        for i in range(puts):
            key = b"c%d.k%d" % (c, i)
            value = (b"v%d.%d" % (c, i)).ljust(pad, b".")
            op = recorder.invoke(c, "put", key, value, sim.now)
            outcome = yield from router.request("put", key, value)
            if outcome.status == "ok":
                recorder.complete(op, sim.now)
                run.expected[key] = value
            elif outcome.status == "rejected":
                # Admission control refused it — the write never
                # entered any log, so it has no history slot.
                recorder.drop(op)
            # "timeout": pending — the effect may or may not land.
            run.outcomes.append((c, i, outcome.status, outcome.attempts,
                                 outcome.shard))
            yield gap

    for c in range(clients):
        run.cluster.spawn_sender(client(c), name=f"shard-client-{c}")


def _txn_clients(run: Run, clients: int, count: int, gap: float, coord: int,
                 txns: Callable) -> None:
    """Spawn ``clients`` sequential transaction clients coordinated at
    node ``coord``: iteration ``i`` of client ``c`` runs the op lists
    ``txns(c, i)`` in turn. The processes die with their coordinator
    host (``TxnPlane.adopt``)."""
    from ..analysis.linearize import TxnHistoryRecorder

    run.recorder = TxnHistoryRecorder()

    def client(c: int):
        for i in range(count):
            for ops in txns(c, i):
                out = yield from run.txn(100 + c, ops, coord)
                run.outcomes.append((c, i, out.status, out.attempts))
            yield gap

    for c in range(clients):
        run.plane.adopt(coord, run.cluster.spawn_sender(
            client(c), name=f"txn-client-{c}"))


WORKLOADS: Dict[str, Callable] = {
    "senders": _senders, "kv-epochs": _kv_epochs,
    "router-clients": _router_clients, "txn-clients": _txn_clients}


# ----------------------------------------------------------------- auditors
# name -> (arm before the workload | None, check(run, problems, notes))


def _population(run: Run) -> List[int]:
    return list(run.spec.survivors or run.cluster.live_nodes())


def _audit_all_delivered(run, problems, _notes) -> None:
    expected = run.spec.load["count"] * len(
        run.spec.senders or run.cluster.node_ids)
    for nid in _population(run):
        if len(run.logs[nid]) != expected:
            problems.append(
                f"node {nid} delivered {len(run.logs[nid])}/{expected}")


def _audit_logs_identical(run, problems, _notes) -> None:
    """Virtual synchrony, per logged subgroup: its members among the
    population hold the identical (sg-filtered) delivery log."""
    population, tagged = _population(run), run.spec.shards is not None
    for sg in run.cluster.view.subgroups:
        if sg.subgroup_id not in run.subgroup_ids:
            continue
        members = [n for n in sg.members if n in population]
        logs = [[e for e in run.logs[n]
                 if not tagged or e[0] == sg.subgroup_id] for n in members]
        for nid, log in zip(members[1:], logs[1:]):
            if log != logs[0]:
                problems.append(
                    f"sg{sg.subgroup_id} delivery logs diverge: "
                    f"node {members[0]} vs node {nid} "
                    f"({len(logs[0])} vs {len(log)} entries)")


def _audit_views(run, problems, _notes) -> None:
    """With ``survivors``: each installed a successor view, the last one
    exactly the survivors. Without: nobody installed any view."""
    want = run.spec.survivors
    for nid in want or run.views:
        installed = run.views[nid]
        if want is None and installed:
            problems.append(
                f"node {nid} installed unexpected view {installed[-1]}")
        elif want is not None and not installed:
            problems.append(f"node {nid} installed no successor view")
        elif want is not None and installed[-1] != want:
            problems.append(f"node {nid} installed view {installed[-1]}, "
                            f"expected {want}")


def _audit_installed_view(run, problems, _notes) -> None:
    """The cluster's installed view ends as exactly the survivors (all
    nodes when unset): failures excised, rejoiners readmitted."""
    want = run.spec.survivors or tuple(run.cluster.node_ids)
    if run.cluster.view.members != want:
        problems.append(f"final view {run.cluster.view.members}, "
                        f"expected {want}")


def _arm_vsync(run) -> None:
    from ..recovery import VsyncVerifier

    run.verifier = VsyncVerifier(run.cluster)


def _audit_vsync(run, problems, notes) -> None:
    """Cross-view virtual synchrony (repro.recovery.verify)."""
    vs = run.verifier.check()
    if not vs.ok:
        problems.extend(f"vsync {v}" for v in vs.violations[:5])
    notes.append(f"vsync: {vs.deliveries_checked} deliveries over "
                 f"{vs.epochs_checked} epochs")


def _audit_rejoin(run, problems, _notes) -> None:
    """Every node the schedule restarts completed the recovery pipeline
    (replay → transfer → join cut) and validated its checksum, across
    at least two view changes, and the final view's replicas converged."""
    cluster = run.cluster
    for node in [e.node for e in cluster.faults.schedule.events
                 if e.kind == "crash" and e.restart_at is not None]:
        report = cluster.recovery.reports.get(node)
        if report is None or not report.done:
            state = report.state if report is not None else "no report"
            extra = report.problems if report is not None else []
            problems.append(f"node {node} did not complete recovery "
                            f"(state={state}, {extra})")
            continue
        xfer = report.transfers.get(0)
        if xfer is None or not xfer.ok:
            problems.append("no successful delta transfer recorded")
        if report.checksum_ok.get(0) is not True:
            problems.append(f"post-rejoin checksum validation failed "
                            f"({report.checksum_ok.get(0)})")
    sums = {nid: run.stores[nid].checksum() for nid in cluster.view.members}
    if len(set(sums.values())) != 1:
        problems.append(f"replica checksums diverge after rejoin: {sums}")
    if cluster.view.view_id < 2:
        problems.append(f"expected >=2 view changes (failure, then join), "
                        f"final view id is {cluster.view.view_id}")


def _fold_audit(run, problems, notes, label, unit, selftest, check) -> None:
    """Run the auditor's seeded-violation self-test, then the real
    check; fold violations into the scenario verdict."""
    if not selftest()[0]:
        problems.append(f"{label} auditor failed its self-test")
    report = check(run.recorder)
    if not report.ok:
        problems.extend(f"{label}: {v}" for v in report.violations[:5])
    notes.append(
        f"{label}: {report.ops_checked} {unit} / "
        f"{report.keys_checked} keys ({report.pending_ops} pending): "
        f"{'ok' if report.ok else 'VIOLATION'}")
    run.linearizability = report.to_dict()


def _audit_linearizability(run, problems, notes) -> None:
    """Wing–Gong check of the recorded KV history, after synthetic
    end-of-run reads: observe every written key on every live replica,
    so replica state enters the recorded history (the auditor can only
    judge what was observed). All reads share one instant — concurrent
    with each other, but strictly after every completed write."""
    from ..analysis.linearize import check_recorder, selftest

    at = run.cluster.sim.now
    for key in sorted({op.key for op in run.recorder.history()
                       if op.kind == "put"}):
        for nid, data in run.live_replicas(key) or ():
            run.recorder.record_read(1000 + nid, key, data.get(key), at)
    _fold_audit(run, problems, notes, "linearizability", "ops",
                selftest, check_recorder)


def _audit_serializability(run, problems, notes) -> None:
    """Txn-granular strict serializability, after one synthetic snapshot
    txn observing every audited key across all shards (gateway replicas,
    one shared instant): the cross-shard observation that forces torn
    transactions into the open."""
    from ..analysis.linearize import check_txn_recorder, txn_selftest

    keys = set()
    for txn in run.recorder.history():
        keys.update(txn.reads)
        keys.update(txn.writes)
    router = run.router
    run.recorder.record_state_read(999, {
        key: router.service.gateway_replica(
            router.map.subgroup_of_key(key)).read(key)
        for key in sorted(keys)}, run.cluster.sim.now)
    _fold_audit(run, problems, notes, "strict serializability", "txns",
                txn_selftest, check_txn_recorder)


def _audit_all_returned(run, problems, _notes) -> None:
    load = run.spec.load
    total = load["clients"] * load.get("puts", load.get("count"))
    if len(run.outcomes) != total:
        problems.append(f"only {len(run.outcomes)}/{total} requests returned")


def _audit_all_ok(run, problems, _notes) -> None:
    good = "ok" if run.plane is None else "committed"
    bad = [o for o in run.outcomes if o[2] != good]
    if bad:
        problems.append(f"{len(bad)} acknowledged requests did not "
                        f"complete {good} (first: {bad[0]})")


def _audit_shards(run, problems, notes) -> None:
    """The sharded service's end state: census (every acknowledged key
    holds its final value on every live replica of the subgroup its
    shard maps to), then the router's cross-shard verifier."""
    mismatches = 0
    for key, value in sorted(run.expected.items()):
        replicas = run.live_replicas(key)
        if replicas is None:
            problems.append(f"key {key!r} maps to a missing subgroup")
            continue
        for nid, data in replicas:
            if data.get(key) != value:
                mismatches += 1
                if mismatches <= 3:
                    problems.append(f"key {key!r} on node {nid}: "
                                    f"{data.get(key)!r} != {value!r}")
    if mismatches > 3:
        problems.append(f"... {mismatches} census mismatches total")
    audit = run.router.verifier.check()
    if not audit.ok:
        problems.extend(f"shard audit: {v}" for v in audit.violations[:5])
    notes.append(f"audit: {audit.shards_checked} shards, "
                 f"{audit.keys_checked} keys on "
                 f"{audit.replicas_checked} replicas")


def _audit_migration(run, problems, _notes) -> None:
    rec = run.state.get("migration")
    if rec is None:
        problems.append("migration driver never completed")
        return
    if not rec.ok:
        problems.append(f"migration failed: {rec.error}")
    if not rec.crc_ok:
        problems.append("hand-off transfer CRC did not validate")
    if not rec.checksum_agree:
        problems.append("target replicas disagree with the source checksum")
    if rec.keys_moved < 1:
        problems.append("migration moved no keys")


def _arm_durable_prefix(run) -> None:
    """Track the highest acknowledged-durable sequence number:
    ``on_durable`` fires only for entries fsynced on *every* member,
    so ``acked[0]`` is exactly the prefix the power-loss zero-loss
    contract covers."""
    acked = run.acked = [-1]
    for nid in run.cluster.node_ids:
        run.cluster.group(nid).on_durable(
            0, lambda w: acked.__setitem__(0, max(acked[0], w)))


def _audit_durable_prefix(run, problems, notes) -> None:
    """Storage-only recovery completed cleanly, and every member's
    recovered durable log contains every acknowledged seq and is
    identical to every other (post-adoption)."""
    cluster, acked_seq = run.cluster, run.acked[0]
    report = run.state.get("power_loss")
    if report is None:
        problems.append("power-loss recovery never completed"
                        + run.state.get("power_loss_refused", ""))
        return
    if not report.ok:
        problems.extend(f"recovery: {p}" for p in report.problems[:5])
    if acked_seq < 0:
        problems.append("no durability watermark advanced before the "
                        "outage (the run proves nothing)")
    notes.append(f"acked durable through seq {acked_seq}")
    logs: Dict[int, list] = {}
    for nid in cluster.node_ids:
        logs[nid], _log_bytes = cluster.durable_log(nid, 0)
        seqs = {e[0] for e in logs[nid]}
        missing = [s for s in range(acked_seq + 1) if s not in seqs]
        if missing:
            problems.append(
                f"node {nid} lost acknowledged entries {missing[:5]} "
                f"(acked through seq {acked_seq})")
    first = cluster.node_ids[0]
    for nid in cluster.node_ids[1:]:
        if logs[nid] != logs[first]:
            problems.append(f"recovered durable logs diverge: "
                            f"node {first} vs node {nid}")


AUDITORS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "all-delivered": (None, _audit_all_delivered),
    "logs-identical": (None, _audit_logs_identical),
    "views": (None, _audit_views),
    "installed-view": (None, _audit_installed_view),
    "rejoin": (None, _audit_rejoin),
    "vsync": (_arm_vsync, _audit_vsync),
    "all-returned": (None, _audit_all_returned),
    "all-ok": (None, _audit_all_ok),
    "migration": (None, _audit_migration),
    "shard-audit": (None, _audit_shards),
    "linearizability": (None, _audit_linearizability),
    "serializability": (None, _audit_serializability),
    "durable-prefix": (_arm_durable_prefix, _audit_durable_prefix),
}


# ------------------------------------------------------------------ drivers


def _power_loss_recovery(run: Run) -> None:
    """After the lights come back (2 ms), reopen every device and
    reconcile longest-log-wins (:func:`repro.recovery.recover_power_loss`,
    which refuses unless the whole cluster is down)."""
    from ..recovery import recover_power_loss

    def driver():
        yield ms(2)
        try:
            run.state["power_loss"] = yield from recover_power_loss(
                run.cluster)
        except RuntimeError as exc:
            run.state["power_loss_refused"] = f" ({exc})"

    run.cluster.spawn_sender(driver(), name="powerloss-recovery")


def _migrate(run: Run, at: float, pin: Optional[Callable] = None) -> None:
    """At ``at``, move the fullest shard of the first subgroup to the
    next subgroup (``pin(run, shard, target)``, a generator, runs first)."""
    router = run.router

    def driver():
        yield at
        src = router.map.subgroup_ids[0]
        # Deterministic pick: the fullest shard (ties: lowest id).
        shard = max(router.map.shards_of_subgroup(src), key=lambda s: (
            len(router.service.shard_items(s, router.map)), -s))
        ids = router.map.subgroup_ids
        target = ids[(ids.index(src) + 1) % len(ids)]
        if pin is not None:
            yield from pin(run, shard, target)
        run.state["migration"] = yield from router.rebalancer.migrate(
            shard, target)

    run.cluster.spawn_sender(driver(), name="rebalance-driver")


def _multi_shard_txn(run: Run, prefix: bytes, tag: bytes) -> list:
    """Puts of ``tag``-A / ``tag``-B to the first two keys derived from
    ``prefix`` that land in distinct subgroups (A in the lower one) — a
    genuinely multi-shard transaction, in key order."""
    from ..txn import TxnOp

    found: Dict[int, bytes] = {}
    i = 0
    while len(found) < 2 and i < 4096:
        key = prefix + b"%d" % i
        found.setdefault(run.router.map.subgroup_of_key(key), key)
        i += 1
    return sorted((TxnOp("put", found[sg], tag + suffix)
                   for sg, suffix in zip(sorted(found), (b"-A", b"-B"))),
                  key=lambda op: op.key)


# ---------------------------------------------------------------- the table

#: Failure-detector timing shared by every membership scenario.
_DETECT = dict(heartbeat_period=us(100), suspicion_timeout=us(500))


def _expect_partition_majority(run, problems, _notes) -> None:
    for nid in (3, 4):
        svc = run.cluster.group(nid).membership
        if run.views[nid]:
            problems.append(f"minority node {nid} installed a view "
                            f"(split brain): {run.views[nid][-1]}")
        if not svc.minority_stalled:
            problems.append(f"minority node {nid} is not stalled "
                            f"(wedged={svc.wedged})")


def _expect_crash_restart(run, problems, _notes) -> None:
    if not run.cluster.fabric.nodes[3].alive:
        problems.append("node 3's NIC was not revived")


def _expect_crash_restart_rejoin(run, problems, _notes) -> None:
    report = run.cluster.recovery.reports.get(3)
    if report is not None and report.done:
        if (0 in report.transfers
                and report.transfers[0].backoff_total <= 0.0):
            problems.append("no backoff delay was accumulated")
        if report.rejoin_view_id is None or report.rejoin_view_id < 2:
            problems.append(f"rejoin view {report.rejoin_view_id} is not "
                            f"a later view")


def _expect_mid_transfer_source_crash(run, problems, _notes) -> None:
    report = run.cluster.recovery.reports.get(4)
    if (report is not None and 0 in report.transfers
            and report.transfers[0].source == 0):
        problems.append("transfer claims completion from the crashed source")


def _expect_power_loss(run, problems, _notes) -> None:
    if run.cluster.view.view_id != 1:
        problems.append(f"successor view not installed "
                        f"(view_id={run.cluster.view.view_id})")


def _expect_paxos_leader_crash(run, problems, notes) -> None:
    observer = run.cluster.mc(1, 0)
    if observer.leader_changes < 1:
        problems.append("no leader election happened despite the crash")
    new_leader = observer.leader_member_rank()
    if new_leader == 0:
        problems.append("survivors still believe the crashed leader")
    notes.append(f"leader changes at node 1: {observer.leader_changes}, "
                 f"new leader member rank: {new_leader}")


def _expect_paxos_crash_restart_rejoin(run, problems, notes) -> None:
    restarted = run.cluster.mc(0, 0)
    if run.cluster.mc(1, 0).leader_changes < 1:
        problems.append("no leader election happened despite the crash")
    if restarted.is_leader:
        problems.append("restarted node reclaimed leadership (it must "
                        "rejoin as a follower)")
    if restarted.incarnation != 1:
        problems.append(f"restarted node's incarnation is "
                        f"{restarted.incarnation}, expected 1")
    notes.append(f"restarted node caught up {len(run.logs[0])} entries, "
                 f"commit watermark {restarted.commit_upto}")


def _snapshot_before_outage(run: Run) -> None:
    """1 us before the first crash, copy every delivery log: each entry
    is an acknowledged write the outage must not lose."""
    def snapshot():
        yield ms(2) - us(1)
        run.state["pre_crash"] = {
            nid: list(run.logs[nid]) for nid in run.cluster.node_ids}

    run.cluster.spawn_sender(snapshot(), name="pre-crash-snapshot")


def _expect_power_loss_paxos(run, problems, notes) -> None:
    cluster = run.cluster
    acked = set()
    for log in run.state.get("pre_crash", {}).values():
        acked |= {(seq, sender) for seq, sender, _size in log}
    if not acked:
        problems.append("nothing was delivered before the outage")
    for nid in cluster.node_ids:
        lost = acked - {(seq, sender) for seq, sender, _size in run.logs[nid]}
        if lost:
            problems.append(f"node {nid} lost {len(lost)} acknowledged "
                            f"entries after power loss "
                            f"(first: {sorted(lost)[:3]})")
        if cluster.mc(nid, 0).incarnation < 1:
            problems.append(f"node {nid} did not bump its incarnation "
                            f"on WAL recovery")
    notes.append(f"pre-crash acked {len(acked)} distinct entries")


def _watch_gateway_crash(run: Run) -> None:
    """At each crash, count the requests executing on subgroup 0's
    shards — the ones the dead gateway takes with it."""
    router = run.router
    lost = run.state["lost_in_flight"] = []
    run.cluster.faults.on_crash.append(lambda _node: lost.append(sum(
        router.executing(s) for s in router.map.shards_of_subgroup(0))))


def _expect_shard_failover(run, problems, notes) -> None:
    c = run.router.counters
    if c.epoch_retries + c.wedge_aborts < 1:
        problems.append("no request crossed the epoch boundary "
                        "(crash landed outside the client window)")
    if not any(run.state["lost_in_flight"]):
        problems.append("no request was executing on the gateway when "
                        "it died (the replay path went unexercised)")
    duplicates = sum(r.duplicates_skipped
                     for r in run.router.service.replicas.values())
    notes.append(f"in flight on the gateway at the crash "
                 f"{run.state['lost_in_flight']}, duplicates skipped "
                 f"{duplicates}")


def _put_then_read_back(c: int, i: int) -> list:
    """A single-shard fast-path put, then (from the second iteration)
    a read of the previous iteration's key."""
    from ..txn import TxnOp

    txns = [[TxnOp("put", b"bg%d.k%d" % (c, i), b"v%d.%d" % (c, i))]]
    if i > 0:
        txns.append([TxnOp("get", b"bg%d.k%d" % (c, i - 1))])
    return txns


def _crash_window_txns(run: Run) -> None:
    """The three transactions placed around the coordinator crash."""
    cluster, plane = run.cluster, run.plane
    coord = run.spec.load["coord"]
    # Pinned multi-shard txn: committed (DECISION=commit fsynced) but
    # the client dies inside the settle window — recovery must re-drive
    # the commit to every participant.
    pin_ops = run.state["pin_ops"] = _multi_shard_txn(run, b"pin.", b"PIN")
    run.recorder.pending_writes(
        run.recorder.invoke(50, 0.0), {op.key: op.value for op in pin_ops})
    plane.spawn_txn(pin_ops, coordinator_node=coord, name="pinned-txn")
    # Doomed multi-shard txn launched 50us before the crash: depending
    # on seed timing it dies pre-BEGIN (invisible), pre-DECISION
    # (presumed abort) or post-DECISION (re-driven) — all must leave
    # the store atomic.
    doom_ops = run.state["doom_ops"] = _multi_shard_txn(
        run, b"doom.", b"DOOM")

    def doomed():
        yield us(950)
        yield from run.txn(51, doom_ops, coord)

    plane.adopt(coord, cluster.spawn_sender(doomed(), name="doomed-txn"))

    # Post-recovery liveness: the restarted coordinator must still
    # commit a fresh multi-shard txn through the same plane. Not
    # adopted: it sleeps through the crash and drives its txn only
    # after the restart+recovery window.
    def post_client():
        yield ms(5)
        run.state["post"] = yield from run.txn(
            52, _multi_shard_txn(run, b"post.", b"POST"), coord)

    cluster.spawn_sender(post_client(), name="txn-post")


def _expect_txn_coordinator_crash(run, problems, notes) -> None:
    router, rep = run.router, run.state.get("txn_recovery")
    if rep is None:
        problems.append("recovery pass never ran")
    elif not rep.ok:
        problems.extend(f"recovery: {p}" for p in rep.problems[:5])
    # The pinned txn passed its commit point: recovery must have landed
    # its writes on every participant.
    run.expected.update((op.key, op.value) for op in run.state["pin_ops"])
    # Atomicity of the doomed txn: all-or-nothing across its shards.
    doom_ops = run.state["doom_ops"]
    present = [router.service.gateway_replica(
        router.map.subgroup_of_key(op.key)).read(op.key) is not None
        for op in doom_ops]
    if any(present) and not all(present):
        problems.append(f"doomed txn torn across shards: {present}")
    if all(present):
        run.expected.update((op.key, op.value) for op in doom_ops)
    # No prepared residue anywhere after recovery.
    for (sg, nid), replica in sorted(router.service.replicas.items()):
        if replica.txn_prepared:
            problems.append(f"sg{sg}@node{nid} left prepared txns "
                            f"{sorted(replica.txn_prepared)}")
        if replica.txn_locks:
            problems.append(f"sg{sg}@node{nid} left txn locks "
                            f"{sorted(replica.txn_locks)}")
    post = run.state.get("post")
    if post is None or post.status != "committed":
        problems.append("post-recovery txn did not commit "
                        "(coordinator not live after restart)")
    notes.append(f"doomed txn {'committed' if all(present) else 'aborted'}")


def _conflicting_2pl_txn(c: int, i: int) -> list:
    from ..txn import TxnOp

    own = TxnOp("put", b"t%d.k%d" % (c, i), b"v%d.%d" % (c, i))
    shared = b"shared.%d" % (i % 2)
    if c == 0 and i % 3 == 0:
        # Writer txn: X-locks the shared key, wounding/blocking
        # the reader clients (wound-wait exercise).
        return [[own, TxnOp("put", shared, b"s%d.%d" % (c, i))]]
    return [[own, TxnOp("get", shared)]]


def _pin_open_txn(run: Run, shard: int, target: int):
    """Pinned txn: one write in the migrating shard, one in the target
    subgroup — multi-shard, so it holds a prepared record through the
    stretched settle window. Returns once it is provably prepared on
    the source — the race this scenario exists to exercise."""
    from ..txn import TxnOp

    router = run.router

    def key_in(prefix: bytes, want: int) -> bytes:
        return next(key for key in (prefix + b"%d" % i for i in range(65536))
                    if router.map.shard_of(key) == want)

    ops = sorted([
        TxnOp("put", key_in(b"pin.", shard), b"PIN-A"),
        TxnOp("put", key_in(
            b"pin2.", router.map.shards_of_subgroup(target)[0]), b"PIN-B"),
    ], key=lambda op: op.key)

    def pinned():
        run.state["pin"] = yield from run.txn(50, ops, 0)

    run.cluster.spawn_sender(pinned(), name="pinned-open-txn")
    source = router.service.gateway_replica(router.map.subgroup_ids[0])
    for _ in range(4000):
        if source.prepared_txns_touching(shard, router.map):
            return
        yield us(5)
    run.state["pin_never_prepared"] = True


def _expect_txn_rebalance_open(run, problems, _notes) -> None:
    if run.state.get("pin_never_prepared"):
        problems.append(
            "pinned txn never reached prepared state on the source")
    pin = run.state.get("pin")
    if pin is None or pin.status != "committed":
        problems.append("pinned txn did not commit across the migration")


def _schedule(*events) -> FaultSchedule:
    return FaultSchedule(events=list(events))


#: name -> spec. Ordering is the CLI's ``--all`` ordering.
SCENARIOS: Dict[str, Scenario] = {spec.name: spec for spec in (
    Scenario(
        name="partition-heal",
        summary="""Transient symmetric partition that heals inside the confirmation
        grace window: RC-buffered writes redeliver, local suspicions rescind
        (false alarms, no published flags), no view change, and every node
        still delivers every message in the same order.""",
        nodes=4, membership=dict(_DETECT, confirmation_grace=us(600)),
        workload="senders", load=dict(count=60),
        faults=_schedule(PartitionEvent(ms(1), ((0, 1), (2, 3)),
                                        heal_at=ms(1.8), mode="buffer")),
        until=ms(60),
        # The cut healed, and writes were buffered across it.
        floors={"faults.heals": 1, "faults.writes_redelivered": 1},
        auditors=("views", "all-delivered", "logs-identical")),
    Scenario(
        name="partition-majority",
        summary="""Hard partition (retry budget exhausted, mode='drop') that never
        heals: the majority side confirms its suspicions and installs a
        successor view excluding the minority; the minority wedges and
        stalls (no quorum) instead of electing a split-brain view.""",
        nodes=5, membership=dict(_DETECT, confirmation_grace=us(500)),
        workload="senders", load=dict(count=40),
        faults=_schedule(PartitionEvent(ms(1), ((0, 1, 2), (3, 4)),
                                        mode="drop")),
        until=ms(60), survivors=(0, 1, 2),
        # A drop-mode cut has no fault-plane counter; the fabric's drop
        # accounting is the proof it landed.
        floors={"drops.partition": 1},
        auditors=("views", "logs-identical"),
        expect=_expect_partition_majority),
    Scenario(
        name="jitter-storm",
        summary="""Cluster-wide latency degradation (extra latency + uniform jitter
        on every link) while all nodes stream: atomic multicast must still
        deliver everything, identically ordered, and the run must quiesce.""",
        nodes=4, workload="senders", load=dict(count=80),
        faults=_schedule(JitterEvent(0.0, ms(20), extra_latency=us(2),
                                     jitter=us(6))),
        auditors=("all-delivered", "logs-identical")),
    Scenario(
        name="sender-stall",
        summary="""GC-like hiccup: one node's whole protocol engine (predicate
        thread + failure detector) freezes for 800 us mid-stream. Its
        heartbeat goes stale past the suspicion timeout but resumes inside
        the grace window, so the suspicion is rescinded (with backoff) and
        the workload completes with no view change.""",
        nodes=4, membership=dict(_DETECT, confirmation_grace=us(700)),
        workload="senders", load=dict(count=60),
        faults=_schedule(StallEvent(ms(1), 2, us(800), scope="node"),
                         StallEvent(ms(4), 2, us(400), scope="predicate")),
        until=ms(60), floors={"faults.stalls_finished": 2},
        auditors=("views", "all-delivered", "logs-identical")),
    Scenario(
        name="leader-crash",
        summary="""Crash the rank-0 leader mid-stream: survivors detect, wedge,
        ragged-trim, and the next live member leads the reconfiguration.
        Every survivor installs the same successor view and holds an
        identical delivery log (virtual synchrony).""",
        nodes=4, window=8, membership=_DETECT,
        workload="senders", load=dict(count=150),
        faults=_schedule(CrashEvent(ms(1), 0)),
        until=ms(80), floors={"faults.crashes": 1}, survivors=(1, 2, 3),
        auditors=("views", "logs-identical")),
    Scenario(
        name="crash-restart",
        summary="""Crash a node and revive its NIC later: the old view has already
        reconfigured around it (protocol re-admission happens at an epoch
        boundary, docs/FAULTS.md), so the restart must not perturb the
        survivors' agreement — it only flips the NIC back to alive.""",
        nodes=4, window=8, membership=_DETECT,
        workload="senders", load=dict(count=100),
        faults=_schedule(CrashEvent(ms(1), 3, restart_at=ms(40))),
        until=ms(80), floors={"faults.restarts": 1}, survivors=(0, 1, 2),
        auditors=("views", "logs-identical"),
        expect=_expect_crash_restart),
    Scenario(
        name="crash-restart-rejoin",
        summary="""Full crash-recovery loop (docs/RECOVERY.md): node 3 crash-stops
        at 1 ms and its NIC revives at 8 ms. The survivors reconfigure
        around it (view 1); on restart the recovery coordinator replays the
        node's durable log off its SSD, pulls the missed delta over the
        wire — with chunk 0's first attempt deterministically dropped, so
        the per-chunk timeout + exponential-backoff path is exercised —
        cuts a join epoch (wedge, settle, ``kind="join"`` trim, drain, tail
        sync) and installs view 2 with the node readmitted. The rejoiner's
        KV state must converge to a byte-identical checksum and the
        cross-view virtual-synchrony verifier must find zero violations.""",
        nodes=4, size=256, window=8, persistent=True, membership=_DETECT,
        recovery=dict(chunk_size=512, chunk_timeout=us(300),
                      drop_chunks=frozenset({0})),
        workload="kv-epochs", load=dict(puts=12, pad=24, gap=us(40)),
        faults=_schedule(CrashEvent(ms(1), 3, restart_at=ms(8))),
        until=ms(30),
        floors={"faults.restarts": 1,
                # The injected chunk drop fired and drove the per-chunk
                # timeout path.
                "transfer.injected_timeouts": 1, "transfer.timeouts": 1,
                # The rejoiner replayed its durable log, and a delta
                # moved over the wire.
                "recovery.replayed": 1, "recovery.fetched": 1},
        auditors=("installed-view", "rejoin", "vsync", "linearizability"),
        expect=_expect_crash_restart_rejoin),
    Scenario(
        name="mid-transfer-source-crash",
        summary="""Recovery under fire: node 4 crashes at 1 ms and revives at 6 ms;
        its state transfer is stretched (small chunks + inter-chunk gap) so
        that node 0 — the transfer source — crash-stops at 8 ms mid-stream.
        The transfer must fail over to the next live source and restart
        from chunk 0 (no cross-source splicing), while the concurrent
        failure view change (view 2 excludes node 0) races the join cut.
        Node 4 must still rejoin, converge, and the verifier must hold
        across all three view transitions.""",
        nodes=5, size=256, window=8, persistent=True, membership=_DETECT,
        recovery=dict(chunk_size=256, chunk_timeout=us(250),
                      inter_chunk_gap=us(100)),
        workload="kv-epochs", load=dict(puts=18, pad=48, gap=us(40)),
        faults=_schedule(CrashEvent(ms(1), 4, restart_at=ms(6)),
                         CrashEvent(ms(8), 0)),
        until=ms(40), survivors=(1, 2, 3, 4),  # node 0 out, node 4 readmitted
        floors={"faults.crashes": 2, "faults.restarts": 1,
                # The source crash forced a failover to a second source.
                "transfer.failovers": 1, "transfer.sources": 2},
        auditors=("installed-view", "rejoin", "vsync", "linearizability"),
        expect=_expect_mid_transfer_source_crash),
    # -- durability plane (docs/DURABILITY.md)
    Scenario(
        name="power-loss",
        summary="""Whole-cluster power loss mid-stream: every node crash-stops in
        the same instant (write caches die — un-fsynced tails are gone;
        fsynced bytes survive), the lights come back, and storage-only
        recovery (:func:`repro.recovery.recover_power_loss`) reopens every
        device, reconciles longest-log-wins, and installs the successor
        view. The contract: every entry whose durability watermark fired
        (fsynced on ALL members) is in every recovered log — un-fsynced
        tail entries may vanish, they were never acknowledged.""",
        nodes=4, size=256, window=8, persistent=True,
        workload="senders", load=dict(count=120),
        faults=_schedule(*(CrashEvent(us(500), nid) for nid in range(4))),
        drivers=(_power_loss_recovery,), until=ms(8),
        floors={"faults.crashes": 4}, auditors=("durable-prefix",),
        expect=_expect_power_loss),
    Scenario(
        name="torn-write",
        summary="""Power loss with hostile storage: fsync completions stall
        cluster-wide (writes pile up volatile), every device is armed to
        *tear* on the crash (a partial frame reaches the platter), then the
        whole cluster loses power mid-stream. Recovery's CRC scan must
        truncate each torn tail, and the zero-acknowledged-loss contract
        must still hold — the stall froze the durability watermark early,
        so everything past it was never acknowledged and is legitimately
        discardable.""",
        nodes=4, size=256, window=8, persistent=True,
        workload="senders", load=dict(count=120),
        faults=_schedule(*(event for nid in range(4) for event in (
            StorageFaultEvent(us(600), nid, "fsync-stall", device="sg0",
                              until=ms(1.5)),
            StorageFaultEvent(us(700), nid, "torn-append", device="sg0"),
            CrashEvent(ms(1), nid)))),
        drivers=(_power_loss_recovery,), until=ms(8),
        # A crash actually tore a tail: arming alone tears nothing
        # unless a volatile frame was pending.
        floors={"faults.storage_faults": 8, "storage.torn_writes": 1},
        auditors=("durable-prefix",)),
    # -- Multi-Paxos backend (docs/ORDERING.md): no membership plane, so
    # views stay empty — the quorum masks failures by leader change.
    Scenario(
        name="paxos-leader-crash",
        summary="""Crash the Multi-Paxos leader (member 0, ballot 0) mid-stream: a
        follower's lease expires, it wins phase 1 with a higher ballot of
        its residue class, re-proposes the in-flight tail, and the
        survivors converge on identical gap-free logs — no membership
        plane, no view change: the quorum masks the failure.""",
        nodes=4, paxos={}, senders=(1, 2, 3), window=8,
        workload="senders", load=dict(count=30, gap=us(50)),
        faults=_schedule(CrashEvent(ms(1), 0)),
        until=ms(40), floors={"faults.crashes": 1}, survivors=(1, 2, 3),
        auditors=("all-delivered", "logs-identical"),
        expect=_expect_paxos_leader_crash),
    Scenario(
        name="paxos-partition-heal",
        summary="""Symmetric partition that splits the group into two minorities
        ({0,1} | {2,3}: neither holds a majority of 3): commits stall on
        both sides — consistency over availability — buffered writes
        redeliver at heal, client retransmits and (possibly dueling)
        elections resolve, and every node ends with the identical complete
        log.""",
        nodes=4, paxos={}, window=8,
        workload="senders", load=dict(count=25, gap=us(40)),
        faults=_schedule(PartitionEvent(ms(1), ((0, 1), (2, 3)),
                                        heal_at=ms(4), mode="buffer")),
        until=ms(60),
        floors={"faults.heals": 1, "faults.writes_redelivered": 1},
        auditors=("all-delivered", "logs-identical")),
    Scenario(
        name="paxos-crash-restart-rejoin",
        summary="""Crash the leader, then power it back on: the survivors elect a
        new leader and keep committing; the restarted node comes back as a
        fresh-incarnation follower, learns the chosen log from instance 0
        (LEARN_REQ catch-up — no recovery coordinator involved), and
        replays it to an entry-for-entry copy of the survivors' logs.""",
        nodes=4, paxos={}, senders=(1, 2, 3), window=8,
        workload="senders", load=dict(count=30, gap=us(50)),
        faults=_schedule(CrashEvent(ms(1), 0, restart_at=ms(8))),
        until=ms(60), floors={"faults.restarts": 1},
        auditors=("all-delivered", "logs-identical"),
        expect=_expect_paxos_crash_restart_rejoin),
    Scenario(
        name="power-loss-paxos",
        summary="""Whole-cluster power loss under the Multi-Paxos backend with
        durable acceptors (docs/ORDERING.md): the workload commits, every
        node crashes in the same window, and each restarts from its
        promise/accept WAL. The ordinary election + learn-from-zero path
        must reconstruct every committed entry — no recovery coordinator,
        no view change: a majority of durable accepts IS the truth, and
        every pre-crash delivery is an acknowledged write whose loss fails
        the scenario.""",
        nodes=3, paxos=dict(durable_acceptors=True), size=256, window=8,
        workload="senders", load=dict(count=20, gap=us(30)),
        faults=_schedule(*(
            CrashEvent(ms(2) + i * us(1), i, restart_at=ms(3) + i * us(10))
            for i in range(3))),
        drivers=(_snapshot_before_outage,), until=ms(40),
        floors={"faults.restarts": 3},
        auditors=("all-delivered", "logs-identical"),
        expect=_expect_power_loss_paxos),
    # -- sharded service plane (docs/SHARDING.md)
    Scenario(
        name="shard-failover",
        summary="""Kill a shard gateway under client load: node 0 — the designated
        sender of subgroup 0, hosting half the shards — crash-stops while
        requests are executing on it (the clients run with no think time so
        that some are) and clients keep submitting through the failover gap
        (rejected ``no_gateway``, retried). The membership plane confirms
        the failure, the successor view promotes the first surviving member
        to sender, the recovery plane installs it, and the router must (a)
        re-derive the shard map for the committed view, (b) follow the
        gateway to the promoted member, (c) replay every request that was
        in flight on the dead gateway idempotently (rid dedup makes replays
        exactly-once even when the original committed pre-wedge), so that
        **every client request still completes "ok"** and the cross-shard
        verifier finds zero violations.""",
        nodes=6, shards=dict(num_shards=4, replication=3, num_subgroups=2),
        size=256, window=8, membership=_DETECT, recovery={},
        router=dict(max_retries=400),
        workload="router-clients", load=dict(clients=4, puts=20, gap=0.0),
        faults=_schedule(CrashEvent(us(150), 0)),
        drivers=(_watch_gateway_crash,), until=ms(40),
        survivors=(1, 2, 3, 4, 5),
        # The gateway followed the crash to the promoted member.
        floors={"faults.crashes": 1, "router.gateway_changes": 1},
        auditors=("installed-view", "all-returned", "all-ok", "shard-audit",
                  "logs-identical", "linearizability"),
        expect=_expect_shard_failover),
    Scenario(
        name="rebalance-under-load",
        summary="""Live shard migration under write load *and* degraded links: a
        jitter storm stretches every link while clients stream PUTs and a
        migration driver moves the fullest shard of subgroup 0 to the next
        subgroup mid-run. The hand-off (freeze, drain, fence, chunked CRC
        transfer, replay through the target's total order, checksum
        agreement, map flip, source delete — docs/SHARDING.md) must commit
        with zero data loss: every client write lands "ok", queued requests
        re-route to the target, and the cross-shard verifier agrees.""",
        nodes=6, shards=dict(num_shards=6, replication=2, num_subgroups=3),
        size=256, window=8,
        workload="router-clients", load=dict(clients=3, puts=40, gap=us(80)),
        faults=_schedule(JitterEvent(0.0, ms(8), extra_latency=us(1),
                                     jitter=us(3))),
        drivers=(partial(_migrate, at=ms(1.5)),),
        # The map flip re-routed a queued request, and the hand-off
        # moved its keys in transfer chunks.
        floors={"router.reroutes": 1, "migration.chunks": 1},
        auditors=("all-returned", "all-ok", "migration", "shard-audit",
                  "logs-identical", "linearizability")),
    # -- transaction plane (docs/TRANSACTIONS.md)
    Scenario(
        name="txn-coordinator-crash",
        summary="""Crash the transaction coordinator's host mid-commit: node 4 (no
        subgroup membership — a pure coordinator) drives single-shard
        fast-path txns plus two multi-shard txns when it crash-stops with a
        DECISION fsynced but the settle round not yet driven. The prepared
        shards must hold their buffered writes pinned until the restarted
        node's :func:`repro.txn.recover.recover_txns` pass re-drives the
        WAL's logged verdicts — no acked write lost, no transaction torn
        across shards, and the txn-granular strict-serializability audit
        must pass over the whole run.""",
        # 2 subgroups x replication 2 consume nodes 0-3; node 4 hosts only
        # the coordinator (and its WAL device).
        nodes=5, shards=dict(num_shards=4, replication=2, num_subgroups=2),
        size=256, window=8,
        # The stretched settle window pins the crash mid-commit: DECISION
        # lands within ~300us, the crash at 1ms, the settle only at ~2.5ms.
        txn=dict(cc="occ", settle_delay=ms(2.5)),
        workload="txn-clients",
        load=dict(clients=2, count=10, gap=us(60), coord=4,
                  txns=_put_then_read_back),
        faults=_schedule(CrashEvent(ms(1), 4, restart_at=ms(4))),
        drivers=(_crash_window_txns,), until=ms(12),
        floors={"faults.crashes": 1, "faults.restarts": 1,
                # The WAL was not empty, and a txn was re-driven (the
                # crash did not miss the settle window) ...
                "txn_recovery.scanned": 1, "txn_recovery.redriven": 1,
                # ... to each of the pinned txn's two participants.
                "txn.recovered_settles": 2},
        auditors=("all-ok", "shard-audit", "logs-identical",
                  "serializability"),
        expect=_expect_txn_coordinator_crash),
    Scenario(
        name="txn-rebalance-open",
        summary="""Live shard migration racing an open transaction: 2PL clients
        stream conflicting multi-shard txns while a pinned txn deliberately
        holds a *prepared* record on the shard being migrated. The migration
        must wait out the prepared txn (``prepared_waits``) because its
        buffered writes live outside the snapshot — and the settle that
        releases it must cut through the frozen router lane (the reserved
        settle lane), or the two would deadlock. Zero write loss, clean
        checksum hand-off, and a passing strict-serializability audit.""",
        nodes=6, shards=dict(num_shards=6, replication=2, num_subgroups=3),
        size=256, window=8,
        txn=dict(cc="2pl", settle_delay=us(800), max_attempts=40),
        workload="txn-clients",
        load=dict(clients=3, count=10, gap=us(120), coord=0,
                  txns=_conflicting_2pl_txn),
        drivers=(partial(_migrate, at=ms(1.2), pin=_pin_open_txn),),
        # The migration waited on the prepared txn (the race happened),
        # and a settle rode the reserved router lane.
        floors={"migration.prepared_waits": 1, "router.settle_reserved": 1},
        auditors=("migration", "all-ok", "all-returned", "shard-audit",
                  "logs-identical", "serializability"),
        expect=_expect_txn_rebalance_open),
)}


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    """Run one named scenario; raises ``KeyError`` on unknown names."""
    try:
        spec = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None
    return run(spec, seed)


#: ``scenario_names()``: the names, in ``--all`` order.
scenario_names: Callable[[], List[str]] = lambda: list(SCENARIOS)

"""Named chaos scenarios: seeded fault campaigns with built-in checks.

Each scenario builds a cluster, arms a :class:`FaultSchedule` through the
cluster's :class:`~repro.faults.plane.FaultPlane`, runs a workload, and
returns a :class:`ScenarioResult` whose ``ok``/``problems`` fields encode
the protocol invariants the run must uphold (identical survivor delivery
logs, view agreement, quiescence, minority stall — docs/FAULTS.md).

Everything is deterministic in ``(scenario, seed)``: the cluster seed,
the schedule seed, and the fault plane's RNG all derive from the one
``seed`` argument, so ``run_scenario(name, seed)`` executed twice yields
byte-identical delivery logs and trace fingerprints — that property is
pinned by tests/test_chaos_determinism.py and re-checked on every
``spindle-repro chaos`` invocation via ``--repeat``.

    from repro.faults.scenarios import run_scenario, SCENARIOS
    result = run_scenario("partition-heal", seed=7)
    assert result.ok, result.problems
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.units import ms, us

__all__ = ["ScenarioResult", "SCENARIOS", "run_scenario", "scenario_names"]


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
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "problems": self.problems,
            "duration": self.duration,
            "delivered": {str(k): v for k, v in self.delivered.items()},
            "log_digest": self.log_digest,
            "trace_fingerprint": self.trace_fingerprint,
            "drops_by_reason": self.drops_by_reason,
            "fault_counters": self.fault_counters,
            "views": {str(k): [list(m) for m in v]
                      for k, v in self.views.items()},
            "schedule_json": self.schedule_json,
            "notes": self.notes,
            "linearizability": self.linearizability,
        }


class _Harness:
    """Shared scenario scaffolding: cluster + logs + views + tracer."""

    def __init__(self, num_nodes: int, seed: int, *,
                 membership: Optional[dict] = None,
                 count: int = 0, size: int = 512, window: int = 10,
                 persistent: bool = False):
        from ..analysis.trace import Tracer
        from ..core.config import SpindleConfig
        from ..workloads import Cluster, continuous_sender

        self.cluster = Cluster(num_nodes=num_nodes,
                               config=SpindleConfig.optimized(), seed=seed)
        self.cluster.add_subgroup(message_size=size, window=window,
                                  persistent=persistent)
        if membership is not None:
            self.cluster.enable_membership(**membership)
        self.cluster.build()
        self.logs: Dict[int, List[tuple]] = {
            nid: [] for nid in self.cluster.node_ids}
        self.views: Dict[int, List[Tuple[int, ...]]] = {
            nid: [] for nid in self.cluster.node_ids}
        for nid in self.cluster.node_ids:
            self.cluster.group(nid).on_delivery(
                0, lambda d, nid=nid: self.logs[nid].append(
                    (d.seq, d.sender, d.size)))
            if membership is not None:
                self.cluster.group(nid).membership.on_new_view.append(
                    lambda v, nid=nid: self.views[nid].append(v.members))
        self.tracer = Tracer(self.cluster)
        self.tracer.attach()
        if count:
            for nid in self.cluster.node_ids:
                self.cluster.spawn_sender(continuous_sender(
                    self.cluster.mc(nid, 0), count=count, size=size))
        self.count = count
        self.size = size

    # ---------------------------------------------------------- multi-epoch

    def track_epochs(self) -> None:
        """Keep the delivery-log and view recorders alive across epoch
        restarts (groups are rebuilt per view, so the hooks registered
        at build time die with the first view — recovery scenarios span
        several). Registered *after* build, so the initial view (whose
        install already fired) is not double-hooked."""
        def rewire(_view) -> None:
            for nid, group in self.cluster.groups.items():
                log = self.logs.setdefault(nid, [])
                group.on_delivery(
                    0, lambda d, log=log: log.append(
                        (d.seq, d.sender, d.size)))
                if group.membership is not None:
                    views = self.views.setdefault(nid, [])
                    group.membership.on_new_view.append(
                        lambda v, views=views: views.append(v.members))

        self.cluster.on_view_installed.append(rewire)

    # ------------------------------------------------------------- reporting

    def log_digest(self) -> str:
        h = hashlib.sha256()
        for nid in sorted(self.logs):
            h.update(f"node {nid}:{self.logs[nid]!r}\n".encode())
        return h.hexdigest()

    def result(self, name: str, seed: int, problems: List[str],
               notes: Optional[List[str]] = None) -> ScenarioResult:
        cluster = self.cluster
        return ScenarioResult(
            name=name, seed=seed, ok=not problems, problems=problems,
            duration=cluster.sim.now,
            delivered={nid: len(log) for nid, log in self.logs.items()},
            log_digest=self.log_digest(),
            trace_fingerprint=self.tracer.fingerprint(),
            drops_by_reason=cluster.fabric.drops_by_reason(),
            fault_counters=cluster.faults.counters(),
            views=dict(self.views),
            schedule_json=cluster.faults.schedule.to_json(),
            notes=notes or [],
        )

    # --------------------------------------------------------------- checks

    def check_all_delivered(self, problems: List[str],
                            nodes: Optional[List[int]] = None,
                            expected: Optional[int] = None) -> None:
        nodes = nodes if nodes is not None else list(self.cluster.node_ids)
        expected = (expected if expected is not None
                    else self.count * len(self.cluster.node_ids))
        for nid in nodes:
            if len(self.logs[nid]) != expected:
                problems.append(
                    f"node {nid} delivered {len(self.logs[nid])}/{expected}")

    def check_logs_identical(self, problems: List[str],
                             nodes: List[int]) -> None:
        reference = self.logs[nodes[0]]
        for nid in nodes[1:]:
            if self.logs[nid] != reference:
                problems.append(
                    f"delivery logs diverge: node {nodes[0]} vs node {nid} "
                    f"({len(reference)} vs {len(self.logs[nid])} entries)")

    def check_views(self, problems: List[str], nodes: List[int],
                    expected_members: Tuple[int, ...]) -> None:
        for nid in nodes:
            if not self.views[nid]:
                problems.append(f"node {nid} installed no successor view")
            elif self.views[nid][-1] != expected_members:
                problems.append(
                    f"node {nid} installed view {self.views[nid][-1]}, "
                    f"expected {expected_members}")

    def check_no_view_change(self, problems: List[str]) -> None:
        for nid, installed in self.views.items():
            if installed:
                problems.append(
                    f"node {nid} installed unexpected view {installed[-1]}")


# ===========================================================================
# The catalog
# ===========================================================================


def scenario_partition_heal(seed: int) -> ScenarioResult:
    """Transient symmetric partition that heals inside the confirmation
    grace window: RC-buffered writes redeliver, local suspicions rescind
    (false alarms, no published flags), no view change, and every node
    still delivers every message in the same order."""
    h = _Harness(4, seed, count=60, membership=dict(
        heartbeat_period=us(100), suspicion_timeout=us(500),
        confirmation_grace=us(600)))
    h.cluster.faults.partition([[0, 1], [2, 3]],
                               at=ms(1), heal_at=ms(1.8), mode="buffer")
    h.cluster.run(until=ms(60))
    problems: List[str] = []
    h.check_no_view_change(problems)
    h.check_all_delivered(problems)
    h.check_logs_identical(problems, list(h.cluster.node_ids))
    if h.cluster.faults.heals != 1:
        problems.append("partition never healed")
    if h.cluster.faults.writes_redelivered == 0:
        problems.append("no writes were buffered across the cut")
    alarms = sum(
        sum(h.cluster.group(n).membership.false_alarms.values())
        for n in h.cluster.node_ids)
    notes = [f"false alarms rescinded: {alarms}",
             f"writes redelivered: {h.cluster.faults.writes_redelivered}"]
    return h.result("partition-heal", seed, problems, notes)


def scenario_partition_majority(seed: int) -> ScenarioResult:
    """Hard partition (retry budget exhausted, mode='drop') that never
    heals: the majority side confirms its suspicions and installs a
    successor view excluding the minority; the minority wedges and
    stalls (no quorum) instead of electing a split-brain view."""
    h = _Harness(5, seed, count=40, membership=dict(
        heartbeat_period=us(100), suspicion_timeout=us(500),
        confirmation_grace=us(500)))
    h.cluster.faults.partition([[0, 1, 2], [3, 4]], at=ms(1), mode="drop")
    h.cluster.run(until=ms(60))
    problems: List[str] = []
    h.check_views(problems, [0, 1, 2], (0, 1, 2))
    h.check_logs_identical(problems, [0, 1, 2])
    for nid in (3, 4):
        svc = h.cluster.group(nid).membership
        if h.views[nid]:
            problems.append(f"minority node {nid} installed a view "
                            f"(split brain): {h.views[nid][-1]}")
        if not svc.minority_stalled:
            problems.append(f"minority node {nid} is not stalled "
                            f"(wedged={svc.wedged})")
    drops = h.cluster.fabric.drops_by_reason()
    if drops.get("partition", 0) == 0:
        problems.append("no writes were dropped by the partition")
    return h.result("partition-majority", seed, problems)


def scenario_jitter_storm(seed: int) -> ScenarioResult:
    """Cluster-wide latency degradation (extra latency + uniform jitter
    on every link) while all nodes stream: atomic multicast must still
    deliver everything, identically ordered, and the run must quiesce."""
    h = _Harness(4, seed, count=80)
    h.cluster.faults.jitter(until=ms(20), extra_latency=us(2),
                            jitter=us(6), at=0.0)
    try:
        h.cluster.run_to_quiescence(max_time=2.0)
    except RuntimeError as exc:
        h.cluster.run()
        return h.result("jitter-storm", seed, [f"no quiescence: {exc}"])
    problems: List[str] = []
    h.check_all_delivered(problems)
    h.check_logs_identical(problems, list(h.cluster.node_ids))
    return h.result("jitter-storm", seed, problems)


def scenario_sender_stall(seed: int) -> ScenarioResult:
    """GC-like hiccup: one node's whole protocol engine (predicate
    thread + failure detector) freezes for 800 us mid-stream. Its
    heartbeat goes stale past the suspicion timeout but resumes inside
    the grace window, so the suspicion is rescinded (with backoff) and
    the workload completes with no view change."""
    h = _Harness(4, seed, count=60, membership=dict(
        heartbeat_period=us(100), suspicion_timeout=us(500),
        confirmation_grace=us(700)))
    h.cluster.faults.stall(2, duration=us(800), at=ms(1), scope="node")
    h.cluster.faults.stall(2, duration=us(400), at=ms(4),
                           scope="predicate")
    h.cluster.run(until=ms(60))
    problems: List[str] = []
    h.check_no_view_change(problems)
    h.check_all_delivered(problems)
    h.check_logs_identical(problems, list(h.cluster.node_ids))
    counters = h.cluster.faults.counters()
    if counters["stalls_finished"] != 2:
        problems.append(f"expected 2 finished stalls, "
                        f"got {counters['stalls_finished']}")
    return h.result("sender-stall", seed, problems)


def scenario_leader_crash(seed: int) -> ScenarioResult:
    """Crash the rank-0 leader mid-stream: survivors detect, wedge,
    ragged-trim, and the next live member leads the reconfiguration.
    Every survivor installs the same successor view and holds an
    identical delivery log (virtual synchrony)."""
    h = _Harness(4, seed, count=150, window=8, membership=dict(
        heartbeat_period=us(100), suspicion_timeout=us(500)))
    h.cluster.faults.crash(0, at=ms(1))
    h.cluster.run(until=ms(80))
    problems: List[str] = []
    h.check_views(problems, [1, 2, 3], (1, 2, 3))
    h.check_logs_identical(problems, [1, 2, 3])
    if h.cluster.faults.crashes != 1:
        problems.append("crash event did not fire")
    return h.result("leader-crash", seed, problems)


def scenario_crash_restart(seed: int) -> ScenarioResult:
    """Crash a node and revive its NIC later: the old view has already
    reconfigured around it (protocol re-admission happens at an epoch
    boundary, docs/FAULTS.md), so the restart must not perturb the
    survivors' agreement — it only flips the NIC back to alive."""
    h = _Harness(4, seed, count=100, window=8, membership=dict(
        heartbeat_period=us(100), suspicion_timeout=us(500)))
    h.cluster.faults.crash(3, at=ms(1), restart_at=ms(40))
    h.cluster.run(until=ms(80))
    problems: List[str] = []
    h.check_views(problems, [0, 1, 2], (0, 1, 2))
    h.check_logs_identical(problems, [0, 1, 2])
    counters = h.cluster.faults.counters()
    if counters["restarts"] != 1:
        problems.append("restart event did not fire")
    if not h.cluster.fabric.nodes[3].alive:
        problems.append("node 3's NIC was not revived")
    return h.result("crash-restart", seed, problems)


def _wire_kv_epochs(h: _Harness, stores: dict, *,
                    puts_per_writer: int, value_pad: int,
                    writer_gap: float, recorder=None) -> None:
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
    from ..apps.kvstore import attach_store

    cluster = h.cluster

    def writer(store, view_id: int, nid: int):
        try:
            for i in range(puts_per_writer):
                key = b"k%d.%d.%d" % (view_id, nid, i)
                value = (b"v%d.%d.%d" % (view_id, nid, i)).ljust(
                    value_pad, b".")
                # History recording is passive (plain list appends, no
                # sim events) — a wedge leaves the op pending, which is
                # exactly what the auditor's semantics want.
                op = (None if recorder is None else recorder.invoke(
                    nid, "put", key, value, cluster.sim.now))
                yield from store.put(key, value)
                if op is not None:
                    recorder.complete(op, cluster.sim.now)
                yield writer_gap
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

    cluster.on_view_installed.append(start_epoch)
    start_epoch(cluster.view)


def _kv_final_reads(cluster, stores: dict, recorder) -> None:
    """Synthetic end-of-run audit reads: observe every written key on
    every replica, so replica state enters the recorded history (the
    auditor can only judge what was observed). All reads share one
    instant — concurrent with each other, but strictly after every
    completed write."""
    keys = sorted({op.key for op in recorder.history()
                   if op.kind == "put"})
    at = cluster.sim.now
    live = set(cluster.live_nodes())
    for nid in sorted(stores):
        if nid not in live:
            continue  # a corpse's store is legitimately stale
        data = stores[nid].data
        for key in keys:
            recorder.record_read(1000 + nid, key, data.get(key), at)


def _finish_audit(problems: List[str], notes: List[str],
                  recorder) -> dict:
    """Run the auditor's seeded-violation self-test, then the real
    check; fold violations into the scenario verdict."""
    from ..analysis.linearize import check_recorder, selftest

    selftest_ok, _ = selftest()
    if not selftest_ok:
        problems.append("linearizability auditor failed its self-test")
    report = check_recorder(recorder)
    if not report.ok:
        problems.extend(
            f"linearizability: {v}" for v in report.violations[:5])
    notes.append(
        f"linearizability: {report.ops_checked} ops / "
        f"{report.keys_checked} keys ({report.pending_ops} pending): "
        f"{'ok' if report.ok else 'VIOLATION'}")
    return report.to_dict()


def _kv_rebuild_applier(stores: dict):
    """Recovery applier: wipe the rejoiner's (volatile, crash-lost) KV
    state and replay the complete durable log through the pure
    state-transition path."""
    def rebuild(node: int, entries) -> None:
        store = stores[node]
        store.data.clear()
        for _seq, _sender, payload in entries:
            store.apply_command(payload)
    return rebuild


def scenario_crash_restart_rejoin(seed: int) -> ScenarioResult:
    """Full crash-recovery loop (docs/RECOVERY.md): node 3 crash-stops
    at 1 ms and its NIC revives at 8 ms. The survivors reconfigure
    around it (view 1); on restart the recovery coordinator replays the
    node's durable log off its SSD, pulls the missed delta over the
    wire — with chunk 0's first attempt deterministically dropped, so
    the per-chunk timeout + exponential-backoff path is exercised —
    cuts a join epoch (wedge, settle, ``kind="join"`` trim, drain, tail
    sync) and installs view 2 with the node readmitted. The rejoiner's
    KV state must converge to a byte-identical checksum and the
    cross-view virtual-synchrony verifier must find zero violations."""
    from ..analysis.linearize import HistoryRecorder
    from ..recovery import RecoveryConfig, TransferConfig, VsyncVerifier

    h = _Harness(4, seed, size=256, window=8, persistent=True,
                 membership=dict(heartbeat_period=us(100),
                                 suspicion_timeout=us(500)))
    h.track_epochs()
    cluster = h.cluster
    stores: Dict[int, object] = {}
    recorder = HistoryRecorder()
    _wire_kv_epochs(h, stores, puts_per_writer=12, value_pad=24,
                    writer_gap=us(40), recorder=recorder)
    coord = cluster.enable_recovery(RecoveryConfig(
        transfer=TransferConfig(chunk_size=512, chunk_timeout=us(300),
                                drop_chunks=frozenset({0}))))
    coord.set_applier(0, _kv_rebuild_applier(stores))
    coord.set_checksum(0, lambda nid: stores[nid].checksum())
    verifier = VsyncVerifier(cluster)

    cluster.faults.crash(3, at=ms(1), restart_at=ms(8))
    cluster.run(until=ms(30))

    problems: List[str] = []
    counters = cluster.faults.counters()
    if counters["restarts"] != 1:
        problems.append("restart event did not fire")
    report = coord.reports.get(3)
    if report is None or not report.done:
        state = report.state if report is not None else "no report"
        extra = report.problems if report is not None else []
        problems.append(f"node 3 did not complete recovery "
                        f"(state={state}, {extra})")
    else:
        xfer = report.transfers.get(0)
        if xfer is None or not xfer.ok:
            problems.append("no successful delta transfer recorded")
        else:
            if xfer.injected_timeouts < 1:
                problems.append("injected chunk drop never fired")
            if xfer.timeouts < 1:
                problems.append("per-chunk timeout path was not exercised")
            if xfer.backoff_total <= 0.0:
                problems.append("no backoff delay was accumulated")
        if report.replayed.get(0, 0) <= 0:
            problems.append("rejoiner replayed nothing from its durable log")
        if report.fetched.get(0, 0) <= 0:
            problems.append("no delta entries moved over the wire")
        if report.checksum_ok.get(0) is not True:
            problems.append(f"post-rejoin checksum validation failed "
                            f"({report.checksum_ok.get(0)})")
        if report.rejoin_view_id is None or report.rejoin_view_id < 2:
            problems.append(f"rejoin view {report.rejoin_view_id} is not "
                            f"a later view")
    if cluster.view.members != (0, 1, 2, 3):
        problems.append(f"final view {cluster.view.members} does not "
                        f"readmit node 3")
    elif cluster.view.view_id < 2:
        problems.append(f"final view id {cluster.view.view_id} < 2")
    sums = {nid: stores[nid].checksum() for nid in sorted(stores)}
    if len(set(sums.values())) != 1:
        problems.append(f"replica checksums diverge after rejoin: {sums}")
    vs = verifier.check()
    if not vs.ok:
        problems.extend(f"vsync {v}" for v in vs.violations[:5])
    if len(verifier.views) < 3:
        problems.append(f"expected >=2 view changes, saw views "
                        f"{sorted(verifier.views)}")
    notes = []
    if report is not None and report.done:
        xfer = report.transfers[0]
        notes = [f"replayed {report.replayed[0]} entries, fetched "
                 f"{report.fetched[0]} over {xfer.chunks} chunks",
                 f"timeouts {xfer.timeouts} (injected "
                 f"{xfer.injected_timeouts}), backoff "
                 f"{xfer.backoff_total * 1e6:.0f} us",
                 f"vsync: {vs.deliveries_checked} deliveries over "
                 f"{vs.epochs_checked} epochs"]
    _kv_final_reads(cluster, stores, recorder)
    lin = _finish_audit(problems, notes, recorder)
    res = h.result("crash-restart-rejoin", seed, problems, notes)
    res.linearizability = lin
    return res


def scenario_mid_transfer_source_crash(seed: int) -> ScenarioResult:
    """Recovery under fire: node 4 crashes at 1 ms and revives at 6 ms;
    its state transfer is stretched (small chunks + inter-chunk gap) so
    that node 0 — the transfer source — crash-stops at 8 ms mid-stream.
    The transfer must fail over to the next live source and restart
    from chunk 0 (no cross-source splicing), while the concurrent
    failure view change (view 2 excludes node 0) races the join cut.
    Node 4 must still rejoin, converge, and the verifier must hold
    across all three view transitions."""
    from ..analysis.linearize import HistoryRecorder
    from ..recovery import RecoveryConfig, TransferConfig, VsyncVerifier

    h = _Harness(5, seed, size=256, window=8, persistent=True,
                 membership=dict(heartbeat_period=us(100),
                                 suspicion_timeout=us(500)))
    h.track_epochs()
    cluster = h.cluster
    stores: Dict[int, object] = {}
    recorder = HistoryRecorder()
    _wire_kv_epochs(h, stores, puts_per_writer=18, value_pad=48,
                    writer_gap=us(40), recorder=recorder)
    coord = cluster.enable_recovery(RecoveryConfig(
        transfer=TransferConfig(chunk_size=256, chunk_timeout=us(250),
                                inter_chunk_gap=us(100))))
    coord.set_applier(0, _kv_rebuild_applier(stores))
    coord.set_checksum(0, lambda nid: stores[nid].checksum())
    verifier = VsyncVerifier(cluster)

    cluster.faults.crash(4, at=ms(1), restart_at=ms(6))
    cluster.faults.crash(0, at=ms(8))
    cluster.run(until=ms(40))

    problems: List[str] = []
    counters = cluster.faults.counters()
    if counters["crashes"] != 2:
        problems.append(f"expected 2 crashes, got {counters['crashes']}")
    if counters["restarts"] != 1:
        problems.append("restart event did not fire")
    report = coord.reports.get(4)
    if report is None or not report.done:
        state = report.state if report is not None else "no report"
        extra = report.problems if report is not None else []
        problems.append(f"node 4 did not complete recovery "
                        f"(state={state}, {extra})")
    else:
        xfer = report.transfers.get(0)
        if xfer is None or not xfer.ok:
            problems.append("no successful delta transfer recorded")
        else:
            if xfer.failovers < 1:
                problems.append("source crash did not force a failover")
            if len(xfer.sources_used) < 2:
                problems.append(f"transfer used sources "
                                f"{xfer.sources_used}, expected >=2")
            if xfer.source == 0:
                problems.append("transfer claims completion from the "
                                "crashed source")
        if report.checksum_ok.get(0) is not True:
            problems.append(f"post-rejoin checksum validation failed "
                            f"({report.checksum_ok.get(0)})")
    if cluster.view.members != (1, 2, 3, 4):
        problems.append(f"final view {cluster.view.members}, expected "
                        f"node 0 out and node 4 readmitted")
    sums = {nid: stores[nid].checksum() for nid in (1, 2, 3, 4)}
    if len(set(sums.values())) != 1:
        problems.append(f"survivor/rejoiner checksums diverge: {sums}")
    vs = verifier.check()
    if not vs.ok:
        problems.extend(f"vsync {v}" for v in vs.violations[:5])
    if len(verifier.views) < 3:
        problems.append(f"expected >=2 view changes, saw views "
                        f"{sorted(verifier.views)}")
    notes = []
    if report is not None and report.done:
        xfer = report.transfers[0]
        notes = [f"failovers {xfer.failovers}, sources {xfer.sources_used}, "
                 f"cut retries {report.cut_retries}",
                 f"fetched {report.fetched.get(0, 0)} entries over "
                 f"{xfer.chunks} chunks after failover",
                 f"vsync: {vs.deliveries_checked} deliveries over "
                 f"{vs.epochs_checked} epochs"]
    _kv_final_reads(cluster, stores, recorder)
    lin = _finish_audit(problems, notes, recorder)
    res = h.result("mid-transfer-source-crash", seed, problems, notes)
    res.linearizability = lin
    return res


# ===========================================================================
# Durability-plane scenarios (docs/DURABILITY.md)
# ===========================================================================


def _durability_watermark(h: _Harness) -> List[int]:
    """Track the highest acknowledged-durable sequence number:
    ``on_durable`` fires only for entries fsynced on *every* member,
    so ``acked[0]`` is exactly the prefix the power-loss zero-loss
    contract covers."""
    acked = [-1]
    for nid in h.cluster.node_ids:
        h.cluster.group(nid).on_durable(
            0, lambda w: acked.__setitem__(0, max(acked[0], w)))
    return acked


def _check_power_loss_logs(h: _Harness, problems: List[str],
                           acked_seq: int) -> None:
    """Every member's recovered durable log must contain every
    acknowledged seq, and all logs must be identical (post-adoption)."""
    logs: Dict[int, list] = {}
    for nid in h.cluster.node_ids:
        entries, _log_bytes = h.cluster.durable_log(nid, 0)
        logs[nid] = entries
        seqs = {e[0] for e in entries}
        missing = [s for s in range(acked_seq + 1) if s not in seqs]
        if missing:
            problems.append(
                f"node {nid} lost acknowledged entries {missing[:5]} "
                f"(acked through seq {acked_seq})")
    first = h.cluster.node_ids[0]
    for nid in h.cluster.node_ids[1:]:
        if logs[nid] != logs[first]:
            problems.append(f"recovered durable logs diverge: "
                            f"node {first} vs node {nid}")


def scenario_power_loss(seed: int) -> ScenarioResult:
    """Whole-cluster power loss mid-stream: every node crash-stops in
    the same instant (write caches die — un-fsynced tails are gone;
    fsynced bytes survive), the lights come back, and storage-only
    recovery (:func:`repro.recovery.recover_power_loss`) reopens every
    device, reconciles longest-log-wins, and installs the successor
    view. The contract: every entry whose durability watermark fired
    (fsynced on ALL members) is in every recovered log — un-fsynced
    tail entries may vanish, they were never acknowledged."""
    from ..recovery import recover_power_loss

    h = _Harness(4, seed, count=120, size=256, window=8, persistent=True)
    h.track_epochs()
    cluster = h.cluster
    acked = _durability_watermark(h)
    for nid in cluster.node_ids:
        cluster.faults.crash(nid, at=us(500))
    reports: List = []

    def driver():
        yield ms(2)
        report = yield from recover_power_loss(cluster)
        reports.append(report)

    cluster.spawn_sender(driver(), name="powerloss-recovery")
    cluster.run(until=ms(8))

    problems: List[str] = []
    if cluster.faults.counters()["crashes"] != 4:
        problems.append("not every node crashed")
    if not reports:
        problems.append("power-loss recovery never completed")
        return h.result("power-loss", seed, problems)
    report = reports[0]
    if not report.ok:
        problems.extend(f"recovery: {p}" for p in report.problems[:5])
    if acked[0] < 0:
        problems.append("no durability watermark advanced before the "
                        "crash (the run proves nothing)")
    if cluster.view.view_id != 1:
        problems.append(f"successor view not installed "
                        f"(view_id={cluster.view.view_id})")
    _check_power_loss_logs(h, problems, acked[0])
    storage = cluster.storage.counters()
    notes = [f"acked through seq {acked[0]}, adopted "
             f"{report.adopted.get(0, 0)} entries (top seq "
             f"{report.adopted_seq.get(0, -1)})",
             f"lost un-fsynced records {storage['lost_tail_records']}, "
             f"disk replay cost {report.read_cost * 1e6:.0f} us"]
    return h.result("power-loss", seed, problems, notes)


def scenario_torn_write(seed: int) -> ScenarioResult:
    """Power loss with hostile storage: fsync completions stall
    cluster-wide (writes pile up volatile), every device is armed to
    *tear* on the crash (a partial frame reaches the platter), then the
    whole cluster loses power mid-stream. Recovery's CRC scan must
    truncate each torn tail, and the zero-acknowledged-loss contract
    must still hold — the stall froze the durability watermark early,
    so everything past it was never acknowledged and is legitimately
    discardable."""
    from ..recovery import recover_power_loss

    h = _Harness(4, seed, count=120, size=256, window=8, persistent=True)
    h.track_epochs()
    cluster = h.cluster
    acked = _durability_watermark(h)
    for nid in cluster.node_ids:
        cluster.faults.storage_fault(nid, "fsync-stall", at=us(600),
                                     until=ms(1.5), device="sg0")
        cluster.faults.storage_fault(nid, "torn-append", at=us(700),
                                     device="sg0")
        cluster.faults.crash(nid, at=ms(1))
    reports: List = []

    def driver():
        yield ms(2)
        report = yield from recover_power_loss(cluster)
        reports.append(report)

    cluster.spawn_sender(driver(), name="powerloss-recovery")
    cluster.run(until=ms(8))

    problems: List[str] = []
    if not reports:
        problems.append("power-loss recovery never completed")
        return h.result("torn-write", seed, problems)
    report = reports[0]
    if not report.ok:
        problems.extend(f"recovery: {p}" for p in report.problems[:5])
    storage = cluster.storage.counters()
    if storage["torn_writes"] < 1:
        problems.append("no crash actually tore a tail (fault armed "
                        "but no volatile frame was pending)")
    if cluster.faults.counters()["storage_faults"] != 8:
        problems.append(f"expected 8 storage faults armed, got "
                        f"{cluster.faults.counters()['storage_faults']}")
    if acked[0] < 0:
        problems.append("no durability watermark advanced before the "
                        "fsync stall")
    _check_power_loss_logs(h, problems, acked[0])
    notes = [f"torn tails {storage['torn_writes']}, records CRC-dropped "
             f"at reopen {report.dropped_on_reopen}, lost un-fsynced "
             f"{storage['lost_tail_records']}",
             f"acked through seq {acked[0]}, adopted "
             f"{report.adopted.get(0, 0)} entries"]
    return h.result("torn-write", seed, problems, notes)


# ===========================================================================
# Multi-Paxos backend scenarios (docs/ORDERING.md)
# ===========================================================================


class _PaxosHarness(_Harness):
    """Scenario scaffolding for ``Cluster(backend="paxos")``.

    No membership plane (the backend masks failures internally via
    leader change), so views stay empty; a restarted node re-learns the
    whole log from instance 0, so its delivery log is reset at the
    restart event — the recorded log is then the post-recovery replay,
    comparable entry-for-entry with the survivors'.
    """

    def __init__(self, num_nodes: int, seed: int, *, count: int,
                 senders: Optional[List[int]] = None, size: int = 512,
                 window: int = 8, send_gap: float = 0.0,
                 paxos_config=None):
        from ..analysis.trace import Tracer
        from ..core.config import SpindleConfig
        from ..workloads import Cluster, continuous_sender

        backend = "paxos"
        if paxos_config is not None:
            from ..ordering.paxos import PaxosBackend
            backend = PaxosBackend(paxos_config)
        self.cluster = Cluster(num_nodes=num_nodes,
                               config=SpindleConfig.optimized(), seed=seed,
                               backend=backend)
        sender_ids = senders if senders is not None else self.cluster.node_ids
        self.cluster.add_subgroup(senders=sender_ids, message_size=size,
                                  window=window)
        self.cluster.build()
        self.logs: Dict[int, List[tuple]] = {
            nid: [] for nid in self.cluster.node_ids}
        self.views: Dict[int, List[Tuple[int, ...]]] = {
            nid: [] for nid in self.cluster.node_ids}
        for nid in self.cluster.node_ids:
            self.cluster.group(nid).on_delivery(
                0, lambda d, nid=nid: self.logs[nid].append(
                    (d.seq, d.sender, d.size)))
        self.cluster.faults.on_restart.append(
            lambda node: self.logs[node].clear())
        self.tracer = Tracer(self.cluster)
        self.tracer.attach()
        for nid in sender_ids:
            self.cluster.spawn_sender(continuous_sender(
                self.cluster.mc(nid, 0), count=count, size=size,
                delay=send_gap))
        self.count = count
        self.size = size
        self.senders = list(sender_ids)

    def run(self, until: float) -> None:
        """Drive the run, then stop the standing timers (heartbeats
        never quiesce) and drain the event queue."""
        self.cluster.run(until=until)
        self.cluster.stop()
        self.cluster.run(until=until + ms(1))

    def leader_changes(self, observer: int) -> int:
        return self.cluster.mc(observer, 0).leader_changes


def scenario_paxos_leader_crash(seed: int) -> ScenarioResult:
    """Crash the Multi-Paxos leader (member 0, ballot 0) mid-stream: a
    follower's lease expires, it wins phase 1 with a higher ballot of
    its residue class, re-proposes the in-flight tail, and the
    survivors converge on identical gap-free logs — no membership
    plane, no view change: the quorum masks the failure."""
    h = _PaxosHarness(4, seed, count=30, senders=[1, 2, 3],
                      send_gap=us(50))
    h.cluster.faults.crash(0, at=ms(1))
    h.run(until=ms(40))
    problems: List[str] = []
    h.check_all_delivered(problems, nodes=[1, 2, 3],
                          expected=30 * 3)
    h.check_logs_identical(problems, [1, 2, 3])
    if h.cluster.faults.crashes != 1:
        problems.append("crash event did not fire")
    changes = h.leader_changes(1)
    if changes < 1:
        problems.append("no leader election happened despite the crash")
    new_leader = h.cluster.mc(1, 0).leader_member_rank()
    if new_leader == 0:
        problems.append("survivors still believe the crashed leader")
    notes = [f"leader changes at node 1: {changes}, "
             f"new leader member rank: {new_leader}"]
    return h.result("paxos-leader-crash", seed, problems, notes)


def scenario_paxos_partition_heal(seed: int) -> ScenarioResult:
    """Symmetric partition that splits the group into two minorities
    ({0,1} | {2,3}: neither holds a majority of 3): commits stall on
    both sides — consistency over availability — buffered writes
    redeliver at heal, client retransmits and (possibly dueling)
    elections resolve, and every node ends with the identical complete
    log."""
    h = _PaxosHarness(4, seed, count=25, send_gap=us(40))
    h.cluster.faults.partition([[0, 1], [2, 3]],
                               at=ms(1), heal_at=ms(4), mode="buffer")
    h.run(until=ms(60))
    problems: List[str] = []
    h.check_all_delivered(problems, expected=25 * 4)
    h.check_logs_identical(problems, list(h.cluster.node_ids))
    if h.cluster.faults.heals != 1:
        problems.append("partition never healed")
    if h.cluster.faults.writes_redelivered == 0:
        problems.append("no writes were buffered across the cut")
    notes = [f"writes redelivered: {h.cluster.faults.writes_redelivered}",
             f"leader changes at node 0: {h.leader_changes(0)}"]
    return h.result("paxos-partition-heal", seed, problems, notes)


def scenario_paxos_crash_restart_rejoin(seed: int) -> ScenarioResult:
    """Crash the leader, then power it back on: the survivors elect a
    new leader and keep committing; the restarted node comes back as a
    fresh-incarnation follower, learns the chosen log from instance 0
    (LEARN_REQ catch-up — no recovery coordinator involved), and
    replays it to an entry-for-entry copy of the survivors' logs."""
    h = _PaxosHarness(4, seed, count=30, senders=[1, 2, 3],
                      send_gap=us(50))
    h.cluster.faults.crash(0, at=ms(1), restart_at=ms(8))
    h.run(until=ms(60))
    problems: List[str] = []
    h.check_all_delivered(problems, expected=30 * 3)
    h.check_logs_identical(problems, list(h.cluster.node_ids))
    counters = h.cluster.faults.counters()
    if counters["restarts"] != 1:
        problems.append("restart event did not fire")
    if h.leader_changes(1) < 1:
        problems.append("no leader election happened despite the crash")
    if h.cluster.mc(0, 0).is_leader:
        problems.append("restarted node reclaimed leadership (it must "
                        "rejoin as a follower)")
    if h.cluster.mc(0, 0).incarnation != 1:
        problems.append(f"restarted node's incarnation is "
                        f"{h.cluster.mc(0, 0).incarnation}, expected 1")
    notes = [f"restarted node caught up {len(h.logs[0])} entries, "
             f"commit watermark {h.cluster.mc(0, 0).commit_upto}"]
    return h.result("paxos-crash-restart-rejoin", seed, problems, notes)


def scenario_power_loss_paxos(seed: int) -> ScenarioResult:
    """Whole-cluster power loss under the Multi-Paxos backend with
    durable acceptors (docs/ORDERING.md): the workload commits, every
    node crashes in the same window, and each restarts from its
    promise/accept WAL. The ordinary election + learn-from-zero path
    must reconstruct every committed entry — no recovery coordinator,
    no view change: a majority of durable accepts IS the truth, and
    every pre-crash delivery is an acknowledged write whose loss fails
    the scenario."""
    from ..ordering.paxos import PaxosConfig

    h = _PaxosHarness(3, seed, count=20, size=256, send_gap=us(30),
                      paxos_config=PaxosConfig(durable_acceptors=True))
    cluster = h.cluster
    pre_crash: Dict[int, List[tuple]] = {}

    def snapshot():
        yield ms(2) - us(1)
        for nid in cluster.node_ids:
            pre_crash[nid] = list(h.logs[nid])

    cluster.spawn_sender(snapshot(), name="pre-crash-snapshot")
    for i, nid in enumerate(cluster.node_ids):
        cluster.faults.crash(nid, at=ms(2) + i * us(1),
                             restart_at=ms(3) + i * us(10))
    h.run(until=ms(40))

    problems: List[str] = []
    counters = cluster.faults.counters()
    if counters["restarts"] != 3:
        problems.append(f"expected 3 restarts, got {counters['restarts']}")
    acked = set()
    for log in pre_crash.values():
        acked |= {(seq, sender) for seq, sender, _size in log}
    if not acked:
        problems.append("nothing was delivered before the outage")
    for nid in cluster.node_ids:
        have = {(seq, sender) for seq, sender, _size in h.logs[nid]}
        lost = acked - have
        if lost:
            problems.append(f"node {nid} lost {len(lost)} acknowledged "
                            f"entries after power loss "
                            f"(first: {sorted(lost)[:3]})")
    h.check_all_delivered(problems, expected=20 * 3)
    h.check_logs_identical(problems, list(cluster.node_ids))
    for nid in cluster.node_ids:
        if cluster.mc(nid, 0).incarnation < 1:
            problems.append(f"node {nid} did not bump its incarnation "
                            f"on WAL recovery")
    wal = cluster.storage.counters()
    notes = [f"pre-crash acked {len(acked)} distinct entries, final "
             f"log {len(h.logs[cluster.node_ids[0]])} entries per node",
             f"WAL fsyncs {wal['fsyncs']}, lost un-fsynced records "
             f"{wal['lost_tail_records']}"]
    return h.result("power-loss-paxos", seed, problems, notes)


# ===========================================================================
# Sharded service plane scenarios (docs/SHARDING.md)
# ===========================================================================


class _ShardHarness(_Harness):
    """Scenario scaffolding for the sharded service plane: builds the
    cluster through :meth:`Cluster.add_shards` (multiple disjoint
    subgroups) instead of one global subgroup, and records delivery
    logs on *every* plan subgroup as ``(sg, seq, sender, size)``."""

    def __init__(self, num_nodes: int, seed: int, *, num_shards: int,
                 replication: int, num_subgroups: Optional[int] = None,
                 membership: Optional[dict] = None, window: int = 16,
                 size: int = 256, persistent: bool = False):
        from ..analysis.trace import Tracer
        from ..core.config import SpindleConfig
        from ..workloads import Cluster

        self.cluster = Cluster(num_nodes=num_nodes,
                               config=SpindleConfig.optimized(), seed=seed)
        self.cluster.add_shards(num_shards=num_shards,
                                replication=replication,
                                num_subgroups=num_subgroups,
                                window=window, message_size=size)
        if membership is not None:
            self.cluster.enable_membership(**membership)
        self.cluster.build()
        self.subgroup_ids = list(self.cluster._shard_plan["subgroup_ids"])
        self.logs: Dict[int, List[tuple]] = {
            nid: [] for nid in self.cluster.node_ids}
        self.views: Dict[int, List[Tuple[int, ...]]] = {
            nid: [] for nid in self.cluster.node_ids}
        self._hook_epoch()
        self.tracer = Tracer(self.cluster)
        self.tracer.attach()
        self.count = 0
        self.size = size

    def _hook_epoch(self) -> None:
        """Register delivery/view recorders on the current epoch's
        groups (re-run from :meth:`track_epochs` after each install)."""
        for nid, group in self.cluster.groups.items():
            log = self.logs.setdefault(nid, [])
            for sg in self.subgroup_ids:
                if sg not in group.multicasts:
                    continue
                group.on_delivery(
                    sg, lambda d, log=log, sg=sg: log.append(
                        (sg, d.seq, d.sender, d.size)))
            if group.membership is not None:
                views = self.views.setdefault(nid, [])
                group.membership.on_new_view.append(
                    lambda v, views=views: views.append(v.members))

    def track_epochs(self) -> None:
        self.cluster.on_view_installed.append(
            lambda _view: self._hook_epoch())

    # --------------------------------------------------------------- checks

    def check_subgroup_logs_identical(self, problems: List[str]) -> None:
        """Per-subgroup virtual synchrony: every live member of a plan
        subgroup must hold the identical (sg-filtered) delivery log."""
        live = set(self.cluster.live_nodes())
        for spec in self.cluster.view.subgroups:
            if spec.subgroup_id not in self.subgroup_ids:
                continue
            members = [n for n in spec.members if n in live]
            if len(members) < 2:
                continue
            ref = [e for e in self.logs[members[0]]
                   if e[0] == spec.subgroup_id]
            for nid in members[1:]:
                mine = [e for e in self.logs[nid]
                        if e[0] == spec.subgroup_id]
                if mine != ref:
                    problems.append(
                        f"sg{spec.subgroup_id} delivery logs diverge: "
                        f"node {members[0]} vs node {nid} "
                        f"({len(ref)} vs {len(mine)} entries)")

    def check_census(self, problems: List[str], router,
                     expected: Dict[bytes, bytes]) -> None:
        """Every written key must hold its final value on every live
        replica of the subgroup its shard maps to."""
        live = set(self.cluster.live_nodes())
        specs = {sg.subgroup_id: sg for sg in self.cluster.view.subgroups}
        missing = 0
        for key in sorted(expected):
            sg = router.map.subgroup_of_key(key)
            spec = specs.get(sg)
            if spec is None:
                problems.append(f"key {key!r} maps to missing sg{sg}")
                continue
            for nid in spec.members:
                if nid not in live:
                    continue
                replica = router.service.replicas.get((sg, nid))
                if replica is None:
                    continue
                got = replica.data.get(key)
                if got != expected[key]:
                    missing += 1
                    if missing <= 3:
                        problems.append(
                            f"key {key!r} on node {nid} sg{sg}: "
                            f"{got!r} != {expected[key]!r}")
        if missing > 3:
            problems.append(f"... {missing} census mismatches total")


def _shard_clients(h: _ShardHarness, router, expected: Dict[bytes, bytes],
                   outcomes: List, *, clients: int, puts_per_client: int,
                   gap: float, value_pad: int = 24, recorder=None) -> None:
    """Spawn ``clients`` deterministic sequential writers against the
    router. Unlike raw subgroup senders these are *service* clients:
    rejections/timeouts surface as outcomes, and view changes are
    absorbed by the router's idempotent replay — so the client bodies
    never see a wedge RuntimeError."""
    sim = h.cluster.sim

    def client(c: int):
        for i in range(puts_per_client):
            key = b"c%d.k%d" % (c, i)
            value = (b"v%d.%d" % (c, i)).ljust(value_pad, b".")
            op = (None if recorder is None else recorder.invoke(
                c, "put", key, value, sim.now))
            outcome = yield from router.request("put", key, value)
            if op is not None:
                if outcome.status == "ok":
                    recorder.complete(op, sim.now)
                elif outcome.status == "rejected":
                    # Admission control refused it — the write never
                    # entered any log, so it has no history slot.
                    recorder.drop(op)
                # "timeout": pending — the effect may or may not land.
            outcomes.append((c, i, outcome.status, outcome.attempts,
                             outcome.shard))
            if outcome.status == "ok":
                expected[key] = value
            yield gap

    for c in range(clients):
        h.cluster.spawn_sender(client(c), name=f"shard-client-{c}")


def _shard_final_reads(h: _ShardHarness, router, recorder) -> None:
    """Synthetic end-of-run audit reads of every written key on every
    live replica of the subgroup the key's shard maps to."""
    keys = sorted({op.key for op in recorder.history()
                   if op.kind == "put"})
    live = set(h.cluster.live_nodes())
    specs = {sg.subgroup_id: sg for sg in h.cluster.view.subgroups}
    at = h.cluster.sim.now
    for key in keys:
        sg = router.map.subgroup_of_key(key)
        spec = specs.get(sg)
        if spec is None:
            continue
        for nid in spec.members:
            if nid not in live:
                continue
            replica = router.service.replicas.get((sg, nid))
            if replica is None:
                continue
            recorder.record_read(1000 + nid, key,
                                 replica.data.get(key), at)


def scenario_shard_failover(seed: int) -> ScenarioResult:
    """Kill a shard gateway under client load: node 0 — the designated
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
    verifier finds zero violations."""
    from ..analysis.linearize import HistoryRecorder
    from ..shard import RouterConfig

    h = _ShardHarness(6, seed, num_shards=4, replication=3,
                      num_subgroups=2, window=8,
                      membership=dict(heartbeat_period=us(100),
                                      suspicion_timeout=us(500)))
    h.track_epochs()
    cluster = h.cluster
    cluster.enable_recovery()
    router = cluster.router(RouterConfig(max_retries=400))

    expected: Dict[bytes, bytes] = {}
    outcomes: List[tuple] = []
    recorder = HistoryRecorder()
    _shard_clients(h, router, expected, outcomes,
                   clients=4, puts_per_client=20, gap=0.0,
                   recorder=recorder)

    lost_in_flight: List[int] = []
    cluster.faults.on_crash.append(lambda _node: lost_in_flight.append(sum(
        router.executing(s) for s in router.map.shards_of_subgroup(0))))
    cluster.faults.crash(0, at=us(150))
    cluster.run(until=ms(40))

    problems: List[str] = []
    if cluster.faults.crashes != 1:
        problems.append("crash event did not fire")
    if cluster.view.members != (1, 2, 3, 4, 5):
        problems.append(f"final view {cluster.view.members} does not "
                        f"exclude the crashed gateway")
    total = 4 * 20
    if len(outcomes) != total:
        problems.append(f"only {len(outcomes)}/{total} requests returned")
    not_ok = [o for o in outcomes if o[2] != "ok"]
    if not_ok:
        problems.append(f"{len(not_ok)} requests did not complete ok "
                        f"(first: {not_ok[0]})")
    c = router.counters
    if c.gateway_changes < 1:
        problems.append("gateway never changed despite the crash")
    if c.epoch_retries + c.wedge_aborts < 1:
        problems.append("no request crossed the epoch boundary "
                        "(crash landed outside the client window)")
    if not any(lost_in_flight):
        problems.append("no request was executing on the gateway when "
                        "it died (the replay path went unexercised)")
    h.check_census(problems, router, expected)
    h.check_subgroup_logs_identical(problems)
    audit = router.verifier.check()
    if not audit.ok:
        problems.extend(f"shard audit: {v}" for v in audit.violations[:5])
    notes = [f"in flight on the gateway at the crash {lost_in_flight}, "
             f"rejected {dict(sorted(c.rejected.items()))}",
             f"gateway changes {c.gateway_changes}, epoch retries "
             f"{c.epoch_retries}, wedge aborts {c.wedge_aborts}, "
             f"duplicates {sum(r.duplicates_skipped for r in router.service.replicas.values())}",
             f"audit: {audit.shards_checked} shards, "
             f"{audit.keys_checked} keys checked"]
    _shard_final_reads(h, router, recorder)
    lin = _finish_audit(problems, notes, recorder)
    res = h.result("shard-failover", seed, problems, notes)
    res.linearizability = lin
    return res


def scenario_rebalance_under_load(seed: int) -> ScenarioResult:
    """Live shard migration under write load *and* degraded links: a
    jitter storm stretches every link while clients stream PUTs and a
    migration driver moves the fullest shard of subgroup 0 to the next
    subgroup mid-run. The hand-off (freeze, drain, fence, chunked CRC
    transfer, replay through the target's total order, checksum
    agreement, map flip, source delete — docs/SHARDING.md) must commit
    with zero data loss: every client write lands "ok", queued requests
    re-route to the target, and the cross-shard verifier agrees."""
    from ..analysis.linearize import HistoryRecorder

    h = _ShardHarness(6, seed, num_shards=6, replication=2,
                      num_subgroups=3, window=8)
    cluster = h.cluster
    router = cluster.router()
    service = router.service

    cluster.faults.jitter(until=ms(8), extra_latency=us(1),
                          jitter=us(3), at=0.0)

    expected: Dict[bytes, bytes] = {}
    outcomes: List[tuple] = []
    recorder = HistoryRecorder()
    _shard_clients(h, router, expected, outcomes,
                   clients=3, puts_per_client=40, gap=us(80),
                   recorder=recorder)

    records: List = []

    def driver():
        yield ms(1.5)
        src = router.map.subgroup_ids[0]
        shards = router.map.shards_of_subgroup(src)
        # Deterministic pick: the fullest shard (ties: lowest id).
        shard = max(shards, key=lambda s: (
            len(service.shard_items(s, router.map)), -s))
        ids = router.map.subgroup_ids
        target = ids[(ids.index(src) + 1) % len(ids)]
        record = yield from router.rebalancer.migrate(shard, target)
        records.append(record)

    cluster.spawn_sender(driver(), name="rebalance-driver")
    try:
        cluster.run_to_quiescence(max_time=2.0)
    except RuntimeError as exc:
        cluster.run()
        return h.result("rebalance-under-load", seed,
                        [f"no quiescence: {exc}"])

    problems: List[str] = []
    total = 3 * 40
    if len(outcomes) != total:
        problems.append(f"only {len(outcomes)}/{total} requests returned")
    not_ok = [o for o in outcomes if o[2] != "ok"]
    if not_ok:
        problems.append(f"{len(not_ok)} requests did not complete ok "
                        f"(first: {not_ok[0]})")
    if not records:
        problems.append("migration driver never completed")
    else:
        rec = records[0]
        if not rec.ok:
            problems.append(f"migration failed: {rec.error}")
        if not rec.crc_ok:
            problems.append("hand-off transfer CRC did not validate")
        if not rec.checksum_agree:
            problems.append("target replicas disagree with the source "
                            "checksum")
        if rec.keys_moved < 1:
            problems.append("migration moved no keys")
        if rec.chunks < 1:
            problems.append("hand-off used no transfer chunks")
    if router.counters.reroutes < 1:
        problems.append("no request was re-routed by the map flip")
    h.check_census(problems, router, expected)
    h.check_subgroup_logs_identical(problems)
    audit = router.verifier.check()
    if not audit.ok:
        problems.extend(f"shard audit: {v}" for v in audit.violations[:5])
    notes = []
    if records:
        rec = records[0]
        notes = [f"shard {rec.shard}: sg{rec.source_subgroup} -> "
                 f"sg{rec.target_subgroup}, {rec.keys_moved} keys / "
                 f"{rec.bytes_moved} bytes over {rec.chunks} chunks",
                 f"reroutes {router.counters.reroutes}, rejected "
                 f"{dict(router.counters.rejected)}",
                 f"audit: {audit.keys_checked} keys on "
                 f"{audit.replicas_checked} replicas"]
    _shard_final_reads(h, router, recorder)
    lin = _finish_audit(problems, notes, recorder)
    res = h.result("rebalance-under-load", seed, problems, notes)
    res.linearizability = lin
    return res


# ===========================================================================
# Transaction-plane scenarios (docs/TRANSACTIONS.md)
# ===========================================================================


def _txn_keys_in_distinct_subgroups(router, prefix: bytes,
                                    count: int = 2) -> List[bytes]:
    """Deterministically derive ``count`` keys that land in pairwise
    distinct subgroups (so a txn over them is genuinely multi-shard)."""
    found: Dict[int, bytes] = {}
    i = 0
    while len(found) < count and i < 4096:
        key = prefix + b"%d" % i
        sg = router.map.subgroup_of_key(key)
        if sg not in found:
            found[sg] = key
        i += 1
    return [found[sg] for sg in sorted(found)]


def _txn_key_in_shard(router, prefix: bytes, shard: int) -> bytes:
    for i in range(65536):
        key = prefix + b"%d" % i
        if router.map.shard_of(key) == shard:
            return key
    raise RuntimeError(f"no {prefix!r} key hashes into shard {shard}")


def _txn_final_state_read(h, router, recorder) -> None:
    """One synthetic snapshot txn observing every audited key across
    all shards (gateway replicas, one shared instant): the cross-shard
    observation that forces torn transactions into the open."""
    keys = set()
    for txn in recorder.history():
        keys.update(txn.reads)
        keys.update(txn.writes)
    state = {}
    for key in sorted(keys):
        sg = router.map.subgroup_of_key(key)
        state[key] = router.service.gateway_replica(sg).read(key)
    recorder.record_state_read(999, state, h.cluster.sim.now)


def _finish_txn_audit(problems: List[str], notes: List[str],
                      recorder) -> dict:
    """Self-test the txn auditor, then run the strict-serializability
    check; fold violations into the scenario verdict."""
    from ..analysis.linearize import check_txn_recorder, txn_selftest

    selftest_ok, _ = txn_selftest()
    if not selftest_ok:
        problems.append("txn serializability auditor failed its self-test")
    report = check_txn_recorder(recorder)
    if not report.ok:
        problems.extend(
            f"strict serializability: {v}" for v in report.violations[:5])
    notes.append(
        f"strict serializability: {report.ops_checked} txns / "
        f"{report.keys_checked} keys ({report.pending_ops} pending): "
        f"{'ok' if report.ok else 'VIOLATION'}")
    return report.to_dict()


def scenario_txn_coordinator_crash(seed: int) -> ScenarioResult:
    """Crash the transaction coordinator's host mid-commit: node 4 (no
    subgroup membership — a pure coordinator) drives single-shard
    fast-path txns plus two multi-shard txns when it crash-stops with a
    DECISION fsynced but the settle round not yet driven. The prepared
    shards must hold their buffered writes pinned until the restarted
    node's :func:`repro.txn.recover.recover_txns` pass re-drives the
    WAL's logged verdicts — no acked write lost, no transaction torn
    across shards, and the txn-granular strict-serializability audit
    must pass over the whole run."""
    from ..analysis.linearize import TxnHistoryRecorder
    from ..txn import TxnConfig, TxnOp
    from ..txn.recover import recover_txns

    # 2 subgroups x replication 2 consume nodes 0-3; node 4 hosts only
    # the coordinator (and its WAL device).
    h = _ShardHarness(5, seed, num_shards=4, replication=2,
                      num_subgroups=2, window=8)
    cluster = h.cluster
    coord = 4
    # The stretched settle window pins the crash mid-commit: DECISION
    # lands within ~300us, the crash at 1ms, the settle only at ~2.5ms.
    plane = cluster.txn(TxnConfig(cc="occ", settle_delay=ms(2.5)))
    router = plane.router
    sim = cluster.sim
    recorder = TxnHistoryRecorder()
    expected: Dict[bytes, bytes] = {}
    outcomes: List[tuple] = []

    def bg_client(c: int, count: int):
        for i in range(count):
            key = b"bg%d.k%d" % (c, i)
            value = b"v%d.%d" % (c, i)
            tid = recorder.invoke(100 + c, sim.now)
            recorder.pending_writes(tid, {key: value})
            out = yield from plane.run_txn(
                [TxnOp("put", key, value)], coordinator_node=coord)
            if out.status == "committed":
                recorder.complete(tid, sim.now, writes={key: value})
                expected[key] = value
            else:
                recorder.drop(tid)
            outcomes.append((c, i, out.status, out.attempts))
            if i > 0:
                prev = b"bg%d.k%d" % (c, i - 1)
                rid = recorder.invoke(100 + c, sim.now)
                rout = yield from plane.run_txn(
                    [TxnOp("get", prev)], coordinator_node=coord)
                if rout.status == "committed":
                    recorder.complete(rid, sim.now,
                                      reads={prev: rout.reads[0]})
                else:
                    recorder.drop(rid)
            yield us(60)

    for c in range(2):
        proc = cluster.spawn_sender(bg_client(c, 10), name=f"txn-bg-{c}")
        plane.adopt(coord, proc)

    # Pinned multi-shard txn: committed (DECISION=commit fsynced) but
    # the client dies inside the settle window — recovery must re-drive
    # the commit to every participant.
    pin_keys = _txn_keys_in_distinct_subgroups(router, b"pin.")
    pin_writes = {pin_keys[0]: b"PIN-A", pin_keys[1]: b"PIN-B"}
    pin_tid = recorder.invoke(50, 0.0)
    recorder.pending_writes(pin_tid, pin_writes)
    plane.spawn_txn([TxnOp("put", k, v) for k, v in sorted(pin_writes.items())],
                    coordinator_node=coord, name="pinned-txn")

    # Doomed multi-shard txn launched 50us before the crash: depending
    # on seed timing it dies pre-BEGIN (invisible), pre-DECISION
    # (presumed abort) or post-DECISION (re-driven) — all must leave
    # the store atomic.
    doom_keys = _txn_keys_in_distinct_subgroups(router, b"doom.")
    doom_writes = {doom_keys[0]: b"DOOM-A", doom_keys[1]: b"DOOM-B"}

    def doomed():
        yield us(950)
        tid = recorder.invoke(51, sim.now)
        recorder.pending_writes(tid, doom_writes)
        out = yield from plane.run_txn(
            [TxnOp("put", k, v) for k, v in sorted(doom_writes.items())],
            coordinator_node=coord)
        if out.status == "committed":
            recorder.complete(tid, sim.now, writes=dict(doom_writes))

    plane.adopt(coord, cluster.spawn_sender(doomed(), name="doomed-txn"))

    cluster.faults.crash(coord, at=ms(1), restart_at=ms(4))
    reports: List = []

    def on_restart(node: int) -> None:
        if node != coord:
            return

        def recovery_pass():
            rep = yield from recover_txns(plane, node=coord)
            reports.append(rep)

        cluster.spawn_sender(recovery_pass(), name="txn-recovery")

    cluster.faults.on_restart.append(on_restart)

    # Post-recovery liveness: the restarted coordinator must still
    # commit a fresh multi-shard txn through the same plane.
    post: List = []

    def post_client():
        yield ms(5)
        keys = _txn_keys_in_distinct_subgroups(router, b"post.")
        writes = {keys[0]: b"POST-A", keys[1]: b"POST-B"}
        tid = recorder.invoke(52, sim.now)
        recorder.pending_writes(tid, writes)
        out = yield from plane.run_txn(
            [TxnOp("put", k, v) for k, v in sorted(writes.items())],
            coordinator_node=coord)
        post.append(out)
        if out.status == "committed":
            recorder.complete(tid, sim.now, writes=writes)
            expected.update(writes)

    # Not adopted: it sleeps through the crash and drives its txn only
    # after the restart+recovery window.
    cluster.spawn_sender(post_client(), name="txn-post")

    cluster.run(until=ms(12))

    problems: List[str] = []
    if cluster.faults.crashes != 1:
        problems.append("coordinator crash never fired")
    if cluster.faults.restarts != 1:
        problems.append("coordinator restart never fired")
    if not reports:
        problems.append("recovery pass never ran")
        rep = None
    else:
        rep = reports[0]
        if not rep.ok:
            problems.extend(f"recovery: {p}" for p in rep.problems[:5])
        if rep.scanned < 1:
            problems.append("recovery scanned an empty WAL")
        if rep.redriven < 1:
            problems.append("no txn was re-driven "
                            "(crash missed the settle window)")
    # The pinned txn passed its commit point: recovery must have landed
    # its writes on every participant.
    expected.update(pin_writes)
    if plane.counters.recovered_settles < 2:
        problems.append("recovery drove fewer settles than the pinned "
                        "txn's participant count")
    # Atomicity of the doomed txn: all-or-nothing across its shards.
    present = [router.service.gateway_replica(
        router.map.subgroup_of_key(k)).read(k) is not None
        for k in doom_keys]
    if any(present) and not all(present):
        problems.append(f"doomed txn torn across shards: {present}")
    if all(present):
        expected.update(doom_writes)
    # No prepared residue anywhere after recovery.
    for (sg, nid), replica in sorted(router.service.replicas.items()):
        if replica.txn_prepared:
            problems.append(f"sg{sg}@node{nid} left prepared txns "
                            f"{sorted(replica.txn_prepared)}")
        if replica.txn_locks:
            problems.append(f"sg{sg}@node{nid} left txn locks "
                            f"{sorted(replica.txn_locks)}")
    not_ok = [o for o in outcomes if o[2] != "committed"]
    if not_ok:
        problems.append(f"{len(not_ok)} acked background txns did not "
                        f"commit (first: {not_ok[0]})")
    if not post or post[0].status != "committed":
        problems.append("post-recovery txn did not commit "
                        "(coordinator not live after restart)")
    h.check_census(problems, router, expected)
    h.check_subgroup_logs_identical(problems)
    audit = router.verifier.check()
    if not audit.ok:
        problems.extend(f"shard audit: {v}" for v in audit.violations[:5])
    c = plane.counters
    notes = [f"txns: {c.committed} committed / {c.aborted} aborted, "
             f"{c.fastpath_commits} fastpath, {c.wal_records} WAL records",
             f"recovery: scanned {rep.scanned}, redriven {rep.redriven}, "
             f"presumed-abort {rep.presumed_abort}, completed "
             f"{rep.completed}" if rep is not None else "recovery: none",
             f"recovered settles {c.recovered_settles}, doomed txn "
             f"{'committed' if all(present) else 'aborted'}"]
    _txn_final_state_read(h, router, recorder)
    lin = _finish_txn_audit(problems, notes, recorder)
    res = h.result("txn-coordinator-crash", seed, problems, notes)
    res.linearizability = lin
    return res


def scenario_txn_rebalance_open(seed: int) -> ScenarioResult:
    """Live shard migration racing an open transaction: 2PL clients
    stream conflicting multi-shard txns while a pinned txn deliberately
    holds a *prepared* record on the shard being migrated. The migration
    must wait out the prepared txn (``prepared_waits``) because its
    buffered writes live outside the snapshot — and the settle that
    releases it must cut through the frozen router lane (the reserved
    settle lane), or the two would deadlock. Zero write loss, clean
    checksum hand-off, and a passing strict-serializability audit."""
    from ..analysis.linearize import TxnHistoryRecorder
    from ..txn import TxnConfig, TxnOp

    h = _ShardHarness(6, seed, num_shards=6, replication=2,
                      num_subgroups=3, window=8)
    cluster = h.cluster
    plane = cluster.txn(TxnConfig(cc="2pl", settle_delay=us(800),
                                  max_attempts=40))
    router = plane.router
    service = router.service
    sim = cluster.sim
    recorder = TxnHistoryRecorder()
    expected: Dict[bytes, bytes] = {}
    outcomes: List[tuple] = []

    def bg_client(c: int, count: int):
        for i in range(count):
            own = b"t%d.k%d" % (c, i)
            value = b"v%d.%d" % (c, i)
            shared = b"shared.%d" % (i % 2)
            if c == 0 and i % 3 == 0:
                # Writer txn: X-locks the shared key, wounding/blocking
                # the reader clients (wound-wait exercise).
                ops = [TxnOp("put", own, value),
                       TxnOp("put", shared, b"s%d.%d" % (c, i))]
            else:
                ops = [TxnOp("put", own, value), TxnOp("get", shared)]
            tid = recorder.invoke(100 + c, sim.now)
            out = yield from plane.run_txn(ops, coordinator_node=0)
            outcomes.append((c, i, out.status, out.attempts))
            if out.status == "committed":
                writes = {op.key: op.value for op in ops if op.op == "put"}
                reads = ({shared: out.reads[0]}
                         if out.reads else {})
                recorder.complete(tid, sim.now, reads=reads, writes=writes)
                for k, v in writes.items():
                    expected[k] = v
            else:
                recorder.drop(tid)
            yield us(120)

    for c in range(3):
        cluster.spawn_sender(bg_client(c, 10), name=f"txn-2pl-{c}")

    records: List = []
    pin_sink: List = []
    driver_problems: List[str] = []

    def driver():
        yield ms(1.2)
        src = router.map.subgroup_ids[0]
        shards = router.map.shards_of_subgroup(src)
        shard = max(shards, key=lambda s: (
            len(service.shard_items(s, router.map)), -s))
        ids = router.map.subgroup_ids
        target = ids[(ids.index(src) + 1) % len(ids)]
        # Pinned txn: one write in the migrating shard, one in the
        # target subgroup — multi-shard, so it holds a prepared record
        # through the stretched settle window.
        key_a = _txn_key_in_shard(router, b"pin.", shard)
        key_b = _txn_key_in_shard(
            router, b"pin2.", router.map.shards_of_subgroup(target)[0])
        pin_writes = {key_a: b"PIN-A", key_b: b"PIN-B"}

        def pinned():
            tid = recorder.invoke(50, sim.now)
            out = yield from plane.run_txn(
                [TxnOp("put", k, v) for k, v in sorted(pin_writes.items())],
                coordinator_node=0)
            pin_sink.append(out)
            if out.status == "committed":
                recorder.complete(tid, sim.now, writes=dict(pin_writes))
                expected.update(pin_writes)

        cluster.spawn_sender(pinned(), name="pinned-open-txn")
        # Only migrate once the pinned txn is provably prepared on the
        # source — the race this scenario exists to exercise.
        source_rep = service.gateway_replica(src)
        for _ in range(4000):
            if source_rep.prepared_txns_touching(shard, router.map):
                break
            yield us(5)
        else:
            driver_problems.append(
                "pinned txn never reached prepared state on the source")
        record = yield from router.rebalancer.migrate(shard, target)
        records.append(record)

    cluster.spawn_sender(driver(), name="txn-rebalance-driver")
    try:
        cluster.run_to_quiescence(max_time=2.0)
    except RuntimeError as exc:
        cluster.run()
        return h.result("txn-rebalance-open", seed,
                        [f"no quiescence: {exc}"])

    problems: List[str] = list(driver_problems)
    if not records:
        problems.append("migration driver never completed")
    else:
        rec = records[0]
        if not rec.ok:
            problems.append(f"migration failed: {rec.error}")
        if not rec.crc_ok:
            problems.append("hand-off transfer CRC did not validate")
        if not rec.checksum_agree:
            problems.append("target replicas disagree with the source "
                            "checksum")
        if rec.keys_moved < 1:
            problems.append("migration moved no keys")
        if rec.prepared_waits < 1:
            problems.append("migration never waited on the prepared txn "
                            "(the race was not exercised)")
    if not pin_sink or pin_sink[0].status != "committed":
        problems.append("pinned txn did not commit across the migration")
    not_ok = [o for o in outcomes if o[2] != "committed"]
    if not_ok:
        problems.append(f"{len(not_ok)} txns did not commit "
                        f"(first: {not_ok[0]})")
    total = 3 * 10
    if len(outcomes) != total:
        problems.append(f"only {len(outcomes)}/{total} txns returned")
    if router.counters.settle_reserved < 1:
        problems.append("no settle rode the reserved router lane")
    h.check_census(problems, router, expected)
    h.check_subgroup_logs_identical(problems)
    audit = router.verifier.check()
    if not audit.ok:
        problems.extend(f"shard audit: {v}" for v in audit.violations[:5])
    c = plane.counters
    locks = plane.lock_counters()
    notes = []
    if records:
        rec = records[0]
        notes.append(
            f"shard {rec.shard}: sg{rec.source_subgroup} -> "
            f"sg{rec.target_subgroup}, {rec.keys_moved} keys, "
            f"prepared waits {rec.prepared_waits}")
    notes.append(
        f"txns: {c.committed} committed / {c.aborted} aborted in "
        f"{c.attempts} attempts; locks: {locks['acquired']} acquired, "
        f"{locks['wounds']} wounds, {locks['wait_aborts']} wait aborts")
    notes.append(
        f"settles through reserved lane: "
        f"{router.counters.settle_reserved}")
    _txn_final_state_read(h, router, recorder)
    lin = _finish_txn_audit(problems, notes, recorder)
    res = h.result("txn-rebalance-open", seed, problems, notes)
    res.linearizability = lin
    return res


#: name -> scenario function. Ordering is the CLI's ``--all`` ordering.
SCENARIOS: Dict[str, Callable[[int], ScenarioResult]] = {
    "partition-heal": scenario_partition_heal,
    "partition-majority": scenario_partition_majority,
    "jitter-storm": scenario_jitter_storm,
    "sender-stall": scenario_sender_stall,
    "leader-crash": scenario_leader_crash,
    "crash-restart": scenario_crash_restart,
    "crash-restart-rejoin": scenario_crash_restart_rejoin,
    "mid-transfer-source-crash": scenario_mid_transfer_source_crash,
    "power-loss": scenario_power_loss,
    "torn-write": scenario_torn_write,
    "paxos-leader-crash": scenario_paxos_leader_crash,
    "paxos-partition-heal": scenario_paxos_partition_heal,
    "paxos-crash-restart-rejoin": scenario_paxos_crash_restart_rejoin,
    "power-loss-paxos": scenario_power_loss_paxos,
    "shard-failover": scenario_shard_failover,
    "rebalance-under-load": scenario_rebalance_under_load,
    "txn-coordinator-crash": scenario_txn_coordinator_crash,
    "txn-rebalance-open": scenario_txn_rebalance_open,
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    """Run one named scenario; raises ``KeyError`` on unknown names."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None
    return fn(seed)

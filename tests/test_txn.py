"""Transaction-plane tests (docs/TRANSACTIONS.md).

Covers the cross-shard coordinator end to end: CC x ordering-backend
conformance, the single-shard fast path, scatter-gather rounds (fan-out
cost, ordered OCC retries, vote aggregation), replica-side dedup by
(txn_id, shard) slot, the reserved settle lane, wound-wait age
retention, WAL recovery, and seeded + hypothesis sweeps checking strict
serializability of contended histories.
"""

import bisect

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.linearize import (
    TxnHistoryRecorder,
    check_txn_recorder,
    txn_selftest,
)
from repro.core.config import SpindleConfig
from repro.shard.router import RouterConfig
from repro.sim import Simulator
from repro.sim.units import ms, us
from repro.txn import (
    LockTable,
    TxnAborted,
    TxnConfig,
    TxnHandle,
    TxnOp,
    recover_txns,
)
from repro.txn.coordinator import WAL_DEVICE
from repro.txn.records import (
    W_PUT,
    WAL_BEGIN,
    WAL_DECISION,
    PrepareRecord,
    SettleRecord,
    encode_prepare,
    encode_settle,
    encode_wal,
)
from repro.workloads import Cluster


def build(num_nodes=5, num_shards=4, num_subgroups=2, seed=3, cc="occ",
          backend=None, txn_config=None, router_config=None, window=8):
    cluster = Cluster(num_nodes, config=SpindleConfig.optimized(),
                      seed=seed, backend=backend)
    cluster.add_shards(num_shards=num_shards, replication=2,
                       num_subgroups=num_subgroups, window=window,
                       message_size=256)
    cluster.build()
    router = cluster.router(router_config)
    plane = cluster.txn(txn_config if txn_config is not None
                        else TxnConfig(cc=cc))
    return cluster, router, plane


def observed_reads(ops, read_values):
    """Externally-observed reads of a committed txn: pair get ops with
    their returned values, skipping reads served from the txn's own
    write buffer (those observe no pre-state). First read wins, to
    match the repeatable-read contract."""
    out = {}
    values = iter(read_values)
    written = set()
    for op in ops:
        if op.op == "get":
            value = next(values)
            if op.key not in written:
                out.setdefault(op.key, value)
        else:
            written.add(op.key)
    return out


def log_enqueues(router):
    """Record ``(instant, op, shard)`` of every router submission."""
    log = []
    enqueue = router._enqueue

    def logged(state):
        log.append((router.sim.now, state.op, state.shard))
        enqueue(state)

    router._enqueue = logged
    return log


def blocker(router, txn_id, key):
    """A prepare that pins ``key`` under a foreign prepared lock."""
    return PrepareRecord(txn_id=txn_id, shard=router.map.shard_of(key),
                         cc="occ", auto_commit=False, reads=(),
                         writes=((W_PUT, key, b"pin"),))


def replica_values(router, key):
    """``key``'s value on every replica of its hosting subgroup."""
    sg = router.map.subgroup_of_key(key)
    return [replica.read(key) for (rsg, _), replica
            in sorted(router.service.replicas.items()) if rsg == sg]


def keys_in_shards(router, count, same_subgroup=None):
    """First ``count`` probe keys in distinct shards; optionally all
    hosted by the same / different subgroups."""
    found = {}
    for i in range(10000):
        key = b"probe.%d" % i
        shard = router.map.shard_of(key)
        if shard in found:
            continue
        found[shard] = key
        if same_subgroup is not None:
            sgs = {router.map.subgroup_of(s) for s in found}
            if same_subgroup and len(sgs) > 1:
                found.pop(shard)
                continue
            if not same_subgroup and len(sgs) < len(found):
                found.pop(shard)
                continue
        if len(found) == count:
            return [found[s] for s in sorted(found)]
    raise AssertionError("could not find suitable probe keys")


# --------------------------------------------------------------- conformance


@pytest.mark.parametrize("backend", [None, "paxos"])
@pytest.mark.parametrize("cc", ["occ", "2pl"])
def test_cc_conformance_across_backends(cc, backend):
    """Both CC protocols pass the same mixed workload under both
    ordering backends: everything commits or aborts cleanly, committed
    history is strictly serializable, replicas converge."""
    cluster, router, plane = build(cc=cc, backend=backend, seed=5)
    recorder = TxnHistoryRecorder()
    outcomes = []

    def client(c):
        rng = Random(40 + c)
        for i in range(6):
            ops = []
            for _ in range(3):
                key = b"c%d" % rng.randrange(12)
                if rng.random() < 0.5:
                    ops.append(TxnOp("get", key))
                else:
                    ops.append(TxnOp("put", key, b"v%d.%d" % (c, i)))
            txn_ref = recorder.invoke(c, cluster.sim.now)
            recorder.pending_writes(txn_ref, {
                op.key: op.value for op in ops if op.op == "put"})
            out = yield from plane.run_txn(ops, coordinator_node=4)
            outcomes.append(out)
            if out.status == "committed":
                recorder.complete(
                    txn_ref, cluster.sim.now,
                    reads=observed_reads(ops, out.reads),
                    writes={op.key: op.value for op in ops
                            if op.op == "put"})
            else:
                recorder.drop(txn_ref)
            yield us(3.0)

    for c in range(3):
        cluster.spawn_sender(client(c), name=f"cl{c}")
    # Paxos keeps heartbeat timers pending forever, so run a bounded
    # window instead of waiting for quiescence.
    cluster.sim.run(until=0.1)

    assert len(outcomes) == 18
    assert sum(1 for o in outcomes if o.status == "committed") >= 15
    # Final-state read: every committed write must be accounted for.
    state = {}
    for i in range(12):
        key = b"c%d" % i
        sg = router.map.subgroup_of_key(key)
        value = router.service.gateway_replica(sg).read(key)
        if value is not None:
            state[key] = value
    recorder.record_state_read(99, state, cluster.sim.now)
    report = check_txn_recorder(recorder)
    assert report.ok, report.violations
    assert router.verifier.check()
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared
        assert not replica.txn_locks


# ----------------------------------------------------------------- fast path


def test_single_shard_fastpath_skips_wal_and_settle():
    cluster, router, plane = build()
    done = []

    def run():
        out = yield from plane.run_txn(
            [TxnOp("put", b"solo", b"v1"), TxnOp("get", b"solo")])
        done.append(out)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    out = done[0]
    assert out.status == "committed" and out.fastpath
    assert out.reads == [b"v1"]  # read-your-writes from the buffer
    c = plane.counters
    assert c.fastpath_commits == 1
    assert c.prepares_sent == 1
    assert c.settles_sent == 0
    assert c.wal_records == 0


def test_pure_read_occ_txn_needs_no_wal():
    """A multi-shard read-only OCC txn certifies by one-sided reads
    alone: no WAL record, and no prepare or settle through any order."""
    cluster, router, plane = build()
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=False)
    log = log_enqueues(router)
    done = []

    def run():
        out = yield from router.request("put", key_a, b"va")
        assert out.status == "ok"
        out = yield from router.request("put", key_b, b"vb")
        assert out.status == "ok"
        out = yield from plane.run_txn(
            [TxnOp("get", key_a), TxnOp("get", key_b)])
        done.append(out)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert done[0].status == "committed"
    assert done[0].reads == [b"va", b"vb"]
    assert plane.counters.wal_records == 0
    assert plane.counters.settles_sent == 0
    assert plane.counters.prepares_sent == 0
    assert [op for _, op, _ in log] == ["put", "put"]


# ------------------------------------------------------ scatter-gather rounds


def test_prepare_round_fans_out_and_costs_one_round_trip():
    """A three-write-shard txn enqueues its three prepares at one
    simulated instant and its prepare stage costs about one ordered
    round trip; the same program on the ordered path (an OCC retry)
    sends them one round trip apart and pays about three."""
    def prepare_stage(attempt):
        cluster, router, plane = build()
        keys = keys_in_shards(router, 3)
        log = log_enqueues(router)
        done = []

        def run():
            done.append((yield from plane._attempt(
                [TxnOp("put", key, b"v") for key in keys], 4, attempt)))

        cluster.spawn_sender(run())
        cluster.run_to_quiescence(max_time=1.0)
        assert done[0].status == "committed"
        assert plane.counters.prepares_sent == 3
        sent = [at for at, op, _ in log if op == "txn_prepare"]
        settled = [at for at, op, _ in log if op == "txn_settle"]
        assert len(sent) == len(settled) == 3
        assert len(set(settled)) == 1  # the settle round always fans out
        return sent, plane.stage_seconds()["prepare"]

    fanned, fan_cost = prepare_stage(attempt=1)
    ordered, ordered_cost = prepare_stage(attempt=2)
    assert len(set(fanned)) == 1
    assert ordered[0] < ordered[1] < ordered[2]
    round_trip = ordered[1] - ordered[0]
    assert fan_cost < 1.5 * round_trip
    assert ordered_cost > 2.5 * round_trip


def test_conflicting_occ_retries_prepare_in_shard_order_and_one_wins():
    """Two OCC read-modify-writes over the same two shards both abort
    their fanned-out first attempt (a foreign prepared lock votes no on
    both shards). Their retries, driven at one instant (two backoffs
    that end together), prepare in shard order: whichever reaches the
    lower shard first holds it, the other is stopped there before it
    sends anything to the higher shard — so exactly one commits."""
    cluster, router, plane = build()
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=False)
    low, high = sorted(router.map.shard_of(key) for key in (key_a, key_b))
    pins = [blocker(router, 900, key_a), blocker(router, 900, key_b)]
    ops = [TxnOp("get", key_a), TxnOp("put", key_a, b"A"),
           TxnOp("get", key_b), TxnOp("put", key_b, b"B")]
    log = log_enqueues(router)
    outcomes, retried_at = [], []

    def both(attempt):
        procs = [cluster.spawn_sender(plane._attempt(ops, 4, attempt))
                 for _ in range(2)]
        for proc in procs:
            outcomes.append((yield proc))

    def run():
        for pin in pins:
            assert (yield from plane._send(pin)).value == "yes"
        yield from both(attempt=1)
        assert [o.reason for o in outcomes] == ["prepare_no"] * 2
        assert plane.counters.prepares_sent == 4  # both fanned out
        for pin in pins:
            yield from plane._send(SettleRecord(
                txn_id=900, shard=pin.shard, commit=False))
        retried_at.append(cluster.sim.now)
        yield from both(attempt=2)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    retries = sorted(o.status for o in outcomes[2:])
    assert retries == ["aborted", "committed"]
    c = plane.counters
    assert c.prepare_aborts == 3
    # 2 + 2 fanned out, the winner's retry 2, the loser's stopped after 1.
    assert c.prepares_sent == 7
    sent = [(at, shard) for at, op, shard in log
            if op == "txn_prepare" and at >= retried_at[0]]
    assert [shard for _, shard in sent] == [low, low, high]
    # Both retries were contending the lower shard before the winner
    # moved on to the higher one.
    assert sent[1][0] < sent[2][0]
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared and not replica.txn_locks


@pytest.mark.parametrize("reject_first", [False, True])
def test_failed_leg_aborts_with_first_failing_shards_reason(reject_first):
    """Vote aggregation over a fanned-out round: every leg is sent and
    counted, the first failing shard in shard order names the abort
    reason, and the abort settle reaches every participant — the yes
    voters release their prepared locks."""
    cluster, router, plane = build(
        txn_config=TxnConfig(max_attempts=1),
        router_config=RouterConfig(queue_depth=2, max_retries=1))
    keys = keys_in_shards(router, 3)
    first = router.map.shard_of(keys[0])
    pin = blocker(router, 900, keys[1])  # the middle shard votes no
    done = []

    def parked():
        yield from router.request("put", keys[0], b"parked")

    def run():
        assert (yield from plane._send(pin)).value == "yes"
        if reject_first:
            # A full queue on the lowest shard: admission gives up on
            # that prepare while the other two legs are delivered.
            router.freeze(first)
            for _ in range(2):
                cluster.spawn_sender(parked())
            yield us(1.0)
        done.append((yield from plane.run_txn(
            [TxnOp("put", key, b"v") for key in keys], coordinator_node=4)))
        yield from plane._send(SettleRecord(
            txn_id=900, shard=pin.shard, commit=False))
        router.unfreeze(first)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    out, c = done[0], plane.counters
    assert out.status == "aborted"
    assert out.reason == ("rejected" if reject_first else "prepare_no")
    assert c.prepares_sent == 3 and c.settles_sent == 3
    assert (c.admission_aborts, c.prepare_aborts) == (
        (1, 0) if reject_first else (0, 1))
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared and not replica.txn_locks
        assert replica.read(keys[2]) is None


@pytest.mark.parametrize("adopted", [True, False])
def test_coordinator_crash_mid_prepare_round_takes_its_legs_down(adopted):
    """The coordinator dies with two prepares delivered and the third
    leg backing off from a full queue. The leg dies with the attempt —
    whether or not anyone adopted the driver — so it never submits a
    prepare behind the recovery pass's abort settle, and recovery
    leaves no prepared state anywhere."""
    cluster, router, plane = build(
        router_config=RouterConfig(queue_depth=2))
    keys = keys_in_shards(router, 3)
    first = router.map.shard_of(keys[0])
    ops = [TxnOp("put", key, b"v") for key in keys]
    log = log_enqueues(router)
    outcomes, reports = [], []

    def parked():
        yield from router.request("put", keys[0], b"parked")

    def client():
        outcomes.append((yield from plane.run_txn(ops, coordinator_node=4)))

    def run():
        router.freeze(first)
        for _ in range(2):
            cluster.spawn_sender(parked())
        yield us(1.0)
        if adopted:
            plane.spawn_txn(ops, coordinator_node=4, outcomes=outcomes)
        else:
            cluster.spawn_sender(client())
        yield us(300.0)  # crash at 200 us: mid-round
        prepared = [rec.shard for replica in router.service.replicas.values()
                    for rec in replica.txn_prepared.values()]
        assert sorted(set(prepared)) == sorted(
            router.map.shard_of(key) for key in keys[1:])
        router.unfreeze(first)
        yield us(300.0)  # past any retry the dead leg could have made
        reports.append((yield from recover_txns(plane, node=4)))

    cluster.spawn_sender(run())
    cluster.faults.crash(4, at=us(200.0))
    cluster.run_to_quiescence(max_time=1.0)
    assert not outcomes  # the client died with its coordinator
    assert reports[0].ok and reports[0].presumed_abort == 1
    assert plane.counters.recovered_settles == 3
    assert not [at for at, op, _ in log
                if op == "txn_prepare" and at > us(200.0)]
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared and not replica.txn_locks
        assert replica.read(keys[1]) is None


# ------------------------------------------------ acknowledgement at DECISION


@pytest.mark.parametrize("cc", ["occ", "2pl"])
def test_occ_acks_at_decision_and_2pl_after_its_settle(cc):
    """OCC returns a two-shard commit right after its DECISION fsync:
    its settles are enqueued from that instant on, and no replica has
    applied its writes yet. Strict 2PL returns after its settle round.
    Either way the writes are on every replica by quiescence, and the
    settles count as sent, not as recovered."""
    cluster, router, plane = build(cc=cc)
    keys = keys_in_shards(router, 2, same_subgroup=False)
    log = log_enqueues(router)
    acked = []

    def run():
        out = yield from plane.run_txn(
            [TxnOp("put", key, b"v") for key in keys], coordinator_node=4)
        assert out.status == "committed"
        acked.append(cluster.sim.now)
        for key in keys:
            sg = router.map.subgroup_of_key(key)
            applied = router.service.gateway_replica(sg).read(key) == b"v"
            assert applied == (cc == "2pl")
        prepared = [replica.txn_prepared for replica in
                    router.service.replicas.values()]
        assert all(prepared) == (cc == "occ")

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    settled = [at for at, op, _ in log if op == "txn_settle"]
    assert len(settled) == 2
    if cc == "occ":
        assert min(settled) >= acked[0]
    else:
        assert max(settled) < acked[0]
    assert plane.counters.settles_sent == 2
    assert plane.counters.recovered_settles == 0
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared and not replica.txn_locks
    for key in keys:
        assert replica_values(router, key) == [b"v", b"v"]


@pytest.mark.parametrize("cleared", [False, True])
def test_decided_writes_serve_the_next_txn_on_the_coordinator(cleared):
    """The next transaction on the same coordinator, started at the
    previous one's ack instant, reads its written key from the
    decided-write cache and commits on attempt 1: its prepare is
    sequenced after the settle and finds the same value. With the cache
    cleared at the ack it reads the replica's pre-settle value, and its
    prepare votes that stale read down."""
    cluster, router, plane = build()
    key_a, key_b, key_c = keys_in_shards(router, 3)
    outcomes = []

    def run():
        out = yield from plane.run_txn(
            [TxnOp("put", key_a, b"A"), TxnOp("put", key_b, b"B")],
            coordinator_node=4)
        assert out.status == "committed"
        assert plane.decided_writes[4] == {key_a: (out.txn_id, b"A"),
                                           key_b: (out.txn_id, b"B")}
        if cleared:
            plane.decided_writes[4].clear()
        outcomes.append((yield from plane.run_txn(
            [TxnOp("get", key_a), TxnOp("put", key_a, b"A2"),
             TxnOp("put", key_c, b"C")], coordinator_node=4)))

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    out = outcomes[0]
    assert out.status == "committed"
    if cleared:
        assert out.attempts == 2 and plane.counters.prepare_aborts == 1
    else:
        assert out.attempts == 1 and out.reads == [b"A"]
    assert plane.decided_writes[4] == {}  # every settle delivered
    sg = router.map.subgroup_of_key(key_a)
    assert router.service.gateway_replica(sg).read(key_a) == b"A2"


def test_get_after_the_ack_answers_at_the_settle():
    """A linearizable router ``get`` invoked after an OCC commit's ack
    has its fence delivered while the settle is still held back
    (``settle_delay``): the key is under the txn's prepared lock, so the
    ``get`` answers at the settle's delivery, with the new value. A key
    no prepared txn holds answers at its fence."""
    cluster, router, plane = build(
        txn_config=TxnConfig(settle_delay=us(100.0)))
    key_a, key_b, key_c = keys_in_shards(router, 3)
    answers = []

    def get(key):
        out = yield from router.request("get", key)
        answers.append((key, cluster.sim.now, out.value))

    def run():
        out = yield from plane.run_txn(
            [TxnOp("put", key_a, b"A"), TxnOp("put", key_b, b"B")],
            coordinator_node=4)
        assert out.status == "committed"
        answers.append(cluster.sim.now)
        cluster.spawn_sender(get(key_c))
        yield from get(key_a)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    acked, (_, free_at, free), (_, locked_at, value) = answers
    assert free is None and free_at < acked + us(100.0)
    assert value == b"A" and locked_at > acked + us(100.0)


def test_crash_between_ack_and_settle_keeps_the_acknowledged_commit():
    """The coordinator dies after acknowledging a commit and before its
    held-back settle. A ``get`` on the in-doubt key blocks (standard 2PC
    blocking) and answers only once ``recover_txns`` re-drives the logged
    commit; the acknowledged writes are then on every replica, and the
    history, with the ack as the commit's return, is strictly
    serializable."""
    cluster, router, plane = build(
        txn_config=TxnConfig(settle_delay=ms(1.0)))
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=False)
    writes = {key_a: b"A", key_b: b"B"}
    recorder = TxnHistoryRecorder()
    recovered_at, reports, answered = [], [], []

    def client():
        ref = recorder.invoke(1, cluster.sim.now)
        recorder.pending_writes(ref, writes)
        out = yield from plane.run_txn(
            [TxnOp("put", k, v) for k, v in writes.items()],
            coordinator_node=4)
        assert out.status == "committed" and cluster.sim.now < us(200.0)
        recorder.complete(ref, cluster.sim.now, reads={}, writes=writes)

    def reader():
        yield us(300.0)  # the coordinator is down from 200 us
        ref = recorder.invoke(2, cluster.sim.now)
        out = yield from router.request("get", key_a)
        recorder.complete(ref, cluster.sim.now, reads={key_a: out.value},
                          writes={})
        answered.append((cluster.sim.now, out.value))

    def recovery():
        yield us(600.0)
        recovered_at.append(cluster.sim.now)
        reports.append((yield from recover_txns(plane, node=4)))

    for proc in (client(), reader(), recovery()):
        cluster.spawn_sender(proc)
    cluster.faults.crash(4, at=us(200.0))
    cluster.run_to_quiescence(max_time=1.0)
    assert reports[0].ok and reports[0].redriven == 1
    assert len(reports[0].committed) == 1
    assert plane.counters.recovered_settles == 2
    at, value = answered[0]
    assert value == b"A" and at > recovered_at[0]
    for key, value in writes.items():
        assert replica_values(router, key) == [value, value]
    recorder.record_state_read(99, writes, cluster.sim.now)
    report = check_txn_recorder(recorder)
    assert report.ok, report.violations


# ------------------------------------------------- replica slots and dedup


def test_same_subgroup_two_shard_txn_applies_both_slices():
    """Regression: replica txn state is keyed by (txn_id, shard). One
    replica hosting two participant shards of the same txn must buffer
    and apply *both* per-shard prepare slices — txn-id-only dedup
    silently dropped the second slice's writes."""
    cluster, router, plane = build(cc="occ")
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=True)
    assert router.map.shard_of(key_a) != router.map.shard_of(key_b)
    assert (router.map.subgroup_of_key(key_a)
            == router.map.subgroup_of_key(key_b))
    done = []

    def run():
        out = yield from plane.run_txn(
            [TxnOp("put", key_a, b"A"), TxnOp("put", key_b, b"B")])
        done.append(out)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert done[0].status == "committed"
    sg = router.map.subgroup_of_key(key_a)
    replica = router.service.gateway_replica(sg)
    assert replica.read(key_a) == b"A"
    assert replica.read(key_b) == b"B"
    assert not replica.txn_prepared


def test_duplicate_txn_req_returns_original_verdict():
    cluster, router, plane = build()
    key = keys_in_shards(router, 1)[0]
    shard = router.map.shard_of(key)
    rec = PrepareRecord(txn_id=501, shard=shard, cc="occ",
                        auto_commit=True, reads=(),
                        writes=((W_PUT, key, b"once"),))
    verdicts = []

    def run():
        for _ in range(2):
            out = yield from router.request(
                "txn_prepare", b"", value=encode_prepare(rec), shard=shard)
            verdicts.append(out.value)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert verdicts == ["yes", "yes"]  # replay answers with the original
    sg = router.map.subgroup_of(shard)
    replica = router.service.gateway_replica(sg)
    assert replica.txn_duplicates >= 1
    assert replica.read(key) == b"once"


def test_validate_slice_blocked_by_prepared_lock():
    """Replica side of an auto-commit slice with a read set (the
    single-shard fast path's shape): a read of a key another txn holds
    prepared-but-unsettled votes no (it could otherwise observe that
    txn half-applied); after the settle it certifies fine."""
    cluster, router, plane = build()
    key = keys_in_shards(router, 1)[0]
    shard = router.map.shard_of(key)
    votes = []

    def run():
        writer = PrepareRecord(txn_id=601, shard=shard, cc="occ",
                               auto_commit=False, reads=(),
                               writes=((W_PUT, key, b"w"),))
        out = yield from router.request(
            "txn_prepare", b"", value=encode_prepare(writer), shard=shard)
        votes.append(out.value)
        reader = PrepareRecord(txn_id=602, shard=shard, cc="occ",
                               auto_commit=True,
                               reads=((key, None),), writes=())
        out = yield from router.request(
            "txn_prepare", b"", value=encode_prepare(reader), shard=shard)
        votes.append(out.value)  # blocked by 601's prepared lock
        settle = SettleRecord(txn_id=601, shard=shard, commit=True)
        yield from router.request(
            "txn_settle", b"", value=encode_settle(settle), shard=shard)
        reader2 = PrepareRecord(txn_id=603, shard=shard, cc="occ",
                                auto_commit=True,
                                reads=((key, b"w"),), writes=())
        out = yield from router.request(
            "txn_prepare", b"", value=encode_prepare(reader2), shard=shard)
        votes.append(out.value)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert votes == ["yes", "no", "yes"]


# ------------------------------------------------------- reserved settle lane


def test_settle_lane_skips_queue_bound():
    """queue_depth=0 rejects every normal op, but settles ride the
    reserved lane — a prepared txn can always be settled."""
    cluster, router, plane = build(
        router_config=RouterConfig(queue_depth=0, max_retries=1))
    results = []

    def run():
        out = yield from router.request("put", b"k", b"v")
        results.append(out.status)
        settle = SettleRecord(txn_id=700, shard=0, commit=True)
        out = yield from router.request(
            "txn_settle", b"", value=encode_settle(settle), shard=0)
        results.append(out.status)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    assert results == ["rejected", "ok"]
    assert router.counters.settle_reserved == 1


@pytest.mark.parametrize("cc", ["occ", "2pl"])
def test_txn_started_in_the_failover_gap_commits(cc):
    """A gateway is down and its successor view is not installed yet:
    a txn's execute-phase reads are served by a surviving replica
    (they used to raise from the dead gateway), its prepare waits out
    the gap as ``no_gateway`` rejections, and it commits on the
    promoted sender. The same holds for a *retry* that lands in the gap:
    nothing on a retry's path goes to the gateway replica directly."""
    cluster = Cluster(6, config=SpindleConfig.optimized(), seed=5)
    cluster.add_shards(num_shards=4, replication=3, num_subgroups=2,
                       window=8, message_size=256)
    cluster.enable_membership(heartbeat_period=us(100),
                              suspicion_timeout=us(500))
    cluster.build()
    cluster.enable_recovery()
    router = cluster.router()
    plane = cluster.txn(TxnConfig(cc=cc))
    probes = [b"probe.%d" % i for i in range(40)]
    a, b, d = [k for k in probes if router.map.subgroup_of_key(k) == 0][:3]
    c, e = [k for k in probes if router.map.subgroup_of_key(k) == 1][:2]
    log = log_enqueues(router)
    outcomes, retried = [], []

    def retrier():
        # Attempt 1 ends before the crash, voted down by a pinned
        # prepared lock on e; its backoff ends inside the gap.
        yield us(360) - cluster.sim.now
        retried.append((yield from plane.run_txn(
            [TxnOp("get", a), TxnOp("put", d, b"3"), TxnOp("put", e, b"3")],
            coordinator_node=4)))

    def client():
        outcomes.append((yield from plane.run_txn(
            [TxnOp("put", a, b"1"), TxnOp("put", c, b"1")],
            coordinator_node=4)))
        assert (yield from plane._send(blocker(router, 900, e))).value == "yes"
        cluster.spawn_sender(retrier())
        yield us(400) - cluster.sim.now
        yield from plane._send(SettleRecord(
            txn_id=900, shard=router.map.shard_of(e), commit=False))
        yield us(700) - cluster.sim.now  # crash + 300 us: inside the gap
        outcomes.append(cluster.view.view_id)
        outcomes.append((yield from plane.run_txn(
            [TxnOp("get", a), TxnOp("put", b, b"2"), TxnOp("put", c, b"2")],
            coordinator_node=4)))

    cluster.spawn_sender(client())
    cluster.faults.crash(0, at=us(400))  # gateway of subgroup 0
    cluster.run(until=ms(30))

    first, view_in_gap, second = outcomes
    assert first.status == "committed"
    assert view_in_gap == 0 and cluster.view.view_id == 1
    assert second.status == "committed" and second.reads == [b"1"]
    out = retried[0]
    assert out.status == "committed" and out.attempts == 2
    assert out.reads == [b"1"]
    # Attempt 1 before the crash, the retry's first prepare in the gap
    # (the view is still 0 at 700 us), then its router retries.
    sent = [at for at, op, shard in log
            if op == "txn_prepare" and shard == router.map.shard_of(d)]
    assert sent[0] < us(400) < sent[1] < us(700) and len(sent) > 2
    assert router.counters.rejected.get("no_gateway", 0) >= 1
    assert router.stale_read(b) == b"2" and router.stale_read(c) == b"2"
    assert router.stale_read(d) == b"3" and router.stale_read(e) == b"3"


@pytest.mark.parametrize("seed", range(8))
def test_write_skew_across_subgroups_is_strictly_serializable(seed):
    """T reads x on shard A and writes y on shard B; U reads y on B and
    writes x on A, with A and B in different subgroups. Whatever their
    relative start, one of them must see the other: each certifies its
    read only after its own prepared lock is held, so the later of the
    two finds the earlier's lock or its settled value. Reads certified
    before the votes are in let both commit on stale reads."""
    retried = False
    for offset in range(-12, 13, 2):
        cluster, router, plane = build(seed=seed)
        x, y = keys_in_shards(router, 2, same_subgroup=False)
        recorder = TxnHistoryRecorder()
        outcomes = []

        def client(c, start, ops):
            yield start
            txn_ref = recorder.invoke(c, cluster.sim.now)
            writes = {op.key: op.value for op in ops if op.op == "put"}
            recorder.pending_writes(txn_ref, writes)
            out = yield from plane.run_txn(ops, coordinator_node=4)
            outcomes.append(out)
            assert out.status == "committed"
            recorder.complete(txn_ref, cluster.sim.now,
                              reads=observed_reads(ops, out.reads),
                              writes=writes)

        cluster.spawn_sender(client(
            0, us(max(0, -offset)), [TxnOp("get", x), TxnOp("put", y, b"T")]))
        cluster.spawn_sender(client(
            1, us(max(0, offset)), [TxnOp("get", y), TxnOp("put", x, b"U")]))
        cluster.run_to_quiescence(max_time=1.0)
        assert len(outcomes) == 2, offset
        report = check_txn_recorder(recorder)
        assert report.ok, (offset, report.violations)
        retried = retried or max(o.attempts for o in outcomes) > 1
    assert retried  # the sweep did make them collide


def test_certification_in_the_failover_gap_aborts_then_commits():
    """The gateway of a read-only shard's subgroup is down and its
    successor view is not installed yet: the one-sided certification
    has no gateway to read, so the attempt aborts as ``rejected`` (the
    router never saw a record for that shard), and a retry commits
    under the successor view."""
    cluster = Cluster(6, config=SpindleConfig.optimized(), seed=5)
    cluster.add_shards(num_shards=4, replication=3, num_subgroups=2,
                       window=8, message_size=256)
    cluster.enable_membership(heartbeat_period=us(100),
                              suspicion_timeout=us(500))
    cluster.build()
    cluster.enable_recovery()
    router = cluster.router()
    plane = cluster.txn(TxnConfig())
    probes = [b"probe.%d" % i for i in range(40)]
    a = next(k for k in probes if router.map.subgroup_of_key(k) == 0)
    c = next(k for k in probes if router.map.subgroup_of_key(k) == 1)
    outcomes = []

    def client():
        assert (yield from router.request("put", a, b"1")).status == "ok"
        yield us(500) - cluster.sim.now  # crash + 100 us: inside the gap
        outcomes.append(cluster.view.view_id)
        outcomes.append((yield from plane.run_txn(
            [TxnOp("get", a), TxnOp("put", c, b"2")], coordinator_node=4)))
        outcomes.append(cluster.view.view_id)

    cluster.spawn_sender(client())
    cluster.faults.crash(0, at=us(400))  # gateway of subgroup 0
    cluster.run(until=ms(30))

    view_before, out, view_after = outcomes
    assert view_before == 0 and view_after == 1
    assert out.status == "committed" and out.attempts >= 2
    assert out.reads == [b"1"]
    assert plane.counters.admission_aborts == out.attempts - 1
    assert plane.counters.validation_aborts == 0
    assert router.counters.rejected.get("no_gateway", 0) == 0
    assert router.stale_read(c) == b"2"
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared and not replica.txn_locks


# ------------------------------------------------------------ retry backoff


def run_mutual_readers(seed):
    """Two OCC transactions started at one instant, each writing one key
    and reading, from a read-only shard, the key the other writes: each
    one's read certification finds the other's prepared lock, so their
    first attempts abort each other. Returns (outcomes, commit instants,
    backoff draws)."""
    cluster, router, plane = build(
        seed=seed, txn_config=TxnConfig(max_attempts=64))
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=False)
    draws, outcomes, done_at = [], [], []
    draw = plane._backoff_rng.random

    def recorded():
        draws.append(draw())
        return draws[-1]

    plane._backoff_rng.random = recorded

    def client(ops):
        outcomes.append((yield from plane.run_txn(ops, coordinator_node=4)))
        done_at.append(cluster.sim.now)

    for ops in ([TxnOp("get", key_b), TxnOp("put", key_a, b"A")],
                [TxnOp("get", key_a), TxnOp("put", key_b, b"B")]):
        cluster.spawn_sender(client(ops))
    cluster.run_to_quiescence(max_time=1.0)
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared and not replica.txn_locks
    return outcomes, done_at, draws


def test_mutual_read_validation_aborts_do_not_livelock():
    """The lock-then-validate livelock: under a fixed backoff the two
    retry in lockstep, abort each other again, and exhaust all 64
    attempts. A jittered backoff puts them out of step: both commit
    within a few attempts."""
    outcomes, _, _ = run_mutual_readers(seed=3)
    assert [o.status for o in outcomes] == ["committed"] * 2
    assert max(o.attempts for o in outcomes) <= 4
    assert min(o.attempts for o in outcomes) >= 2  # they did collide


def test_backoff_jitter_replays_per_cluster_seed():
    """The backoff draws come from the plane's own seeded RNG: the same
    cluster seed replays the same draws and outcome; another seed draws
    differently."""
    first = run_mutual_readers(seed=3)
    assert first[2]
    assert run_mutual_readers(seed=3) == first
    assert run_mutual_readers(seed=4)[2] != first[2]


# ----------------------------------------------------------- wound-wait age


def test_wound_wait_age_retained_across_retries():
    """A retry keeps its first attempt's age, so against txns that
    arrived later it is the *older* party: it wounds and waits instead
    of aborting again. A fresh id per retry would make every retry the
    youngest txn in the system and starve it."""
    sim = Simulator(seed=0)
    table = LockTable(sim, shard=0, poll=us(1.0))
    granted = []

    def victim():
        young = TxnHandle(20)
        with pytest.raises(TxnAborted):
            # Youngest vs holder 10: immediate wound-wait abort.
            yield from table.acquire(young, b"k", True, us(0.1))
        yield us(10.0)  # backoff; meanwhile txn 30 takes the lock
        retry = TxnHandle(40, age=20)
        # Retained age 20 beats holder 30: wound it and wait. With a
        # fresh age (40) this acquire would abort again.
        yield from table.acquire(retry, b"k", True, us(0.1))
        granted.append(sim.now)
        table.release_all(retry)

    def owner():
        first = TxnHandle(10)
        yield from table.acquire(first, b"k", True, us(0.1))
        yield us(5.0)
        table.release_all(first)
        later = TxnHandle(30)
        yield from table.acquire(later, b"k", True, us(0.1))
        yield us(10.0)  # holds across the retry's arrival
        assert later.wounded
        table.release_all(later)

    sim.spawn(owner(), name="owner")
    sim.spawn(victim(), name="victim")
    sim.run(until=ms(1.0))
    assert granted, "retained-age retry never got the lock"
    counters = table.counters()
    assert counters["wait_aborts"] == 1
    assert counters["wounds"] >= 1
    assert counters["waits"] >= 1
    assert table.held() == 0


def test_lock_table_shared_then_upgrade_conflict():
    sim = Simulator(seed=0)
    table = LockTable(sim, shard=0, poll=us(1.0))
    a, b = TxnHandle(1), TxnHandle(2)

    def run():
        yield from table.acquire(a, b"k", False, 0.0)
        yield from table.acquire(b, b"k", False, 0.0)   # S + S coexist
        with pytest.raises(TxnAborted):
            yield from table.acquire(b, b"k", True, 0.0)  # younger upgrade
        table.release_all(b)
        yield from table.acquire(a, b"k", True, 0.0)      # sole holder
        table.release_all(a)

    sim.spawn(run(), name="locks")
    sim.run(until=ms(1.0))
    assert table.held() == 0


# -------------------------------------------------------------- WAL recovery


def test_recovery_presumed_abort_for_begin_only():
    cluster, router, plane = build()
    device = cluster.storage.device(4, WAL_DEVICE)
    device.write(encode_wal(WAL_BEGIN, 7, participants=(0, 2)))
    log = log_enqueues(router)
    reports = []

    def run():
        yield from device.fsync()
        report = yield from recover_txns(plane, node=4)
        reports.append(report)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    report = reports[0]
    assert report.ok and report.scanned == 1
    assert report.presumed_abort == 1 and report.aborted == [7]
    assert plane.counters.recovered_settles == 2
    # Re-driven through the coordinator's own round: one fan-out.
    assert [(op, shard) for _, op, shard in log] == [
        ("txn_settle", 0), ("txn_settle", 2)]
    assert log[0][0] == log[1][0]


def test_recovery_redrives_logged_commit():
    """DECISION(commit) without END: the recovery pass re-drives commit
    settles, and shards still holding buffered writes apply them."""
    cluster, router, plane = build()
    key_a, key_b = keys_in_shards(router, 2, same_subgroup=False)
    shard_a = router.map.shard_of(key_a)
    shard_b = router.map.shard_of(key_b)
    device = cluster.storage.device(4, WAL_DEVICE)
    reports = []

    def run():
        for shard, key, val in ((shard_a, key_a, b"RA"),
                                (shard_b, key_b, b"RB")):
            rec = PrepareRecord(txn_id=9, shard=shard, cc="occ",
                                auto_commit=False, reads=(),
                                writes=((W_PUT, key, val),))
            out = yield from router.request(
                "txn_prepare", b"", value=encode_prepare(rec), shard=shard)
            assert out.value == "yes"
        device.write(encode_wal(WAL_BEGIN, 9,
                                participants=(shard_a, shard_b)))
        device.write(encode_wal(WAL_DECISION, 9, commit=True))
        yield from device.fsync()
        # Coordinator "crashed" here: run the recovery pass directly.
        report = yield from recover_txns(plane, node=4)
        reports.append(report)
        # A second pass finds only the END record: nothing to do.
        report = yield from recover_txns(plane, node=4)
        reports.append(report)

    cluster.spawn_sender(run())
    cluster.run_to_quiescence(max_time=1.0)
    first, second = reports
    assert first.ok and first.redriven == 1 and first.committed == [9]
    assert second.ok and second.completed == 1 and second.redriven == 0
    for key, val in ((key_a, b"RA"), (key_b, b"RB")):
        sg = router.map.subgroup_of_key(key)
        assert router.service.gateway_replica(sg).read(key) == val
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared
        assert not replica.txn_locks


# ------------------------------------------------------------ txn checker


def test_txn_checker_selftest():
    ok, torn_report = txn_selftest()
    assert ok
    assert not torn_report.ok  # the torn multi-key write is caught


# ------------------------------------------------------- chaos scenarios


@pytest.mark.parametrize("name", ["txn-coordinator-crash",
                                  "txn-rebalance-open"])
def test_txn_scenarios_pass_and_audit(name):
    from repro.faults.scenarios import run_scenario
    for seed in (0, 5):
        result = run_scenario(name, seed)
        assert result.ok, (name, seed, result.problems)
        assert result.linearizability["ok"], (name, seed)


# --------------------------------------------------- hot-key serializability


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("cc", ["occ", "2pl"])
def test_hot_key_history_strictly_serializable(cc, seed):
    """``bench_txn_cc``'s hot shape (Zipf(1.2) read-modify-writes over 8
    keys, 15 us backoff), where fanned-out first attempts and ordered
    OCC retries collide constantly: every txn terminates, most commit,
    and the committed history is strictly serializable."""
    cluster, router, plane = build(
        seed=seed, window=16,
        txn_config=TxnConfig(cc=cc, retry_backoff=us(15.0),
                             max_attempts=60))
    cum, total = [], 0.0
    for i in range(8):
        total += 1.0 / (i + 1) ** 1.2
        cum.append(total)
    recorder = TxnHistoryRecorder()
    outcomes = []

    def client(c):
        rng = Random(seed * 7919 + c)
        for i in range(4):
            ops = []
            for _ in range(5):
                key = b"k%d" % bisect.bisect_left(cum, rng.random() * total)
                ops.append(TxnOp("get", key))
                if rng.random() >= 0.2:
                    ops.append(TxnOp("put", key, b"v%d.%d" % (c, i)))
            writes = {op.key: op.value for op in ops if op.op == "put"}
            txn_ref = recorder.invoke(c, cluster.sim.now)
            recorder.pending_writes(txn_ref, writes)
            out = yield from plane.run_txn(ops, coordinator_node=4)
            outcomes.append(out)
            if out.status == "committed":
                recorder.complete(txn_ref, cluster.sim.now,
                                  reads=observed_reads(ops, out.reads),
                                  writes=writes)
            else:
                recorder.drop(txn_ref)
            yield us(2.0)

    for c in range(8):
        cluster.spawn_sender(client(c), name=f"cl{c}")
    cluster.run_to_quiescence(max_time=2.0)

    assert len(outcomes) == 32
    assert sum(o.status == "committed" for o in outcomes) >= 24
    assert sum(o.attempts for o in outcomes) > 32  # it did contend
    state = {}
    for i in range(8):
        key = b"k%d" % i
        value = router.stale_read(key)
        if value is not None:
            state[key] = value
    recorder.record_state_read(99, state, cluster.sim.now)
    report = check_txn_recorder(recorder)
    assert report.ok, report.violations
    assert router.verifier.check()
    for replica in router.service.replicas.values():
        assert not replica.txn_prepared and not replica.txn_locks


# ----------------------------------------------- randomized serializability


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       cc=st.sampled_from(["occ", "2pl"]))
def test_random_histories_strictly_serializable(seed, cc):
    """Committed transactions form a strictly serializable history (in
    particular: atomic — no torn multi-key writes) under contention and
    fabric jitter, for both CC protocols."""
    cluster, router, plane = build(cc=cc, seed=seed % 17)
    cluster.faults.jitter(until=ms(1.0), extra_latency=us(1.0),
                          jitter=us(2.0))
    recorder = TxnHistoryRecorder()
    rng = Random(seed)

    def client(c):
        for i in range(4):
            ops = []
            for _ in range(rng.randrange(2, 4)):
                key = b"h%d" % rng.randrange(6)
                if rng.random() < 0.45:
                    ops.append(TxnOp("get", key))
                else:
                    ops.append(TxnOp("put", key, b"%d.%d.%d" % (c, i, seed)))
            txn_ref = recorder.invoke(c, cluster.sim.now)
            recorder.pending_writes(txn_ref, {
                op.key: op.value for op in ops if op.op == "put"})
            out = yield from plane.run_txn(ops, coordinator_node=4)
            if out.status == "committed":
                recorder.complete(
                    txn_ref, cluster.sim.now,
                    reads=observed_reads(ops, out.reads),
                    writes={op.key: op.value for op in ops
                            if op.op == "put"})
            else:
                recorder.drop(txn_ref)
            yield us(2.0)

    for c in range(3):
        cluster.spawn_sender(client(c), name=f"cl{c}")
    cluster.run_to_quiescence(max_time=2.0)

    state = {}
    for i in range(6):
        key = b"h%d" % i
        sg = router.map.subgroup_of_key(key)
        value = router.service.gateway_replica(sg).read(key)
        if value is not None:
            state[key] = value
    recorder.record_state_read(99, state, cluster.sim.now)
    report = check_txn_recorder(recorder)
    assert report.ok, report.violations
    assert router.verifier.check()

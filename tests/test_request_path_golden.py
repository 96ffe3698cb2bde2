"""Golden inertness gate for the request regime: the scheduler, the
``Process`` resume path and the predicate thread's polling loop at
batch size ~1 (ROADMAP item 1).

``tests/test_data_path_golden.py`` pins the closed-loop multicast data
path; the planes above it (router, shards, transactions, chaos) were
only run-twice-checked, which cannot see a behaviour change that is
itself deterministic. Four compact seeded runs cover what a change to
``sim/engine.py``, ``sim/process.py`` or ``predicates/framework.py``
touches there:

* ``kv_open_loop`` — sharded KV through the router under open-loop
  Poisson clients (``AtTime``-free float sleeps, fenced reads, puts,
  a ring of requests in flight per shard, ``window_saturated`` and
  ``queue_full`` rejections honoured with ``retry_after``);
* ``txn_occ_wal`` — OCC transactions with the coordinator WAL fsynced
  (cross-shard prepares, one-sided read certification, retries with
  backoff);
* ``chaos_stall`` — a node-scope and a predicate-scope stall while all
  nodes stream: ``Process.suspend`` lands while the predicate thread
  sleeps towards an ``AtTime`` wake, ``resume`` re-posts the deferred
  resumption (checked by a probe, not assumed);
* ``chaos_crash_parked`` — a node crashes while its predicate thread is
  parked on the doorbell (``Process.kill`` with the waiter still
  registered on the ``Event``), survivors reconfigure and a second
  burst runs in the next view.

Each pins ``Tracer.fingerprint()``, a sha256 of the client-visible
history plus every node's delivery log, and a sha256 of
``cluster.metrics_json()``. Tier-1 runs the file under the session
sanitizer, and ``tests/test_probe.py`` recomputes it with nothing
subscribed (both must reproduce the same digests: the sanitizer is
inert). Regenerate only through
``--update-golden``.
"""

import hashlib
from pathlib import Path
from random import Random

import pytest

from repro.analysis import Tracer
from repro.core.config import SpindleConfig
from repro.shard import RouterConfig
from repro.sim.units import ms, us
from repro.txn import TxnConfig, TxnOp
from repro.workloads import Cluster, continuous_sender, open_loop_client

GOLDEN = Path(__file__).parent / "golden" / "request_path.json"


def _sharded(num_nodes, num_shards, num_subgroups, seed):
    cluster = Cluster(num_nodes, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_shards(num_shards=num_shards, replication=2,
                       num_subgroups=num_subgroups, window=16,
                       message_size=256)
    cluster.build()
    return cluster


def _log_deliveries(cluster):
    """node -> [(subgroup, seq, sender, size)], surviving view changes."""
    logs = {nid: [] for nid in cluster.node_ids}

    def hook(_view=None):
        for nid, group in cluster.groups.items():
            for sg in group.multicasts:
                group.on_delivery(
                    sg, lambda d, log=logs[nid], sg=sg: log.append(
                        (sg, d.seq, d.sender, d.size)))

    hook()
    cluster.on_view_installed.append(hook)
    return logs


def _trace(cluster):
    tracer = Tracer(cluster)
    tracer.attach()
    return tracer


def run_kv_open_loop():
    cluster = _sharded(num_nodes=8, num_shards=4, num_subgroups=4, seed=21)
    # A shallow queue and a short in-router retry budget, so the bursty
    # client meets admission control and honours ``retry_after`` itself.
    router = cluster.router(RouterConfig(queue_depth=4, workers_per_shard=1,
                                         max_retries=2))
    logs, tracer = _log_deliveries(cluster), _trace(cluster)
    history = []
    sim = cluster.sim

    def request(c, k):
        key = b"k%d" % ((7 * k + c) % 24)
        arrived = sim.now
        if k % 2:
            out = yield from router.request("get", key)
        else:
            out = yield from router.request("put", key, b"v%d.%d" % (c, k))
        history.append((c, k, arrived, sim.now, out.status, out.value,
                        out.attempts, out.shard))
        return out

    # The second client offers twice what the four pipelined shards can
    # serve (~6.4 M req/s), so both admission signals fire: the window
    # first, then the queue behind it.
    for c, (rate, count) in enumerate(((150_000.0, 90), (12_000_000.0, 180))):
        cluster.spawn_sender(open_loop_client(
            sim, lambda k, c=c: request(c, k), rate=rate, count=count,
            rng=Random(100 + c), max_resubmits=50, name=f"client{c}"),
            name=f"client{c}")
    cluster.run_to_quiescence(max_time=2.0)
    assert len(history) > 270                       # resubmissions
    assert {h[4] for h in history} == {"ok", "rejected"}
    assert set(router.counters.rejected) == {"queue_full", "window_saturated"}
    assert any(h[5] for h in history if h[1] % 2)   # a read saw a write
    assert router.verifier.check().ok
    return cluster, (history, logs), tracer


def run_txn_occ_wal():
    cluster = _sharded(num_nodes=5, num_shards=4, num_subgroups=2, seed=23)
    router = cluster.router()
    plane = cluster.txn(TxnConfig(max_attempts=40))
    assert plane.config.cc == "occ"
    logs, tracer = _log_deliveries(cluster), _trace(cluster)
    history = []
    sim = cluster.sim

    def client(c):
        rng = Random(200 + c)
        for i in range(10):
            ops = []
            for _ in range(3):
                key = b"t%d" % rng.randrange(10)
                ops.append(TxnOp("get", key))
                if rng.random() < 0.6:
                    ops.append(TxnOp("put", key, b"v%d.%d" % (c, i)))
            handed = sim.now
            out = yield from plane.run_txn(ops, coordinator_node=4)
            history.append((c, i, handed, sim.now, out.status, out.reason,
                            out.attempts, tuple(out.reads),
                            out.participants, out.fastpath))
            yield us(2.0)

    for c in range(3):
        cluster.spawn_sender(client(c), name=f"txn-client{c}")
    cluster.run_to_quiescence(max_time=2.0)
    counters = plane.counters
    assert len(history) == 30 and counters.committed == 30
    assert counters.attempts > counters.committed       # retries happened
    assert counters.wal_records > 0 and counters.settles_sent > 0
    assert router.verifier.check().ok
    return cluster, (history, logs), tracer


def _membership_cluster(seed, count):
    cluster = Cluster(4, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_subgroup(message_size=256, window=8)
    cluster.enable_membership(heartbeat_period=us(100),
                              suspicion_timeout=us(500),
                              confirmation_grace=us(700))
    cluster.build()
    logs, tracer = _log_deliveries(cluster), _trace(cluster)
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=256))
    return cluster, logs, tracer


def run_chaos_stall():
    cluster, logs, tracer = _membership_cluster(seed=25, count=60)
    cluster.faults.stall(2, duration=us(800), at=us(30), scope="node")
    cluster.faults.stall(2, duration=us(400), at=ms(4), scope="predicate")
    thread = cluster.group(2).thread._process
    probes = []
    # Mid-stall: the predicate thread's timed wake fired while frozen
    # and sits deferred until resume().
    cluster.sim.call_at(us(400), lambda: probes.append(
        (thread.suspended, thread._deferred is not None)))
    cluster.run(until=ms(60))
    assert probes == [(True, True)]
    assert cluster.faults.counters()["stalls_finished"] == 2
    assert all(len(log) == 60 * 4 for log in logs.values())
    return cluster, ([], logs), tracer


def run_chaos_crash_parked():
    cluster, logs, tracer = _membership_cluster(seed=27, count=25)
    cluster.recovery  # auto-install the survivors' committed view
    thread = cluster.group(3).thread
    probes = []

    def crash():
        probes.append((thread.doorbell.waiting, thread._process.alive))
        cluster.fail_node(3)
        probes.append((thread.doorbell.waiting, thread._process.alive))

    def second_burst(view):
        for nid in view.members:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=15, size=256))

    cluster.on_view_installed.append(second_burst)
    # The first burst has drained; between heartbeats the thread is
    # parked on its doorbell when the node dies.
    cluster.sim.call_at(ms(2) + us(37), crash)
    cluster.run(until=ms(40))
    assert probes == [(1, True), (1, False)]
    assert cluster.view.members == (0, 1, 2)
    assert logs[0] == logs[1] == logs[2]
    assert len(logs[0]) == 25 * 4 + 15 * 3
    return cluster, ([], logs), tracer


RUNS = {
    "kv_open_loop": run_kv_open_loop,
    "txn_occ_wal": run_txn_occ_wal,
    "chaos_stall": run_chaos_stall,
    "chaos_crash_parked": run_chaos_crash_parked,
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name):
    cluster, (history, logs), tracer = RUNS[name]()
    assert tracer.dropped == 0
    return {
        "fingerprint": tracer.fingerprint(),
        "history": _sha(repr((history, sorted(logs.items())))),
        "metrics": _sha(cluster.metrics_json()),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_request_path_is_byte_identical_to_golden(name, check_golden):
    check_golden(GOLDEN, RUNS, name, lambda: digests(name))

"""Golden inertness gate for the receive -> deliver -> acknowledge ->
push data path (first slice of ROADMAP item 3a).

Run-twice equality cannot see a behaviour change that is itself
deterministic; committed digests can. Seven compact seeded runs cover
the paths a data-path refactor touches — the optimized and the
all-flags-off predicates, fig12's late-release arm (batching and nulls
with the RDMA posts *inside* the lock), unordered delivery, the §3.3
null-send path, the ragged-edge ``force_deliver_up_to`` of a view
change, and the Paxos backend (which shares ``SubgroupStats``) — and
pin three digests each:
``Tracer.fingerprint()`` (every RDMA write arrival and delivery upcall
with its exact timestamp), a sha256 of every node's delivery log, and a
sha256 of ``cluster.metrics_json()``.

The one regeneration path is ``pytest tests/test_data_path_golden.py
--update-golden``; review the diff of ``tests/golden/data_path.json``
like a bench baseline — a speed or refactoring PR must not change it.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import Tracer
from repro.core.config import SpindleConfig
from repro.sim.units import ms, us
from repro.workloads import Cluster, continuous_sender
from repro.workloads.runner import drive_to_completion

GOLDEN = Path(__file__).parent / "golden" / "data_path.json"

NODES = 4
SIZE = 256
WINDOW = 8
COUNT = 40


def _payload_fn(nid):
    return lambda k, nid=nid: f"{nid}:{k}".encode()


def _start(config, seed, backend=None, delivery_mode="atomic",
           membership=False):
    cluster = Cluster(NODES, config=config, seed=seed, backend=backend)
    cluster.add_subgroup(message_size=SIZE, window=WINDOW,
                         delivery_mode=delivery_mode)
    if membership:
        cluster.enable_membership(heartbeat_period=us(100),
                                  suspicion_timeout=us(500))
    cluster.build()
    logs = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: logs[nid].append(
                (d.sender, d.sender_rank, d.seq, d.size, d.payload)))
    tracer = Tracer(cluster)
    tracer.attach()
    return cluster, logs, tracer


def _send_all(cluster, count=COUNT, per_node=None):
    """Every node streams ``count`` content-checked messages;
    ``per_node[nid]`` overrides ``continuous_sender`` keywords."""
    for nid in cluster.node_ids:
        kwargs = dict(count=count, size=SIZE, payload_fn=_payload_fn(nid))
        kwargs.update((per_node or {}).get(nid, {}))
        cluster.spawn_sender(continuous_sender(cluster.mc(nid, 0), **kwargs))


def _stats(cluster, attr):
    return sum(getattr(cluster.group(nid).stats(0), attr)
               for nid in cluster.groups)


def run_optimized():
    cluster, logs, tracer = _start(SpindleConfig.optimized(), seed=3)
    _send_all(cluster)
    cluster.run_to_quiescence()
    assert _stats(cluster, "delivered") == COUNT * NODES * NODES
    return cluster, logs, tracer


def run_baseline():
    cluster, logs, tracer = _start(SpindleConfig.baseline(), seed=3)
    _send_all(cluster)
    cluster.run_to_quiescence()
    assert _stats(cluster, "delivered") == COUNT * NODES * NODES
    return cluster, logs, tracer


def run_late_release():
    config = replace(SpindleConfig.optimized(), early_lock_release=False)
    cluster, logs, tracer = _start(config, seed=3)
    _send_all(cluster)
    cluster.run_to_quiescence()
    assert _stats(cluster, "delivered") == COUNT * NODES * NODES
    return cluster, logs, tracer


def run_unordered():
    cluster, logs, tracer = _start(SpindleConfig.optimized(), seed=5,
                                   delivery_mode="unordered")
    _send_all(cluster)
    cluster.run_to_quiescence()
    assert _stats(cluster, "delivered") == COUNT * NODES * NODES
    return cluster, logs, tracer


def run_delayed_nulls():
    cluster, logs, tracer = _start(SpindleConfig.optimized(), seed=7)
    _send_all(cluster, per_node={1: dict(count=8, delay=us(40))})
    cluster.run_to_quiescence()
    assert _stats(cluster, "delivered") == (3 * COUNT + 8) * NODES
    assert _stats(cluster, "nulls_sent") > 0      # §3.3 path exercised
    assert _stats(cluster, "nulls_skipped") > 0
    return cluster, logs, tracer


def run_crash_view_change():
    cluster, logs, tracer = _start(SpindleConfig.optimized(), seed=9,
                                   membership=True)
    forced = []
    for nid in cluster.node_ids:
        mc = cluster.mc(nid, 0)

        def spy(trim, mc=mc, inner=mc.force_deliver_up_to):
            n = inner(trim)
            forced.append(n)
            return n

        mc.force_deliver_up_to = spy
    _send_all(cluster, count=400)
    cluster.sim.call_after(ms(0.6), cluster.fail_node, 3)
    cluster.run(until=ms(40))
    assert len(forced) == 3 and sum(forced) > 0   # ragged trim delivered
    assert logs[0] == logs[1] == logs[2]
    return cluster, logs, tracer


def run_paxos():
    cluster, logs, tracer = _start(SpindleConfig.optimized(), seed=11,
                                   backend="paxos")
    _send_all(cluster, count=25)
    drive_to_completion(cluster, {0: 25 * NODES * NODES}, max_time=1.0)
    return cluster, logs, tracer


RUNS = {
    "optimized": run_optimized,
    "baseline": run_baseline,
    "late_release": run_late_release,
    "unordered": run_unordered,
    "delayed_nulls": run_delayed_nulls,
    "crash_view_change": run_crash_view_change,
    "paxos": run_paxos,
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name):
    cluster, logs, tracer = RUNS[name]()
    assert tracer.dropped == 0
    return {
        "fingerprint": tracer.fingerprint(),
        "delivery_logs": _sha(repr(sorted(logs.items()))),
        "metrics": _sha(cluster.metrics_json()),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_path_is_byte_identical_to_golden(name, check_golden):
    check_golden(GOLDEN, RUNS, name, lambda: digests(name))

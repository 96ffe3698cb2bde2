"""Predicate-memoization soundness: memoized vs eager, differentially.

The polling thread memoizes falsy predicate evaluations on generation
counters (docs/ENGINE.md): a predicate whose ``generation()`` token is
unchanged since its last falsy evaluation is skipped without
re-evaluating. Soundness rests on §2.2 monotonicity — SST state a
predicate reads only ever advances, so an unchanged token means an
unchanged (falsy) answer.

These tests are the empirical check of that argument: the *same*
seeded workload runs as built (memoizing) and under
``references.eager_predicates`` (every multicast predicate answers
``generation()`` with None, so every pass calls ``evaluate()``), and
everything observable must be identical — the per-node delivery logs
(node, seq, sender, size, time), the trace fingerprint over every RDMA
write and delivery upcall, and the final clock. The runtime sanitizer
(§3.4 lock discipline, §2.2 monotonicity) is force-enabled for every
run, so a memoization bug that skipped a *stale* read would also trip
it directly.

Loads mirror the two benchmark figures most sensitive to predicate
scheduling — fig04's all-senders streaming subgroup (baseline and
fully-optimized configs) and fig12's early- vs late-lock-release
variants — plus the request path's shape: one node hosting several
shard subgroups, most of them idle (ROADMAP 1(b)). Test names keep
their ``engine_invariant`` suffix so tier-1 ids are stable.
"""

from random import Random

import pytest

from repro.analysis.lint.sanitizer import (disable_global, enable_global,
                                           global_sanitizer)
from repro.analysis.trace import Tracer
from references import eager_predicates
from repro.core.config import SpindleConfig
from repro.workloads import Cluster, continuous_sender, open_loop_client
from repro.workloads.runner import drive_to_completion


@pytest.fixture(autouse=True)
def _force_sanitizer():
    """Every differential run executes under the strict runtime
    sanitizer, whether or not the session set SPINDLE_SANITIZE=1."""
    was_active = global_sanitizer() is not None
    enable_global(strict=True)
    yield
    if not was_active:
        disable_global()


def _observables(cluster, tracer, deliveries):
    threads = [g.thread for g in cluster.groups.values()]
    return {
        "fingerprint": tracer.fingerprint(),
        "deliveries": deliveries,
        "end_time": cluster.sim.now,
        "evals_total": sum(t.evals_total for t in threads),
        "evals_skipped": sum(t.evals_skipped for t in threads),
    }


def _log_deliveries(cluster, subgroup_ids):
    """Attach a tracer and a per-node delivery log to a built cluster."""
    tracer = Tracer(cluster)
    tracer.attach()
    deliveries = []
    for nid, group in cluster.groups.items():
        for sg in subgroup_ids:
            if sg in group.multicasts:
                group.on_delivery(
                    sg, lambda d, nid=nid, sg=sg: deliveries.append(
                        (nid, sg, d.seq, d.sender, d.size, cluster.sim.now)))
    return tracer, deliveries


def _run(config, *, nodes=3, count=40, size=1024, window=16, seed=7):
    """One streaming-subgroup run; returns every observable we compare."""
    cluster = Cluster(nodes, config=config, seed=seed)
    cluster.add_subgroup(senders=list(range(nodes)), window=window,
                         message_size=size)
    cluster.build()
    tracer, deliveries = _log_deliveries(cluster, [0])
    for nid in range(nodes):
        cluster.spawn_sender(
            continuous_sender(cluster.mc(nid, 0), count=count, size=size),
            name=f"sender{nid}")
    drive_to_completion(cluster, {0: count * nodes * nodes}, max_time=30.0)
    cluster.assert_all_delivered(0, per_sender=count)
    return _observables(cluster, tracer, deliveries)


def _run_sharded(*, ops=60, seed=5):
    """The request path's shape: 4 shard subgroups × replication 2 on 4
    nodes — nodes 0 and 1 host subgroups 0 and 2, nodes 2 and 3 host 1
    and 3 — under a short open-loop put/get load whose keys all hash to
    one shard, so three of the four subgroups' predicates stay idle."""
    cluster = Cluster(4, config=SpindleConfig.optimized(), seed=seed)
    specs = cluster.add_shards(num_shards=4, replication=2, num_subgroups=4)
    cluster.build()
    router = cluster.router()
    tracer, deliveries = _log_deliveries(
        cluster, [spec.subgroup_id for spec in specs])
    hot = router.map.shard_of(b"k0")
    keys = [k for k in (b"k%d" % i for i in range(64))
            if router.map.shard_of(k) == hot][:8]

    def request(k):
        key = keys[k % len(keys)]
        if k % 3 == 2:
            return router.request("get", key)
        return router.request("put", key, b"v%d" % k)

    cluster.spawn_sender(open_loop_client(
        cluster.sim, request, rate=200_000.0, count=ops, rng=Random(seed)))
    cluster.run_to_quiescence(max_time=5.0)
    out = _observables(cluster, tracer, deliveries)
    assert {d[1] for d in deliveries} == {router.map.subgroup_of(hot)}
    return out


def _both(run, *args, **kwargs):
    """``run`` as built, then again with memoization off."""
    memoized = run(*args, **kwargs)
    with eager_predicates():
        eager = run(*args, **kwargs)
    return memoized, eager


def _assert_equivalent(memoized, eager):
    assert memoized["deliveries"], "nothing was delivered"
    assert memoized["deliveries"] == eager["deliveries"], \
        "memoized and eager runs delivered differently"
    assert memoized["fingerprint"] == eager["fingerprint"]
    assert memoized["end_time"] == eager["end_time"]
    assert memoized["evals_total"] == eager["evals_total"]
    # The differential is only meaningful if one arm actually memoized
    # something and the other evaluated every pass.
    assert memoized["evals_skipped"] > 0, "memoization never fired"
    assert eager["evals_skipped"] == 0, "eager arm must evaluate every pass"


@pytest.mark.parametrize("config_name", ["baseline", "optimized"])
def test_fig04_style_load_is_engine_invariant(config_name):
    """fig04's streaming load: every node sends, every config variant
    delivers identically under memoized and eager evaluation."""
    config = getattr(SpindleConfig, config_name)()
    _assert_equivalent(*_both(_run, config))


@pytest.mark.parametrize("early_release", [True, False])
def test_fig12_style_lock_release_is_engine_invariant(early_release):
    """fig12's thread-sync variants: early vs late lock release changes
    *which* instants the predicate thread holds the lock, and so which
    SST writes land between a token and the evaluation it stands for."""
    from dataclasses import replace
    config = replace(SpindleConfig.optimized(),
                     early_lock_release=early_release)
    _assert_equivalent(*_both(_run, config, nodes=4, count=25, size=4096))


def test_seed_sweep_is_engine_invariant():
    """A small seed sweep: the equivalence is not an artifact of one
    lucky schedule."""
    for seed in (0, 1, 2):
        _assert_equivalent(*_both(_run, SpindleConfig.optimized(), nodes=2,
                                  count=30, size=128, seed=seed))


def test_idle_shard_subgroups_are_engine_invariant():
    """A node hosting several shard subgroups with one of them hot:
    skipping the idle subgroups' evaluations changes nothing observable
    (the shape ROADMAP 1(b) wants memoized wider)."""
    _assert_equivalent(*_both(_run_sharded))

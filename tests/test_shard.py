"""Sharded service plane: map determinism, router admission/retry,
rebalance hand-off, and chaos-schedule replay (docs/SHARDING.md).

The load-bearing claims pinned here:

* the shard map is a pure function of ``(seed, shards, subgroups)`` —
  two routers derive byte-identical placement with no coordination;
* ``with_assignment`` moves exactly the named shard (a flip that
  silently relocated others would strand their keys — regression for
  the capacity-greedy/override interaction);
* admission control rejects honestly (bounded queue, SST-window
  congestion) and the deadline path times out queued requests;
* a gateway crash mid-stream loses no accepted request: the router
  re-routes, replays idempotently, and rid dedup keeps the state
  transition exactly-once;
* the rebalance hand-off transfers with CRC validation and commits
  only on cross-replica checksum agreement;
* the two shard chaos scenarios replay identically from the imperative
  fault calls and from their serialized JSON schedule.
"""

from random import Random

import pytest

from repro.core.config import SpindleConfig
from repro.core.membership import SubgroupSpec, View
from repro.faults import FaultSchedule
from repro.faults.scenarios import run_scenario
from repro.shard import RouterConfig, ShardMap, key_hash
from repro.sim.units import ms, us
from repro.workloads import Cluster, SloStats, open_loop_client


def make_view(view_id, members, subgroup_members):
    specs = tuple(
        SubgroupSpec.of(subgroup_id=i, members=m, window=8, message_size=256)
        for i, m in enumerate(subgroup_members))
    return View(view_id, tuple(members), specs)


# ===========================================================================
# ShardMap
# ===========================================================================


class TestShardMap:
    def test_same_inputs_identical_bytes(self):
        a = ShardMap(8, [0, 1, 2], seed=5)
        b = ShardMap(8, [2, 1, 0], seed=5)  # order-insensitive
        assert a.placement_bytes() == b.placement_bytes()
        assert a.digest() == b.digest()
        assert a.placement() == b.placement()

    def test_seed_reaches_both_hash_layers(self):
        a = ShardMap(8, [0, 1, 2], seed=1)
        b = ShardMap(8, [0, 1, 2], seed=2)
        assert a.digest() != b.digest()
        key = b"some-key"
        assert key_hash(key, 1) != key_hash(key, 2)

    def test_key_to_shard_ignores_membership(self):
        """Consistent-hash ring depends only on (seed, shards, vnodes):
        subgroup churn never moves a key between shards."""
        a = ShardMap(16, [0, 1, 2, 3], seed=9)
        b = ShardMap(16, [0, 7], seed=9)
        keys = [b"k%d" % i for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_placement_balanced(self):
        for seed in range(6):
            m = ShardMap(8, [0, 1, 2, 3], seed=seed)
            loads = {}
            for shard, sg in m.placement().items():
                loads[sg] = loads.get(sg, 0) + 1
            assert max(loads.values()) <= 2, (seed, loads)  # ceil(8/4)

    def test_lost_subgroup_movement_is_bounded(self):
        """A vanished subgroup's shards must move; the capacity rebound
        (ceil(8/4) -> ceil(8/3)) may displace a few survivors, but most
        of the map stays put (approximate minimal movement)."""
        for seed in range(8):
            full = ShardMap(8, [0, 1, 2, 3], seed=seed)
            shrunk = ShardMap(8, [0, 1, 3], seed=seed)
            moved = set(full.moved_shards(shrunk))
            lost = set(full.shards_of_subgroup(2))
            assert lost <= moved, (seed, moved, lost)
            assert len(moved) <= len(lost) + 2, (seed, moved, lost)
            assert 2 not in set(shrunk.placement().values())

    def test_with_assignment_moves_exactly_one_shard(self):
        """Regression: the capacity-bounded greedy must not let an
        override perturb the base placement of *other* shards."""
        m = ShardMap(6, [0, 1, 2], seed=0)
        for shard in range(6):
            for target in (0, 1, 2):
                flipped = m.with_assignment(shard, target)
                expected = [] if m.subgroup_of(shard) == target else [shard]
                assert m.moved_shards(flipped) == expected
                assert flipped.version == m.version + 1

    def test_rederive_pins_version_to_view_and_is_deterministic(self):
        m = ShardMap(8, [0, 1], seed=4)
        view = make_view(3, [0, 1, 2, 3], [[0, 1], [2, 3]])
        a, b = m.rederive(view), m.rederive(view)
        assert a.version == 3
        assert a.placement_bytes() == b.placement_bytes()

    def test_rederive_drops_vanished_subgroups_and_stale_overrides(self):
        m = ShardMap(8, [0, 1], seed=4).with_assignment(5, 1)
        view = make_view(2, [0, 1], [[0, 1]])  # subgroup 1 gone
        nxt = m.rederive(view)
        assert nxt.subgroup_ids == (0,)
        assert nxt.overrides == {}
        assert all(sg == 0 for sg in nxt.placement().values())

    def test_rederive_requires_a_serviceable_subgroup(self):
        m = ShardMap(4, [0], seed=0)
        view = make_view(1, [0, 1], [[0, 1]])
        with pytest.raises(ValueError):
            m.rederive(view, serviceable_ids=[])

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(0, [0])
        with pytest.raises(ValueError):
            ShardMap(4, [])
        with pytest.raises(ValueError):
            ShardMap(4, [0], overrides={9: 0})
        with pytest.raises(ValueError):
            ShardMap(4, [0], overrides={0: 5})


# ===========================================================================
# Router: admission control, deadlines, dedup
# ===========================================================================


def build_plane(num_nodes=4, num_shards=2, num_subgroups=2, seed=2,
                config=None, **shard_kw):
    cluster = Cluster(num_nodes, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_shards(num_shards=num_shards, replication=2,
                       num_subgroups=num_subgroups, window=8,
                       message_size=256, **shard_kw)
    cluster.build()
    return cluster, cluster.router(config)


class TestRouterAdmission:
    def test_window_saturated_rejects_and_client_gives_up(self):
        cluster, router = build_plane(
            config=RouterConfig(congestion_threshold=0.0, max_retries=3))
        outcomes = []

        def client():
            out = yield from router.request("put", b"k", b"v")
            outcomes.append(out)

        cluster.spawn_sender(client())
        cluster.run_to_quiescence(max_time=1.0)
        assert outcomes[0].status == "rejected"
        assert outcomes[0].attempts == 4  # 1 + max_retries
        assert router.counters.rejected["window_saturated"] == 3
        assert router.counters.client_gaveup == 1
        assert router.counters.accepted == 0

    def test_queue_full_rejects_when_frozen(self):
        cluster, router = build_plane(
            config=RouterConfig(queue_depth=2, max_retries=1))
        shard = router.map.shard_of(b"k0")
        router.freeze(shard)
        outcomes = []

        def client(i):
            out = yield from router.request("put", b"k0", b"v%d" % i)
            outcomes.append((i, out.status))

        for i in range(4):
            cluster.spawn_sender(client(i))
        cluster.run(until=ms(1))
        statuses = sorted(s for _i, s in outcomes)
        assert statuses == ["rejected", "rejected"]  # beyond depth 2
        assert router.counters.rejected["queue_full"] >= 2
        router.unfreeze(shard)
        cluster.run_to_quiescence(max_time=1.0)
        assert sum(1 for _i, s in outcomes if s == "ok") == 2

    def test_deadline_expires_queued_requests(self):
        cluster, router = build_plane()
        shard = router.map.shard_of(b"k0")
        router.freeze(shard)
        outcomes = []

        def client():
            out = yield from router.request(
                "put", b"k0", b"v", deadline=cluster.sim.now + us(100))
            outcomes.append(out)

        def unfreezer():
            yield us(500)  # past the deadline
            router.unfreeze(shard)

        cluster.spawn_sender(client())
        cluster.spawn_sender(unfreezer())
        cluster.run_to_quiescence(max_time=1.0)
        assert outcomes[0].status == "timeout"
        assert router.counters.timeouts == 1

    def test_rid_dedup_applies_once(self):
        cluster, router = build_plane()
        service = router.service
        sg = router.map.subgroup_of_key(b"dup-key")
        replica = service.gateway_replica(sg)
        results = []

        def submitter():
            first = yield from replica.put_req(42, b"dup-key", b"v1")
            second = yield from replica.put_req(42, b"dup-key", b"v2")
            results.extend([first, second])

        cluster.spawn_sender(submitter())
        cluster.run_to_quiescence(max_time=1.0)
        assert results[1] == "duplicate"
        assert replica.duplicates_skipped == 1
        assert replica.data[b"dup-key"] == b"v1"  # applied exactly once

    def test_reads_and_stale_reads(self):
        cluster, router = build_plane()
        seen = {}

        def client():
            yield from router.request("put", b"rk", b"rv")
            out = yield from router.request("get", b"rk")
            seen["sync"] = out.value
            seen["stale"] = router.stale_read(b"rk")

        cluster.spawn_sender(client())
        cluster.run_to_quiescence(max_time=1.0)
        assert seen["sync"] == b"rv"
        assert seen["stale"] == b"rv"
        assert router.counters.stale_reads == 1


# ===========================================================================
# Pipelining: dispatchers propose and move on; the ring bounds in-flight
# ===========================================================================

BACKENDS = [None, "paxos"]
WINDOW = 16


def pipelined_plane(backend=None, num_shards=1, config=None, seed=9):
    """``num_shards`` shards on ONE replication-2 subgroup with the
    kv_open_loop ring (window 16): one gateway, one send window."""
    cluster = Cluster(2, config=SpindleConfig.optimized(), seed=seed,
                      backend=backend)
    cluster.add_shards(num_shards=num_shards, replication=2,
                       num_subgroups=1, window=WINDOW, message_size=512)
    cluster.build()
    return cluster, cluster.router(config)


def drive(cluster, until=ms(40)):
    """Paxos keeps heartbeat timers pending forever: bounded window."""
    if cluster.backend.quiesces:
        cluster.run_to_quiescence(max_time=1.0)
    else:
        cluster.run(until=until)


def watch_executing(cluster, router, samples, period=us(0.5)):
    """Sample (executing, gateway ring occupancy) of shard 0's subgroup
    every ``period``; returns the list it fills."""
    seen = []
    mc = cluster.mc(router.service.gateway(0), 0)

    def watcher():
        for _ in range(samples):
            seen.append((sum(router.executing(s)
                             for s in range(router.map.num_shards)),
                         mc.window_in_use()))
            yield period

    cluster.spawn_sender(watcher(), name="watcher")
    return seen


def assert_plane_is_settled(router, accepted):
    """Nothing left behind: every accepted request reached exactly one
    terminal outcome and no shard holds one in its queue or ring."""
    c = router.counters
    assert c.accepted == accepted == c.completed + c.timeouts
    for shard in range(router.map.num_shards):
        assert router.inflight(shard) == 0
    audit = router.verifier.check()
    assert audit.ok, audit.violations


class TestPipelining:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_burst_fills_the_window_and_forms_batches(self, backend):
        """Past one shard's capacity the two dispatchers keep a ring of
        requests in flight (at the parent: two, one per worker), so the
        send predicate finds batches and a request costs fewer posts."""
        workers = 2
        cluster, router = pipelined_plane(backend, config=RouterConfig(
            queue_depth=128, workers_per_shard=workers, max_retries=2_000))
        seen = watch_executing(cluster, router, samples=4_000)
        stats, ops, total = SloStats(), Random(17), 1_200

        def request(k):
            key = b"k%d" % ops.randrange(512)
            if ops.random() < 0.5:
                return router.request("get", key)
            return router.request("put", key, b"v" * 64)

        cluster.spawn_sender(open_loop_client(
            cluster.sim, request, rate=2_000_000.0, count=total,
            rng=Random(5), stats=stats))
        drive(cluster)

        assert stats.ok == total
        peak_executing = max(e for e, _ring in seen)
        assert peak_executing > workers
        # The ring bounds what is in flight; each dispatcher may hold
        # one more request while it waits for a slot.
        assert peak_executing <= WINDOW + workers
        assert max(ring for _e, ring in seen) <= WINDOW
        assert_plane_is_settled(router, accepted=total)
        if backend is None:
            gateway = cluster.group(router.service.gateway(0)).stats(0)
            assert gateway.mean_batch(gateway.send_batches) > 1.5
            assert gateway.sends_blocked > 0  # the window is the bound
            writes = cluster.fabric.total_writes_posted()
            assert writes / total < 3.5, writes / total

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_dispatcher_proposes_in_queue_order(self, backend):
        cluster, router = pipelined_plane(backend, config=RouterConfig(
            workers_per_shard=1, congestion_threshold=2.0))
        keys = [b"q%d" % i for i in range(40)]
        outcomes = []

        def client(key):
            outcomes.append((yield from router.request("put", key, b"v")))

        for key in keys:  # same instant: enqueued in spawn order
            cluster.spawn_sender(client(key))
        drive(cluster)
        assert [o.status for o in outcomes] == ["ok"] * 40
        assert all(o.attempts == 1 for o in outcomes)
        gateway = router.service.gateway_replica(0)
        assert [key for _seq, _op, key in gateway.apply_log] == keys

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_more_dispatchers_than_window_past_capacity(self, backend):
        """`workers_per_shard > window`: 24 dispatchers race for 16
        slots (at the parent: "span [..) exceeds window 16"). The
        window admission check is off, so the queue feeds all 24 and
        the ones without a slot wait for the same doorbell."""
        cluster, router = pipelined_plane(backend, config=RouterConfig(
            queue_depth=128, workers_per_shard=24, max_retries=2_000,
            congestion_threshold=2.0))
        seen = watch_executing(cluster, router, samples=4_000)
        stats, total = SloStats(), 1_000
        cluster.spawn_sender(open_loop_client(
            cluster.sim,
            lambda k: router.request("put", b"w%d" % (k % 97), b"v%d" % k),
            rate=4_000_000.0, count=total, rng=Random(6), stats=stats))
        drive(cluster)
        assert stats.ok == total
        assert max(ring for _e, ring in seen) <= WINDOW
        assert max(e for e, _ring in seen) > WINDOW  # dispatchers queued up
        assert_plane_is_settled(router, accepted=total)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_saturated_hot_key_history_is_linearizable(self, backend):
        """Wing-Gong over gets and puts on four hot keys with a window
        of them in flight: a get's value is read at its fence's
        delivery, so no read returns a value older than one that
        completed before the read began. 24 closed-loop clients against
        a 16-slot ring keep it full (and keep the search's width at 24:
        open-loop clients retrying behind admission control would make
        hundreds of operations mutually concurrent)."""
        from repro.analysis.linearize import HistoryRecorder, check_recorder

        clients, per_client = 24, 20
        cluster, router = pipelined_plane(backend, config=RouterConfig(
            max_retries=2_000))
        seen = watch_executing(cluster, router, samples=3_000)
        recorder = HistoryRecorder()
        sim = cluster.sim

        def client(c):
            ops = Random(230 + c)
            for i in range(per_client):
                key = b"hot%d" % ops.randrange(4)
                if ops.random() < 0.5:
                    op = recorder.invoke(c, "get", key, None, at=sim.now)
                    out = yield from router.request("get", key)
                else:
                    value = b"v%d.%d" % (c, i)
                    op = recorder.invoke(c, "put", key, value, at=sim.now)
                    out = yield from router.request("put", key, value)
                assert out.status == "ok"
                recorder.complete(op, at=sim.now, value=out.value)

        for c in range(clients):
            cluster.spawn_sender(client(c), name=f"client{c}")
        drive(cluster)
        total = clients * per_client
        assert len(recorder) == total
        assert max(e for e, _ring in seen) >= WINDOW  # a ring, not a pair
        report = check_recorder(recorder)
        assert report.ok, report.violations
        assert report.pending_ops == 0 and report.keys_checked == 4
        assert_plane_is_settled(router, accepted=total)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadline_passing_in_the_queue_still_times_out(self, backend):
        """Behind a full ring (not a freeze): requests whose deadline
        passes while they queue are answered ``timeout`` and never
        proposed."""
        cluster, router = pipelined_plane(backend, config=RouterConfig(
            queue_depth=128, congestion_threshold=2.0))
        outcomes = []

        def client(i):
            out = yield from router.request(
                "put", b"d%d" % i, b"v", deadline=cluster.sim.now + us(40))
            outcomes.append(out)

        for i in range(100):
            cluster.spawn_sender(client(i))
        drive(cluster)
        statuses = [o.status for o in outcomes]
        assert len(statuses) == 100 and set(statuses) == {"ok", "timeout"}
        timeouts = statuses.count("timeout")
        assert timeouts == router.counters.timeouts >= 1
        gateway = router.service.gateway_replica(0)
        assert gateway.applied == 100 - timeouts
        assert_plane_is_settled(router, accepted=100)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_settle_lane_drains_through_a_frozen_shard_with_the_ring_full(
            self, backend):
        """Shard 0 is frozen and its subgroup's ring is kept full by the
        other shard's burst: a settle still gets its slot and completes,
        while shard 0's ordinary request stays queued."""
        from repro.txn.records import SettleRecord, encode_settle

        cluster, router = pipelined_plane(backend, num_shards=2,
                                          config=RouterConfig(
                                              queue_depth=128,
                                              congestion_threshold=2.0))
        frozen, busy = 0, 1
        busy_keys = [k for k in (b"b%d" % i for i in range(400))
                     if router.map.shard_of(k) == busy][:100]
        frozen_key = next(k for k in (b"f%d" % i for i in range(100))
                          if router.map.shard_of(k) == frozen)
        router.freeze(frozen)
        done, probe = {}, {}

        def put(key):
            done[key] = yield from router.request("put", key, b"v")

        def settle():
            record = SettleRecord(txn_id=900, shard=frozen, commit=False)
            done["settle"] = yield from router.request(
                "txn_settle", b"", value=encode_settle(record), shard=frozen)
            probe["at_settle"] = (router.queue_depth(frozen),
                                  router.queue_depth(busy) > 0)

        for key in busy_keys:
            cluster.spawn_sender(put(key))
        cluster.spawn_sender(put(frozen_key))
        cluster.spawn_sender(settle())
        cluster.run(until=ms(10))
        assert done["settle"].status == "ok"
        # Settled while the other shard's backlog still filled the ring
        # and the frozen shard's own put waited in its queue.
        assert probe["at_settle"] == (1, True)
        assert frozen_key not in done
        router.unfreeze(frozen)
        cluster.run(until=ms(20))
        assert done[frozen_key].status == "ok"
        assert all(done[k].status == "ok" for k in busy_keys)
        assert_plane_is_settled(router, accepted=102)


# ===========================================================================
# Rebalance hand-off
# ===========================================================================


class TestRebalance:
    def test_migration_crc_checksum_and_commit(self):
        cluster, router = build_plane(num_nodes=4, num_shards=4,
                                      num_subgroups=2, seed=1)
        service = router.service
        records = []

        def run():
            for i in range(30):
                yield from router.request("put", b"mk%d" % i, b"mv%d" % i)
            old_map = router.map
            src = old_map.subgroup_ids[0]
            shard = old_map.shards_of_subgroup(src)[0]
            target = old_map.subgroup_ids[1]
            before = service.shard_items(shard, old_map)
            rec = yield from router.rebalancer.migrate(shard, target)
            records.append((rec, old_map, shard, target, before))

        cluster.spawn_sender(run())
        cluster.run_to_quiescence(max_time=2.0)
        rec, old_map, shard, target, before = records[0]
        assert rec.ok and rec.crc_ok and rec.checksum_agree
        assert rec.keys_moved == len(before) > 0
        assert rec.chunks >= 1
        assert rec.error is None
        assert router.map.subgroup_of(shard) == target
        assert old_map.moved_shards(router.map) == [shard]
        assert router.map.version == rec.map_version == old_map.version + 1
        # Source replicas dropped the shard; the verifier is clean.
        for nid in cluster.members_of(old_map.subgroup_of(shard)):
            rep = service.replicas[(old_map.subgroup_of(shard), nid)]
            assert not any(router.map.shard_of(k) == shard
                           for k in rep.data)
        audit = router.verifier.check()
        assert audit.ok, audit.violations
        assert audit.keys_checked > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_handoff_streams_the_shard_instead_of_a_round_trip_per_key(
            self, backend):
        """A 155-key shard hands off in under a third of what the
        per-key replay and per-key cleanup took (2,595 us on Spindle,
        2,461 us on Paxos, measured at the parent on this exact load:
        16.7 us per key, all of it with the shard frozen), with the same
        CRC, checksum-agreement and verifier guarantees."""
        cluster = Cluster(4, config=SpindleConfig.optimized(), seed=1,
                          backend=backend)
        cluster.add_shards(num_shards=2, replication=2, num_subgroups=2,
                           window=WINDOW, message_size=256)
        cluster.build()
        router = cluster.router()
        service = router.service
        moved = {}

        def run():
            for i in range(300):
                yield from router.request("put", b"mk%d" % i, b"mv%d" % i)
            old_map = router.map
            shard = old_map.shards_of_subgroup(old_map.subgroup_ids[0])[0]
            moved["before"] = service.shard_items(shard, old_map)
            moved["rec"] = yield from router.rebalancer.migrate(
                shard, old_map.subgroup_ids[1])

        cluster.spawn_sender(run())
        drive(cluster, until=ms(200))
        rec, before = moved["rec"], moved["before"]
        assert rec.ok and rec.crc_ok and rec.checksum_agree, rec.error
        assert rec.keys_moved == len(before) == 155
        assert rec.finished_at - rec.started_at < us(2_461) / 3
        assert service.shard_items(rec.shard, router.map) == before
        assert router.executing(rec.shard) == 0
        audit = router.verifier.check()
        assert audit.ok, audit.violations

    def test_migration_to_same_subgroup_is_a_noop(self):
        cluster, router = build_plane(num_nodes=4, num_shards=2,
                                      num_subgroups=2)
        shard = 0
        sg = router.map.subgroup_of(shard)
        records = []

        def run():
            rec = yield from router.rebalancer.migrate(shard, sg)
            records.append(rec)

        cluster.spawn_sender(run())
        cluster.run_to_quiescence(max_time=1.0)
        assert records[0].ok and records[0].keys_moved == 0

    def test_migration_to_unknown_subgroup_fails_cleanly(self):
        cluster, router = build_plane(num_nodes=4, num_shards=2,
                                      num_subgroups=2)
        version = router.map.version
        records = []

        def run():
            rec = yield from router.rebalancer.migrate(0, 99)
            records.append(rec)

        cluster.spawn_sender(run())
        cluster.run_to_quiescence(max_time=1.0)
        assert not records[0].ok
        assert "unserviceable" in records[0].error
        assert router.map.version == version  # placement untouched


# ===========================================================================
# Failover: re-route + idempotent replay across a view change
# ===========================================================================


def failover_plane(replication=3, **shard_kw):
    """Two shard subgroups of ``replication`` members each ([0, 1, 2]
    and [3, 4, 5] by default, node 0 the gateway of the first) with
    failure detection."""
    cluster = Cluster(2 * replication, config=SpindleConfig.optimized(),
                      seed=5)
    cluster.add_shards(num_shards=4, replication=replication,
                       num_subgroups=2, window=8, message_size=256,
                       **shard_kw)
    cluster.enable_membership(heartbeat_period=us(100),
                              suspicion_timeout=us(500))
    cluster.build()
    return cluster


def spawn_writers(cluster, router, clients, puts, gap=0.0):
    """Sequential writers with ``gap`` think time; returns the outcome
    list and the key -> last acknowledged value map they fill."""
    outcomes, expected = [], {}

    def client(c):
        for i in range(puts):
            key = b"f%d.%d" % (c, i)
            out = yield from router.request("put", key, b"val%d" % i)
            outcomes.append(out)
            if out.status == "ok":
                expected[key] = b"val%d" % i
            yield gap

    for c in range(clients):
        cluster.spawn_sender(client(c))
    return outcomes, expected


class TestFailover:
    def test_gateway_crash_loses_no_accepted_request(self):
        cluster = failover_plane()
        cluster.enable_recovery()
        router = cluster.router(RouterConfig(max_retries=400))
        # No think time, so requests are executing on the gateway when
        # it dies: the lost-in-flight path, not just a quiet failover.
        outcomes, expected = spawn_writers(cluster, router, 3, 15)
        lost_in_flight = []
        cluster.faults.on_crash.append(
            lambda _node: lost_in_flight.append(sum(
                router.executing(s)
                for s in router.map.shards_of_subgroup(0))))
        cluster.faults.crash(0, at=us(110))  # gateway of subgroup 0
        cluster.run(until=ms(30))

        assert lost_in_flight[0] >= 1
        assert len(outcomes) == 45
        assert all(o.status == "ok" for o in outcomes)
        assert 0 not in cluster.view.members
        assert router.counters.gateway_changes >= 1
        assert router.counters.epoch_retries + router.counters.wedge_aborts >= 1
        for key, value in expected.items():
            assert router.stale_read(key) == value
        audit = router.verifier.check()
        assert audit.ok, audit.violations

    def test_gateway_crash_replays_a_window_of_requests_exactly_once(self):
        """The gateway dies with a ring of requests executing (the
        closed-loop workers could lose two per shard): every one replays
        on the promoted sender, rid dedup absorbs the ones the old epoch
        had already committed, and each is applied exactly once."""
        cluster = failover_plane()
        cluster.enable_recovery()
        router = cluster.router(RouterConfig(max_retries=400))
        outcomes, expected = spawn_writers(cluster, router, 32, 4)
        shards = router.map.shards_of_subgroup(0)
        caught = []

        def crash_with_a_ring_in_flight():
            yield us(30)
            while sum(router.executing(s) for s in shards) < 8:
                yield us(0.5)
            caught.extend(s.rid for shard in shards
                          for s in router._executing[shard])
            cluster.faults.crash(0)  # gateway of subgroup 0

        cluster.spawn_sender(crash_with_a_ring_in_flight())
        cluster.run(until=ms(30))

        assert len(caught) >= 8
        assert len(outcomes) == 128
        assert all(o.status == "ok" for o in outcomes)
        assert router.counters.gateway_changes == 1
        assert router.counters.epoch_retries >= len(caught)
        # Exactly once: a replay whose original had committed is skipped
        # by every survivor and answered as a duplicate, never re-applied.
        duplicates = sum(1 for o in outcomes if o.duplicate)
        survivors = [router.service.replica(0, n) for n in (1, 2)]
        promoted = router.service.gateway_replica(0)
        assert promoted is survivors[0]
        writes = [k for k in expected if router.map.subgroup_of_key(k) == 0]
        for replica in survivors:
            assert replica.duplicates_skipped == duplicates
            assert set(caught) <= replica.seen_requests
            assert len(replica.seen_requests) == len(writes)
        for key, value in expected.items():
            assert router.stale_read(key) == value
        for shard in range(router.map.num_shards):
            assert router.inflight(shard) == 0
        audit = router.verifier.check()
        assert audit.ok, audit.violations

    def test_follower_crash_keeps_the_gateway(self):
        """A non-gateway member dies: the sender is untouched; requests
        executing behind the dead member's missing acks when the epoch
        wedges are replayed — exactly once — in the next one, while
        admission turns new work away (``window_saturated``: a wedged
        endpoint reports congestion 1.0) instead of queueing it."""
        cluster = failover_plane()
        cluster.enable_recovery()
        router = cluster.router(RouterConfig(max_retries=400))
        # Enough writers to keep the gateway's ring full, and a crash
        # inside their first burst: a request is then still in the ring
        # when the epoch wedges (replies leave at each upcall, and a
        # gateway that is its own first receiver drains the ring in
        # about 80 us, after which admission turns the rest away).
        outcomes, expected = spawn_writers(cluster, router, 60, 2)
        stuck = []
        cluster.on_epoch_end.insert(0, lambda _view, _groups: stuck.extend(
            s.rid for shard in router.map.shards_of_subgroup(0)
            for s in router._executing[shard]))
        cluster.faults.crash(1, at=us(50))
        cluster.run(until=ms(30))

        assert len(outcomes) == 120
        assert all(o.status == "ok" for o in outcomes)
        spec = cluster.view.subgroups[0]
        assert spec.members == (0, 2) and spec.senders == (0,)
        assert router.counters.gateway_changes == 0
        assert len(stuck) >= 1
        assert router.counters.epoch_retries == len(stuck)
        assert router.counters.rejected.get("window_saturated", 0) >= 1
        assert "no_gateway" not in router.counters.rejected
        for node in (0, 2):
            replica = router.service.replica(0, node)
            assert set(stuck) <= replica.seen_requests
            assert replica.duplicates_skipped == sum(
                1 for o in outcomes if o.duplicate)
        for key, value in expected.items():
            assert router.stale_read(key) == value
        audit = router.verifier.check()
        assert audit.ok, audit.violations

    def test_failover_gap_serves_reads_and_rejects_no_gateway(self):
        """Between the gateway's crash and the successor view every
        surviving replica still holds the state: reads and audits are
        served, submissions are refused as ``no_gateway`` — and the
        default retry budget outlasts the gap."""
        cluster = failover_plane()
        cluster.enable_recovery()
        router = cluster.router()  # default max_retries = 50
        outcomes, expected = spawn_writers(cluster, router, 3, 15, gap=us(50))
        in_gap = {}

        def probe():
            yield us(700)  # crash + 300 us: suspected, not yet excised
            in_gap["view"] = cluster.view.view_id
            with pytest.raises(RuntimeError, match="no gateway"):
                router.service.gateway(0)
            acked = {k: v for k, v in expected.items()
                     if router.map.subgroup_of_key(k) == 0}
            in_gap["reads"] = {k: router.stale_read(k) for k in acked}
            in_gap["acked"] = acked
            in_gap["items"] = sum(
                len(router.service.shard_items(s, router.map))
                for s in router.map.shards_of_subgroup(0))
            in_gap["audit"] = router.verifier.check()
            in_gap["rejected"] = dict(router.counters.rejected)

        cluster.spawn_sender(probe())
        cluster.faults.crash(0, at=us(400))
        cluster.run(until=ms(30))

        assert in_gap["view"] == 0 and cluster.view.view_id == 1
        assert in_gap["acked"] and in_gap["reads"] == in_gap["acked"]
        assert in_gap["items"] == len(in_gap["acked"])
        assert in_gap["audit"].ok, in_gap["audit"].violations
        assert in_gap["rejected"].get("no_gateway", 0) >= 1
        rejected = router.counters.rejected
        assert set(rejected) == {"no_gateway"}
        assert len(outcomes) == 45
        assert all(o.status == "ok" for o in outcomes)
        assert router.counters.client_gaveup == 0
        assert max(o.attempts for o in outcomes) <= 20
        mirrored = cluster.metrics_snapshot()["metrics"][
            'spindle_router_rejected_total{reason="no_gateway"}']
        assert mirrored["value"] == rejected["no_gateway"]

    def test_settle_admitted_in_the_failover_gap_wedge_aborts_and_replays(
            self):
        """What still reaches a dispatcher with no gateway to propose
        on: the reserved lane admits a settle in the failover gap
        (ordinary work is turned away ``no_gateway``). The dispatcher
        gives up (``wedge_aborts``), the request stays executing, and
        the next epoch's dispatchers replay it on the promoted sender."""
        from repro.txn.records import SettleRecord, encode_settle

        cluster = failover_plane()
        cluster.enable_recovery()
        router = cluster.router()
        shard = router.map.shards_of_subgroup(0)[0]
        done = {}

        def settle_in_the_gap():
            yield us(700)  # crash + 300 us: suspected, not yet excised
            assert cluster.view.view_id == 0
            record = SettleRecord(txn_id=901, shard=shard, commit=False)
            done["settle"] = yield from router.request(
                "txn_settle", b"", value=encode_settle(record), shard=shard)
            done["view"] = cluster.view.view_id

        cluster.spawn_sender(settle_in_the_gap())
        cluster.faults.crash(0, at=us(400))
        cluster.run(until=ms(30))
        assert done["settle"].status == "ok" and done["view"] == 1
        assert done["settle"].attempts == 2  # admitted once, replayed once
        assert router.counters.wedge_aborts == 1
        assert router.counters.epoch_retries == 1
        assert router.counters.settle_reserved == 1
        assert router.inflight(shard) == 0

    def test_gateway_crash_and_rejoin_keeps_one_sender_and_no_nulls(self):
        """The crashed gateway restarts and rejoins while clients keep
        writing: it comes back as a replica, not as a second sender, so
        the shard subgroups still announce no nulls afterwards."""
        from repro.recovery import RecoveryConfig

        cluster = failover_plane(persistent=True)
        coord = cluster.enable_recovery(RecoveryConfig(rejoin_subgroups=(0,)))
        router = cluster.router()
        service = router.service
        coord.set_applier(0, lambda node, entries:
                          service.replica(0, node).rebuild(entries))
        outcomes, expected = spawn_writers(cluster, router, 4, 60,
                                           gap=us(100))
        cluster.faults.crash(0, at=us(400), restart_at=ms(3))
        cluster.run(until=ms(40))

        assert coord.reports[0].done, coord.reports[0].problems
        assert len(outcomes) == 240
        assert all(o.status == "ok" for o in outcomes)
        assert router.counters.client_gaveup == 0
        # Clients were still writing after the rejoin epoch was cut.
        assert coord.reports[0].finished_at < cluster.sim.now
        view = cluster.view
        assert view.members == (1, 2, 3, 4, 5, 0)
        shard0, shard1 = view.subgroups
        assert shard0.members == (1, 2, 0) and shard0.senders == (1,)
        assert shard1.members == (3, 4, 5) and shard1.senders == (3,)
        assert service.gateway(0) == 1
        for spec in view.subgroups:
            for node in spec.members:
                stats = cluster.group(node).stats(spec.subgroup_id)
                assert stats.nulls_sent == 0, (spec.subgroup_id, node)
                assert stats.delivered > 0
        for key, value in expected.items():
            sg = router.map.subgroup_of_key(key)
            for node in cluster.members_of(sg):
                assert service.replica(sg, node).read(key) == value
        audit = router.verifier.check()
        assert audit.ok, audit.violations
        assert audit.replicas_checked == 6

    def test_default_rejoin_returns_to_the_subgroups_the_node_left(self):
        """``RecoveryConfig()`` leaves ``rejoin_subgroups`` None — "all
        it was a member of": a crashed replica of one shard subgroup
        comes back to that subgroup only, not to every subgroup of the
        view, and pulls no state for a subgroup it never hosted."""
        cluster = failover_plane(replication=2, persistent=True)
        coord = cluster.enable_recovery()
        router = cluster.router()
        service = router.service
        coord.set_applier(0, lambda node, entries:
                          service.replica(0, node).rebuild(entries))
        outcomes, expected = spawn_writers(cluster, router, 4, 40,
                                           gap=us(100))
        cluster.faults.crash(1, at=us(400), restart_at=ms(3))
        cluster.run(until=ms(40))

        report = coord.reports[1]
        assert report.done, report.problems
        assert sorted(report.replayed) == [0]
        assert len(outcomes) == 160
        assert all(o.status == "ok" for o in outcomes)
        view = cluster.view
        assert view.members == (0, 2, 3, 1)
        shard0, shard1 = view.subgroups
        assert shard0.members == (0, 1) and shard0.senders == (0,)
        assert shard1.members == (2, 3) and shard1.senders == (2,)
        for key, value in expected.items():
            sg = router.map.subgroup_of_key(key)
            for node in cluster.members_of(sg):
                assert service.replica(sg, node).read(key) == value
        audit = router.verifier.check()
        assert audit.ok, audit.violations
        assert audit.replicas_checked == 4


class TestDesignatedSenderPin:
    def test_failure_free_run_sends_no_nulls_and_five_writes_per_request(self):
        """The kv_open_loop shape (4 shards x replication 2) at a rate
        it keeps up with: a replica that never originates owes no
        section-3.3 nulls, so one request costs the gateway's slot push,
        the replica's ack and the gateway's delivered-ack — under 5 RDMA
        writes (5.9 when every replica was declared a sender)."""
        cluster = Cluster(8, config=SpindleConfig.optimized(), seed=3)
        specs = cluster.add_shards(num_shards=4, replication=2,
                                   num_subgroups=4, window=16,
                                   message_size=512)
        cluster.build()
        router = cluster.router()
        assert all(len(spec.senders) == 1 and spec.designated_sender
                   for spec in specs)
        stats = SloStats()
        ops = Random(17)

        def request(k):
            key = b"k%d" % ops.randrange(512)
            if ops.random() < 0.5:
                return router.request("get", key)
            return router.request("put", key, b"v" * 64)

        cluster.spawn_sender(open_loop_client(
            cluster.sim, request, rate=200_000.0, count=400,
            rng=Random(5), stats=stats))
        cluster.run_to_quiescence(max_time=2.0)
        assert stats.ok == 400
        for spec in specs:
            for node in spec.members:
                assert cluster.group(node).stats(
                    spec.subgroup_id).nulls_sent == 0
        writes = cluster.fabric.total_writes_posted()
        assert writes / 400 <= 5.0, writes / 400


# ===========================================================================
# Open-loop client + SLO accounting
# ===========================================================================


class TestOpenLoopClient:
    def test_poisson_arrivals_complete_with_slo_accounting(self):
        cluster, router = build_plane(num_shards=4, num_subgroups=2,
                                      num_nodes=8, seed=6)
        stats = SloStats()
        cluster.spawn_sender(open_loop_client(
            cluster.sim,
            lambda k: router.request("put", b"ol%d" % k, b"v"),
            rate=50_000.0, count=40, rng=Random(99), stats=stats,
            deadline=ms(5)))
        cluster.run_to_quiescence(max_time=5.0)
        assert stats.submitted == stats.completed == 40
        assert stats.ok == 40
        assert stats.slo_misses == 0
        assert len(stats.latencies) == 40
        assert 0 < stats.p50() <= stats.p99()
        d = stats.to_dict()
        assert d["p99_latency"] == stats.p99()

    def test_open_loop_is_deterministic_in_the_seed(self):
        def once():
            cluster, router = build_plane(num_shards=2, num_subgroups=2,
                                          seed=8)
            stats = SloStats()
            cluster.spawn_sender(open_loop_client(
                cluster.sim,
                lambda k: router.request("put", b"d%d" % k, b"v"),
                rate=100_000.0, count=25, rng=Random(4), stats=stats))
            cluster.run_to_quiescence(max_time=2.0)
            return stats.to_dict()

        assert once() == once()

    def test_rejected_and_timeout_outcomes_are_bucketed(self):
        stats = SloStats()
        stats.record("ok", 0.002, deadline_missed=True)
        stats.record("rejected", 0.0, attempts=5)
        stats.record("timeout", 0.0)
        assert stats.ok == 1 and stats.rejected == 1 and stats.timeouts == 1
        assert stats.slo_misses == 1
        assert stats.attempts == 7
        assert len(stats.latencies) == 1  # only ok completions measured


# ===========================================================================
# Chaos scenarios: determinism + JSON replay
# ===========================================================================


def sharded_chaotic_run(schedule_json=None, seed=13):
    """Shard-plane run under a mixed fault diet, imperative or replayed
    from a serialized schedule (the PR-2 chaotic_run pattern)."""
    cluster = Cluster(6, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_shards(num_shards=4, replication=2, num_subgroups=3,
                       window=8, message_size=256)
    cluster.build()
    router = cluster.router()
    outcomes = []

    def client(c):
        for i in range(20):
            out = yield from router.request("put", b"c%d.%d" % (c, i), b"v")
            outcomes.append((c, i, out.status, out.attempts, out.shard))
            yield us(40)

    for c in range(3):
        cluster.spawn_sender(client(c))
    if schedule_json is None:
        cluster.faults.jitter(until=ms(5), extra_latency=us(1),
                              jitter=us(3), at=0.0)
        cluster.faults.stall(1, duration=us(300), at=ms(1))
    else:
        cluster.faults.apply(FaultSchedule.from_json(schedule_json))
    cluster.run(until=ms(20))
    digest = {sg: cluster.total_delivered(sg)
              for sg in cluster._shard_plan["subgroup_ids"]}
    return (outcomes, digest, router.counters.to_dict(),
            cluster.faults.counters(), cluster.faults.schedule.to_json())


class TestShardChaos:
    def test_shard_scenarios_pass_seeds_0_to_2(self):
        for name in ("shard-failover", "rebalance-under-load"):
            for seed in range(3):
                result = run_scenario(name, seed)
                assert result.ok, (name, seed, result.problems)

    def test_shard_scenarios_replay_identically(self):
        for name in ("shard-failover", "rebalance-under-load"):
            a = run_scenario(name, seed=1)
            b = run_scenario(name, seed=1)
            assert a.to_dict() == b.to_dict(), name

    def test_imperative_run_equals_json_replay(self):
        out1, digest1, router1, faults1, schedule = sharded_chaotic_run()
        out2, digest2, router2, faults2, round_trip = sharded_chaotic_run(
            schedule_json=schedule)
        assert out2 == out1
        assert digest2 == digest1
        assert router2 == router1
        assert faults2 == faults1
        assert round_trip == schedule

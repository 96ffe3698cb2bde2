"""Property-based tests (hypothesis): the atomic multicast invariants
hold under randomized group shapes, window sizes, workloads, sending
patterns and optimization combinations."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SpindleConfig
from repro.rdma import WriteSnapshot
from repro.sim.units import us
from repro.smc import SlotValue
from repro.workloads import Cluster, continuous_sender

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

config_strategy = st.builds(
    SpindleConfig,
    batch_send=st.booleans(),
    batch_receive=st.booleans(),
    batch_delivery=st.booleans(),
    null_sends=st.booleans(),
    null_send_batched=st.booleans(),
    early_lock_release=st.booleans(),
    batched_upcall=st.booleans(),
)


def run_workload(n, window, config, counts, delays, size=256):
    """Build a cluster where node i sends counts[i] messages with
    delays[i] pacing; return per-node delivery logs."""
    cluster = Cluster(num_nodes=n, config=config)
    cluster.add_subgroup(message_size=size, window=window)
    cluster.build()
    log = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: log[nid].append((d.seq, d.sender, d.payload)))
    for nid, (count, delay) in enumerate(zip(counts, delays)):
        if count > 0:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=count, size=size, delay=delay,
                payload_fn=lambda k, nid=nid: b"%d:%d" % (nid, k)))
        else:
            cluster.mc(nid, 0).mark_finished()
    cluster.run_to_quiescence(max_time=5.0)
    return cluster, log


@SLOW
@given(
    n=st.integers(2, 5),
    window=st.integers(2, 12),
    count=st.integers(1, 20),
    config=config_strategy,
)
def test_uniform_workload_total_order(n, window, count, config):
    """Equal senders: every config must deliver everything, identically
    ordered, exactly once, FIFO per sender."""
    cluster, log = run_workload(
        n, window, config, counts=[count] * n, delays=[0.0] * n)
    logs = list(log.values())
    assert all(l == logs[0] for l in logs)
    assert len(logs[0]) == n * count
    payloads = [p for (_, _, p) in logs[0]]
    assert len(set(payloads)) == n * count
    for sender in range(n):
        ks = [int(p.split(b":")[1]) for (_, s, p) in logs[0] if s == sender]
        assert ks == sorted(ks)


@SLOW
@given(
    n=st.integers(2, 5),
    window=st.integers(2, 12),
    count=st.integers(1, 20),
    sender=st.integers(0, 4),
    config=config_strategy,
    reader_acks=st.booleans(),
)
def test_designated_sender_total_order(n, window, count, sender, config,
                                       reader_acks):
    """One sender among n members, under every config, with reader-only
    acks (a self-receiving sole sender) or without: every member
    delivers the sender's messages once each, in order."""
    sender %= n
    cluster = Cluster(num_nodes=n, config=config.with_(
        reader_acks=reader_acks))
    cluster.add_subgroup(message_size=256, window=window, senders=[sender])
    cluster.build()
    log = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: log[nid].append(d.payload))
    cluster.spawn_sender(continuous_sender(
        cluster.mc(sender, 0), count=count, size=256,
        payload_fn=lambda k: b"%d" % k))
    cluster.run_to_quiescence(max_time=5.0)
    expected = [b"%d" % k for k in range(count)]
    assert all(entries == expected for entries in log.values())


def _drain(gen):
    """Run a trigger or its deferred work to its return value outside
    the simulator (what it yields are costs and instants)."""
    try:
        while True:
            next(gen)
    except StopIteration as done:
        return done.value


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 5), window=st.integers(1, 16), data=st.data())
def test_a_skipped_delivery_ack_rides_the_next_receive_ack(n, window, data):
    """A designated- or half-sender subgroup, and a non-sender whose SST
    copy takes in two random rounds of arrivals (ring slots and null
    counters) with a receive pass between them. Whenever its delivery
    trigger skips the delivery ack, the receive trigger run next posts
    push_control() to every peer, a superset of the ack's targets. A
    wedged endpoint never skips: its receive trigger no longer pushes."""
    num_senders = data.draw(st.integers(1, min(3, n - 1)))
    senders = sorted(data.draw(st.lists(
        st.integers(0, n - 1), min_size=num_senders,
        max_size=num_senders, unique=True)))
    cluster = Cluster(num_nodes=n, config=SpindleConfig.optimized())
    cluster.add_subgroup(message_size=64, window=window, senders=senders)
    cluster.build()
    node = data.draw(st.sampled_from(
        [m for m in cluster.node_ids if m not in senders]))
    mc = cluster.mc(node, 0)
    cols = mc.cols
    reals = [0] * num_senders
    nulls = [0] * num_senders

    def land(sender, col, value):
        mc.sst.rows[sender].apply_write(WriteSnapshot(col, (value,), 8))

    def arrive():
        for rank, sender in enumerate(senders):
            for _ in range(data.draw(st.integers(0, window))):
                land(sender, cols.first_slot + reals[rank] % window,
                     SlotValue(reals[rank], reals[rank] + nulls[rank], 64,
                               None, 0.0))
                reals[rank] += 1
            nulls[rank] += data.draw(st.integers(0, 2))
            land(sender, cols.nulls, nulls[rank])

    arrive()
    _drain(mc.receive_predicate.trigger(True))
    arrive()
    if data.draw(st.booleans()):
        mc.wedge()
    pushes = []
    mc.smc.push_control = lambda targets=None: pushes.append(targets) or iter(())
    _drain(mc.delivery_predicate._deliver([], mc.delivered_seq))
    if pushes:
        assert pushes == [mc._ack_targets]
        return
    assert not mc.wedged
    assert _drain(mc.receive_predicate.trigger(True)) is not None
    assert pushes == [None]  # every peer
    assert set(mc.smc.peers) >= set(mc._ack_targets)


@SLOW
@given(
    n=st.integers(2, 5),
    window=st.integers(2, 10),
    counts=st.lists(st.integers(0, 15), min_size=5, max_size=5),
    delays=st.lists(st.sampled_from([0.0, us(1), us(20), us(150)]),
                    min_size=5, max_size=5),
    data=st.data(),
)
def test_ragged_workload_with_nulls(n, window, counts, delays, data):
    """Unequal, delayed, possibly silent senders: with null-sends on,
    the pipeline never stalls and order is identical everywhere."""
    counts = counts[:n]
    delays = delays[:n]
    config = SpindleConfig.batching_and_nulls().with_(
        early_lock_release=data.draw(st.booleans()),
        null_send_batched=data.draw(st.booleans()),
    )
    cluster, log = run_workload(n, window, config, counts, delays)
    logs = list(log.values())
    assert all(l == logs[0] for l in logs)
    assert len(logs[0]) == sum(counts)


@SLOW
@given(
    n=st.integers(2, 4),
    count=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_jittered_sending_deterministic_per_seed(n, count, seed):
    """Same seed -> identical run; different workload shapes still agree
    across nodes."""
    def one_run():
        cluster = Cluster(num_nodes=n, config=SpindleConfig.optimized(),
                          seed=seed)
        cluster.add_subgroup(message_size=128, window=6)
        cluster.build()
        log = []
        cluster.group(0).on_delivery(0, lambda d: log.append((d.seq, d.sender)))
        from repro.workloads import jittered_sender
        for nid in cluster.node_ids:
            cluster.spawn_sender(jittered_sender(
                cluster.mc(nid, 0), count=count, size=128,
                rng=cluster.sim.rng, max_gap=us(30)))
        cluster.run_to_quiescence(max_time=5.0)
        return log, cluster.sim.now

    log_a, t_a = one_run()
    log_b, t_b = one_run()
    assert log_a == log_b
    assert t_a == t_b
    assert len(log_a) == n * count


@SLOW
@given(
    window=st.integers(1, 6),
    count=st.integers(1, 30),
)
def test_tiny_windows_never_lose_messages(window, count):
    """Slot-reuse safety across aggressive wrap-around."""
    cluster, log = run_workload(
        3, window, SpindleConfig.optimized(),
        counts=[count] * 3, delays=[0.0] * 3)
    for entries in log.values():
        assert len(entries) == 3 * count


@SLOW
@given(config=config_strategy, count=st.integers(1, 10))
def test_received_and_delivered_counters_monotone(config, count):
    """SST acknowledgment counters only ever increase, as every peer
    observes them (the monotonicity that batching exploits)."""
    cluster = Cluster(num_nodes=3, config=config)
    cluster.add_subgroup(message_size=128, window=5)
    cluster.build()
    observed = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        sst = cluster.group(nid).sst
        cols = cluster.mc(nid, 0).cols

        def hook(region, snap, nid=nid, sst=sst, cols=cols):
            values = tuple(
                (sst.read(owner, cols.received), sst.read(owner, cols.delivered))
                for owner in sst.members
            )
            observed[nid].append(values)

        cluster.fabric.nodes[nid].on_remote_write.append(hook)
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=128))
    cluster.run_to_quiescence(max_time=5.0)
    for snapshots in observed.values():
        for earlier, later in zip(snapshots, snapshots[1:]):
            for (r0, d0), (r1, d1) in zip(earlier, later):
                assert r1 >= r0
                assert d1 >= d0

"""Backend-generic ordering conformance suite (docs/ORDERING.md).

Every test in this file is the executable definition of one clause of
the :class:`repro.ordering.OrderingEndpoint` contract, and every test
runs against **every registered backend** (the ``backend`` fixture
parametrizes over ``repro.ordering.BACKENDS``). A new backend is
conformant exactly when this file passes for it.

Clauses covered:

* total order — all members deliver identical logs;
* per-sender FIFO + gap-freedom — the deliveries from sender rank r,
  in log order, are r's proposals 0, 1, 2, ... with nothing skipped;
* exactly-once — no (sender, ticket) pair appears twice;
* ticket contract — :meth:`propose` returns the sender's 0-based
  proposal index, which equals the message's position in the sender's
  delivered FIFO;
* wedge-then-settle — after :meth:`wedge`, new proposals raise,
  congestion pins to 1.0, and members' logs settle into
  order-consistent prefixes of one another;
* stable-prefix — monotonic, and covers the whole log once the
  workload has fully delivered;
* determinism — the same (backend, seed, workload) reproduces the run
  byte-for-byte, trace fingerprints included.
"""

import pytest

from repro.analysis.trace import Tracer
from repro.core.config import SpindleConfig
from repro.ordering import BACKENDS
from repro.sim.units import ms, us
from repro.workloads import Cluster, continuous_sender
from repro.workloads.runner import drive_to_completion


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    """Every registered ordering backend, by name."""
    return request.param


NODES = 4
COUNT = 25
SIZE = 512
WINDOW = 8


def payload_fn(nid):
    """Content-checked payloads: ``b"<node>:<k>"`` for the k-th send."""
    return lambda k, nid=nid: f"{nid}:{k}".encode()


def build(backend, seed=11, senders=None, window=WINDOW):
    cluster = Cluster(NODES, config=SpindleConfig.optimized(), seed=seed,
                      backend=backend)
    cluster.add_subgroup(senders=senders, window=window, message_size=SIZE)
    cluster.build()
    logs = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: logs[nid].append(
                (d.sender, d.sender_rank, d.seq, d.payload)))
    return cluster, logs


def full_run(backend, seed=11, count=COUNT, trace=False, jitter=False):
    """All nodes send ``count`` content-checked messages to completion.

    ``jitter=True`` adds seeded network jitter so the cluster seed has
    randomness to reach (a fault-free run on the simulated fabric is
    legitimately seed-invariant for both backends)."""
    cluster, logs = build(backend, seed=seed)
    tracer = None
    if trace:
        tracer = Tracer(cluster)
        tracer.attach()
    if jitter:
        cluster.faults.jitter(until=ms(20), extra_latency=us(1),
                              jitter=us(4), at=0.0)
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=SIZE,
            payload_fn=payload_fn(nid)))
    drive_to_completion(cluster, {0: count * NODES * NODES}, max_time=1.0)
    return cluster, logs, tracer


class TestTotalOrder:
    def test_all_members_deliver_identical_logs(self, backend):
        _, logs, _ = full_run(backend)
        reference = logs[0]
        assert len(reference) == COUNT * NODES
        for nid, log in logs.items():
            assert log == reference, f"node {nid} diverged"


class TestFifoGapFreeExactlyOnce:
    def test_per_sender_fifo_and_gap_freedom(self, backend):
        _, logs, _ = full_run(backend)
        for nid, log in logs.items():
            for sender in range(NODES):
                got = [p for (s, _, _, p) in log if s == sender]
                want = [f"{sender}:{k}".encode() for k in range(COUNT)]
                assert got == want, (
                    f"node {nid}: sender {sender} FIFO violated")

    def test_exactly_once(self, backend):
        _, logs, _ = full_run(backend)
        for nid, log in logs.items():
            payloads = [p for (_, _, _, p) in log]
            assert len(payloads) == len(set(payloads)), (
                f"node {nid} delivered a duplicate")

    def test_global_seq_is_dense(self, backend):
        _, logs, _ = full_run(backend)
        for nid, log in logs.items():
            assert [seq for (_, _, seq, _) in log] == \
                list(range(COUNT * NODES)), f"node {nid} seq gap"


class TestTicketContract:
    def test_propose_returns_dense_per_sender_tickets(self, backend):
        """The k-th successful propose returns ticket k, and the k-th
        delivery from that sender carries payload k — so tickets index
        directly into the delivered FIFO (the KV store's reply-matching
        relies on exactly this, repro.apps.kvstore)."""
        cluster, logs = build(backend)
        tickets = {nid: [] for nid in cluster.node_ids}

        def recording_sender(nid):
            mc = cluster.mc(nid, 0)
            for k in range(COUNT):
                ticket = yield from mc.propose(SIZE, f"{nid}:{k}".encode())
                tickets[nid].append(ticket)
            mc.mark_finished()

        for nid in cluster.node_ids:
            cluster.spawn_sender(recording_sender(nid))
        drive_to_completion(cluster, {0: COUNT * NODES * NODES},
                            max_time=1.0)
        for nid in cluster.node_ids:
            assert tickets[nid] == list(range(COUNT))
            rank = cluster.mc(nid, 0).my_rank
            fifo = [p for (_, r, _, p) in logs[0] if r == rank]
            for ticket in tickets[nid]:
                assert fifo[ticket] == f"{nid}:{ticket}".encode()


class TestWedgeThenSettle:
    def test_wedge_rejects_settles_and_stays_prefix_consistent(
            self, backend):
        cluster, logs = build(backend)
        for nid in cluster.node_ids:
            cluster.spawn_sender(_tolerant_sender(cluster.mc(nid, 0), 500))
        cluster.run(until=ms(1))
        for nid in cluster.node_ids:
            cluster.mc(nid, 0).wedge()
        cluster.run(until=ms(6))
        cluster.stop()
        cluster.run(until=ms(7))
        for nid in cluster.node_ids:
            mc = cluster.mc(nid, 0)
            assert mc.wedged
            assert mc.congestion() == 1.0
            with pytest.raises(RuntimeError):
                # Exhaust the propose generator: the wedge must reject
                # it before any simulated-time yield resolves.
                for _ in mc.propose(SIZE, b"late"):
                    raise AssertionError("wedged propose yielded")
        ordered = sorted(logs.values(), key=len)
        for log in ordered:
            assert log == ordered[-1][:len(log)], "logs not prefix-consistent"


class TestStablePrefix:
    def test_monotonic_and_complete(self, backend):
        cluster, logs = build(backend)
        for nid in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=COUNT, size=SIZE))
        total = COUNT * NODES
        observed = []

        def watch():
            while cluster.total_delivered(0) < total * NODES:
                observed.append(cluster.mc(0, 0).stable_prefix())
                yield ms(0.05)

        cluster.sim.spawn(watch(), name="stable-prefix-watch")
        drive_to_completion(cluster, {0: total * NODES}, max_time=1.0)
        observed.append(cluster.mc(0, 0).stable_prefix())
        assert observed == sorted(observed), "stable_prefix regressed"
        assert observed[-1] >= total - 1

    def test_congestion_bounded(self, backend):
        cluster, _ = build(backend)
        samples = []

        def sampling_sender(nid):
            mc = cluster.mc(nid, 0)
            for k in range(COUNT):
                yield from mc.propose(SIZE, None)
                samples.append(mc.congestion())
            mc.mark_finished()

        for nid in cluster.node_ids:
            cluster.spawn_sender(sampling_sender(nid))
        drive_to_completion(cluster, {0: COUNT * NODES * NODES},
                            max_time=1.0)
        assert samples
        assert all(0.0 <= c <= 1.0 for c in samples)


class TestDeterminism:
    def test_repeat_run_is_bitwise_identical(self, backend):
        """Randomness present (seeded jitter) yet fully reproducible."""
        _, logs_a, tracer_a = full_run(backend, seed=23, trace=True,
                                       jitter=True)
        _, logs_b, tracer_b = full_run(backend, seed=23, trace=True,
                                       jitter=True)
        assert logs_a == logs_b
        assert tracer_a.fingerprint() == tracer_b.fingerprint()

    def test_seed_reaches_the_protocol(self, backend):
        """Different seeds must perturb a jittered run (sanity that the
        determinism test above is not vacuous)."""
        _, _, tracer_a = full_run(backend, seed=1, trace=True, jitter=True)
        _, _, tracer_b = full_run(backend, seed=2, trace=True, jitter=True)
        assert tracer_a.fingerprint() != tracer_b.fingerprint()


def _tolerant_sender(mc, count):
    """Streams until wedged; a wedge mid-run ends the sender quietly."""
    for k in range(count):
        try:
            yield from mc.propose(SIZE, f"w{mc.node_id}:{k}".encode())
        except RuntimeError:
            return


def test_a_paxos_retransmit_batch_is_capped_by_bytes():
    """The leader's retransmit p2a counts each entry's bytes against
    ``max_batch_bytes``, as a fresh batch does: with real 10 KB
    payloads on eight all-sender nodes an uncapped retransmit of 26
    entries (268,096 B) overflowed the 131,072 B mailbox at 1.1 ms."""
    size = 10240
    cluster = Cluster(8, config=SpindleConfig.optimized(), backend="paxos")
    cluster.add_subgroup(window=64, message_size=size)
    cluster.build()
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=120, size=size,
            payload_fn=lambda k, nid=nid: bytes([nid]) * size))
    drive_to_completion(cluster, {0: 8 * 120 * 8}, max_time=1.0)
    for nid in cluster.node_ids:
        assert cluster.mc(nid, 0).stats.delivered == 8 * 120

"""Tests for the null-send scheme (§3.3) and its four required
properties: sender-invariance, low overhead, correctness (no stall),
and quiescence."""

import pytest

from repro.analysis.lint.sanitizer import Sanitizer
from repro.core.config import SpindleConfig
from repro.sim import probe
from repro.sim.units import ms, us
from repro.workloads import Cluster, continuous_sender, limited_sender

BATCHING = SpindleConfig.batching_only()
WITH_NULLS = SpindleConfig.batching_and_nulls()


def build(n, config, window=20, size=1024, senders=None):
    cluster = Cluster(num_nodes=n, config=config)
    cluster.add_subgroup(message_size=size, window=window, senders=senders)
    cluster.build()
    return cluster


class TestCorrectnessNoStall:
    def test_silent_sender_stalls_delivery_without_nulls(self):
        """Without nulls, one silent sender blocks the round-robin order
        after the first round (the Fig. 2 pathology)."""
        cluster = build(3, BATCHING)
        # Node 2 never sends; others send 30 each.
        for n in (0, 1):
            cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=30, size=1024))
        cluster.run(until=ms(50))
        # Delivery cannot pass seq 1 (round 0 of sender 2 never arrives).
        delivered = cluster.group(0).stats(0).delivered
        assert delivered <= 2

    def test_nulls_unblock_silent_sender(self):
        """With nulls, active senders' messages all get delivered."""
        cluster = build(3, WITH_NULLS)
        for n in (0, 1):
            cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=30, size=1024))
        cluster.run()
        for n in cluster.node_ids:
            assert cluster.group(n).stats(0).delivered == 60
        assert cluster.group(2).stats(0).nulls_sent > 0

    def test_indefinitely_delayed_half_senders(self):
        """§4.2.1 'lengthy delay': half the senders send a short burst
        then go silent; the rest must still finish."""
        cluster = build(8, WITH_NULLS, window=20, size=4096)
        for n in range(4):
            cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=50, size=4096))
        for n in range(4, 8):
            cluster.spawn_sender(limited_sender(cluster.mc(n, 0), count=2, size=4096))
        cluster.run()
        expected = 4 * 50 + 4 * 2
        for n in cluster.node_ids:
            assert cluster.group(n).stats(0).delivered == expected

    def test_one_member_does_all_sends(self):
        """§4.2.3: all members declared senders, one does all the work."""
        cluster = build(6, WITH_NULLS, window=20)
        cluster.spawn_sender(continuous_sender(cluster.mc(0, 0), count=80, size=1024))
        cluster.run()
        for n in cluster.node_ids:
            assert cluster.group(n).stats(0).delivered == 80

    def test_delayed_sender_catches_up(self):
        """A 100 µs-delayed sender must not stall others (delivery
        completes) and its own messages still arrive everywhere."""
        cluster = build(4, WITH_NULLS, window=20, size=4096)
        cluster.spawn_sender(continuous_sender(
            cluster.mc(0, 0), count=20, size=4096, delay=us(100)))
        for n in (1, 2, 3):
            cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=60, size=4096))
        cluster.run()
        expected = 20 + 3 * 60
        for n in cluster.node_ids:
            assert cluster.group(n).stats(0).delivered == expected

    def test_total_order_preserved_with_nulls(self):
        cluster = build(4, WITH_NULLS, window=10, size=512)
        log = {n: [] for n in cluster.node_ids}
        for n in cluster.node_ids:
            cluster.group(n).on_delivery(
                0, lambda d, n=n: log[n].append((d.seq, d.sender, d.payload)))
        cluster.spawn_sender(continuous_sender(
            cluster.mc(0, 0), count=15, size=512, delay=us(50),
            payload_fn=lambda k: b"slow:%d" % k))
        for n in (1, 2, 3):
            cluster.spawn_sender(continuous_sender(
                cluster.mc(n, 0), count=40, size=512,
                payload_fn=lambda k, n=n: b"%d:%d" % (n, k)))
        cluster.run()
        logs = list(log.values())
        assert all(l == logs[0] for l in logs)
        assert len(logs[0]) == 15 + 3 * 40


class TestTailCompletion:
    def test_paced_senders_never_stall_at_the_tail(self):
        """Regression: null demand that arises while a sender still has
        queued application messages must be honoured once its queue
        drains — otherwise the final round-robin rounds can starve and
        the last messages are never delivered (§3.3 property 3)."""
        cluster = build(16, SpindleConfig.optimized(), window=20, size=4096)
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(n, 0), count=40, size=4096, delay=us(25)))
        cluster.run_to_quiescence(max_time=30.0)
        for n in cluster.node_ids:
            assert cluster.group(n).stats(0).delivered == 16 * 40

    def test_tail_completion_across_paces(self):
        for pace in (0.0, us(3), us(60)):
            cluster = build(6, SpindleConfig.optimized(), window=8)
            for n in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=30, size=1024, delay=pace))
            cluster.run_to_quiescence(max_time=30.0)
            for n in cluster.node_ids:
                assert cluster.group(n).stats(0).delivered == 180, pace


class TestQuiescence:
    def test_no_nulls_when_nobody_sends(self):
        cluster = build(4, WITH_NULLS)
        cluster.run(until=ms(5))
        for n in cluster.node_ids:
            assert cluster.group(n).stats(0).nulls_sent == 0
        assert cluster.fabric.total_writes_posted() == 0

    def test_system_quiesces_after_traffic(self):
        """The null chain terminates: the sim's event queue drains."""
        cluster = build(4, WITH_NULLS, window=10)
        for n in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(cluster.mc(n, 0), count=20, size=1024))
        end = cluster.run()  # would never return if nulls chained forever
        assert end < 1.0
        writes_at_drain = cluster.fabric.total_writes_posted()
        cluster.sim.run(until=end + ms(10))
        assert cluster.fabric.total_writes_posted() == writes_at_drain

    def test_no_nulls_for_single_sender(self):
        """§4.2.2: with one sender, no nulls can ever be sent."""
        cluster = build(4, WITH_NULLS, senders=[0])
        cluster.spawn_sender(continuous_sender(cluster.mc(0, 0), count=50, size=1024))
        cluster.run()
        for n in cluster.node_ids:
            assert cluster.group(n).stats(0).nulls_sent == 0


class TestSenderInvariance:
    def test_half_senders_throughput_not_collapsed(self):
        """Property 1: with only half the senders active, per-sender
        progress stays healthy (delivery isn't serialized on nulls)."""
        def runtime(active):
            cluster = build(8, WITH_NULLS, window=20, size=10240)
            for n in range(active):
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=50, size=10240))
            end = cluster.run()
            for n in cluster.node_ids:
                assert cluster.group(n).stats(0).delivered == active * 50
            return end

        t_all = runtime(8)
        t_half = runtime(4)
        # Half the messages should take well under the full-sender time.
        assert t_half < t_all

    def test_nulls_accelerate_delivery_of_active_senders(self):
        """§4.2.1: with one delayed sender, mean inter-delivery time of
        a continuous sender's messages is far smaller with nulls."""
        def interdelivery(config):
            cluster = build(4, config, window=20, size=4096)
            cluster.spawn_sender(continuous_sender(
                cluster.mc(0, 0), count=10, size=4096, delay=us(100)))
            for n in (1, 2, 3):
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=40, size=4096))
            cluster.run(until=ms(100))
            stats = cluster.group(1).stats(0)
            return stats.mean_interdelivery(1)  # rank 1 = node 1, continuous

        with_nulls = interdelivery(WITH_NULLS)
        without = interdelivery(BATCHING)
        assert with_nulls > 0
        assert with_nulls < without / 2


class TestLowOverhead:
    def test_continuous_sending_overhead_bounded(self):
        """Property 2 (§4.2.2): with all senders continuously active,
        null-sends cost at most a modest slowdown."""
        def thr(config):
            cluster = build(8, config, window=50, size=10240)
            for n in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(n, 0), count=60, size=10240))
            cluster.run()
            return cluster.aggregate_throughput(0)

        base = thr(BATCHING)
        nulls = thr(WITH_NULLS)
        assert nulls > 0.6 * base  # paper: up to 25 % drop for small groups


class TestDeclaredInactivity:
    def test_declare_inactive_skips_rounds(self):
        """§3.3: a sender can declare planned inactivity; others proceed
        without any null traffic from third parties. Under §3.4's early
        lock release the announcement is posted after the lock is
        released, which a strict sanitizer holds it to."""
        for config in (BATCHING, SpindleConfig.optimized()):
            with probe.subscribed(Sanitizer(strict=True)):
                cluster = build(3, config, window=10)

                def declarer():
                    yield from cluster.mc(2, 0).declare_inactive(rounds=40)

                cluster.spawn_sender(declarer())
                for n in (0, 1):
                    cluster.spawn_sender(continuous_sender(
                        cluster.mc(n, 0), count=40, size=1024))
                cluster.run()
            for n in cluster.node_ids:
                assert cluster.group(n).stats(0).delivered == 80

    def test_a_sole_sender_receives_its_declared_nulls(self):
        """A sole sender runs no receive predicate: declare_inactive
        advances its own received_num with its nulls, so its deliveries
        pass the null rounds like every replica's."""
        cluster = build(3, BATCHING, window=10, senders=[0])
        mc = cluster.mc(0, 0)

        def sender():
            yield from continuous_sender(mc, count=3, size=1024)
            yield from mc.declare_inactive(rounds=5)
            assert mc.received_seq == 7
            yield from continuous_sender(mc, count=3, size=1024)

        cluster.spawn_sender(sender())
        cluster.run()
        assert mc.receive_predicate not in cluster.group(0).thread.predicates
        for n in cluster.node_ids:
            assert cluster.mc(n, 0).received_seq == 10
            assert cluster.mc(n, 0).delivered_seq == 10
            assert cluster.group(n).stats(0).delivered == 6

    def test_declare_inactive_requires_sender(self):
        cluster = build(3, BATCHING, senders=[0, 1])
        with pytest.raises(RuntimeError, match="only senders"):
            list(cluster.mc(2, 0).declare_inactive(5))

    def test_declare_inactive_refuses_once_wedged(self):
        """A wedged endpoint announces no nulls, like send() and the
        null-send rule."""
        cluster = build(3, BATCHING)
        mc = cluster.mc(0, 0)
        mc.wedge()
        refused = []

        def declarer():
            try:
                yield from mc.declare_inactive(rounds=5)
            except RuntimeError as exc:
                refused.append(str(exc))

        cluster.spawn_sender(declarer())
        cluster.run()
        assert refused and "wedged" in refused[0]
        assert mc.nulls_announced == 0
        assert not mc.thread.lock.locked

    def test_declare_inactive_rejects_nonpositive(self):
        cluster = build(3, BATCHING)
        with pytest.raises(ValueError):
            list(cluster.mc(0, 0).declare_inactive(0))


class TestNullBatching:
    def test_batched_nulls_amortize_announcement_pushes(self):
        """§3.3: announcing a sweep's nulls as one integer means fewer
        announcement pushes than nulls."""
        cluster = build(4, WITH_NULLS, window=20, size=2048)
        cluster.spawn_sender(continuous_sender(
            cluster.mc(0, 0), count=10, size=2048, delay=us(200)))
        for n in (1, 2, 3):
            cluster.spawn_sender(continuous_sender(
                cluster.mc(n, 0), count=50, size=2048))
        cluster.run()
        for n in cluster.node_ids:
            assert cluster.group(n).stats(0).delivered == 10 + 150
        stats = cluster.group(0).stats(0)  # the delayed sender
        assert stats.nulls_sent > stats.null_announce_pushes > 0

"""The four benchmark workloads (perf/README.md has the definitions).

Each workload is a class with the same small surface, used by
``perf/worker.py`` once per repetition:

* ``make_inputs(seed, scale)`` — draw every random input up front
  (arrival times, keys, transaction programs, sender offsets), so the
  program under test receives only generated inputs and the same seed
  always gives the same load;
* ``Workload(inputs)`` — build a fresh cluster (timed as set-up);
* ``drive(spans)`` — spawn the benchmark's own sender/client processes
  (``load()``) and run the cluster to quiescence (the timed region);
* ``check()`` / ``outcome()`` — correctness checks and the simulated
  end-to-end values, timestamped by the benchmark itself.

The load generators are the benchmark's own: nothing here calls
``repro.workloads.generators``, so a later change to the repo's
generators cannot change the load.
"""

from __future__ import annotations

import bisect
from random import Random
from time import perf_counter

from repro.core.config import SpindleConfig
from repro.shard import RouterConfig
from repro.sim.engine import AtTime
from repro.sim.units import us
from repro.txn import TxnConfig, TxnOp
from repro.workloads import Cluster

from spans import NO_SPANS

__all__ = ["WORKLOADS", "percentile"]

#: The cluster's own seed (shard placement, router jitter) is part of
#: the system's configuration, not of the load: `--seed` moves only the
#: generated inputs.
CLUSTER_SEED = 0


def percentile(ordered, p):
    """Nearest-rank percentile of an ascending list."""
    return ordered[-(-len(ordered) * p // 100) - 1]  # ceil, in integers


def run_sliced(cluster, slice_sim_s, max_sim_s, started):
    """Run to quiescence in fixed slices of simulated time and return
    the host seconds each slice took (the first counts from `started`).

    The simulation is deterministic, so slice *i* is the same work in
    every repetition: the caller can compare like with like and drop
    the slices a noisy neighbour slowed. Raises if events are still
    pending after ``max_sim_s`` simulated seconds (livelock guard)."""
    sim = cluster.sim
    deadline = sim.now + max_sim_s
    slices = []
    while True:
        cluster.run(until=sim.now + slice_sim_s)
        now = perf_counter()
        slices.append(now - started)
        started = now
        if sim.peek() is None:
            return slices
        if sim.now >= deadline:
            raise RuntimeError(f"not quiescent after {max_sim_s} simulated s")


class Outcome:
    """What one repetition produced, in simulated time."""

    def __init__(self, latencies, first_attempt, last_success,
                 attempted, failed, goodput=None, extra=None):
        #: Per-op simulated seconds, the ops `sim_latency_*` is taken over.
        self.latencies = latencies
        self.sim_span = last_success - first_attempt
        self.last_success = last_success
        self.attempted = attempted
        self.failed = failed
        #: Successful ops per simulated second: first attempt -> last
        #: success, unless the workload measures another window.
        self.goodput = (goodput if goodput is not None
                        else (attempted - failed) / self.sim_span)
        #: Workload-specific per-layer extras (shard.* / txn.* / workloads.*).
        self.extra = extra or {}


class Workload:
    """What the four workloads share: how a built cluster is driven."""

    router = plane = None
    _spans = NO_SPANS

    def load(self):
        """Yield ``(name, generator)`` per sender/client process."""
        raise NotImplementedError

    def drive(self, spans=NO_SPANS):
        """The timed region: spawn the load, run to quiescence; returns
        the host seconds per slice (see :func:`run_sliced`)."""
        started = perf_counter()
        self._spans = spans
        for name, generator in self.load():
            self.cluster.spawn_sender(generator, name=name)
        return run_sliced(self.cluster, self.slice_sim_s, self.max_sim_s,
                          started)


# ===========================================================================
# Atomic multicast: closed-loop senders on one 8-node subgroup
# ===========================================================================


class McastSmall(Workload):
    """8 nodes, one subgroup, all 8 send 128 B messages, window 100."""

    name = "mcast_small"
    nodes = 8
    message_size = 128
    window = 100
    per_sender = 16_000
    #: node -> (share of `per_sender`, busy-wait after each send).
    sender_plan = {n: (1.0, 0.0) for n in range(8)}
    observer = 0
    slice_sim_s = 2e-3
    max_sim_s = 60.0

    @classmethod
    def make_inputs(cls, seed, scale):
        rng = Random(f"{cls.name}:{seed}")
        senders = {}
        for node, (share, delay) in sorted(cls.sender_plan.items()):
            senders[node] = {
                "count": max(40, round(cls.per_sender * share * scale)),
                "delay": delay,
                # Senders do not start in the same nanosecond, and each
                # stamps its messages from its own 64-bit sequence so the
                # observer can check content, not just counts.
                "start": rng.random() * us(5.0),
                "salt": rng.getrandbits(63),
            }
        return {"senders": senders}

    def __init__(self, inputs):
        self.inputs = inputs
        self.cluster = Cluster(self.nodes, config=SpindleConfig.optimized(),
                               seed=CLUSTER_SEED)
        self.cluster.add_subgroup(window=self.window,
                                  message_size=self.message_size)
        self.cluster.build()
        senders = inputs["senders"]
        self.rank_of = {node: rank for rank, node in enumerate(sorted(senders))}
        #: handed[rank][ticket] = instant the sender called propose().
        self.handed = [[] for _ in senders]
        self.latencies = []
        self.bad_payloads = 0
        self.last_delivery = 0.0
        self._salts = [senders[node]["salt"] for node in sorted(senders)]
        self._seen = [0] * len(senders)
        self.cluster.group(self.observer).on_delivery(0, self._on_delivery)

    def _on_delivery(self, delivery):
        rank = delivery.sender_rank
        ticket = self._seen[rank]
        self._seen[rank] = ticket + 1
        now = self.cluster.sim.now
        if int.from_bytes(delivery.payload, "big") != self._salts[rank] + ticket:
            self.bad_payloads += 1
        self.latencies.append(now - self.handed[rank][ticket])
        self.last_delivery = now
        self._spans.close_root((rank, ticket), now)

    def _sender(self, node, plan):
        sim = self.cluster.sim
        endpoint = self.cluster.mc(node, 0)
        rank = self.rank_of[node]
        handed = self.handed[rank]
        salt, delay, size = plan["salt"], plan["delay"], self.message_size
        spans = self._spans
        yield plan["start"]
        for k in range(plan["count"]):
            handed.append(sim.now)
            root = spans.open_root("mcast.deliver", (rank, k), sim.now)
            token = spans.open("endpoint.propose", (rank, k), sim.now, root)
            yield from endpoint.propose(size, (salt + k).to_bytes(8, "big"))
            spans.close(token, sim.now)
            if delay:
                yield delay  # busy-wait, the paper's §4.2.1 delay loop
        endpoint.mark_finished()

    def load(self):
        for node, plan in sorted(self.inputs["senders"].items()):
            yield f"perf.sender{node}", self._sender(node, plan)

    def check(self):
        """Every proposed message delivered at every member, in sender
        FIFO order with the right content at the observer."""
        errors = []
        expected = sum(p["count"] for p in self.inputs["senders"].values())
        for node in self.cluster.members_of(0):
            got = self.cluster.group(node).stats(0).delivered
            if got != expected:
                errors.append(f"node {node} delivered {got}/{expected}")
        if self.bad_payloads:
            errors.append(f"{self.bad_payloads} payloads out of order/corrupt")
        return errors

    def outcome(self):
        attempted = sum(len(h) for h in self.handed)
        first = min(h[0] for h in self.handed)
        return Outcome(self.latencies, first, self.last_delivery,
                       attempted, attempted - len(self.latencies))


class McastDelayed10k(McastSmall):
    """Same cluster, 10 KB messages; node 1 busy-waits 100 us per send."""

    name = "mcast_delayed_10k"
    message_size = 10_240
    per_sender = 6_800
    # The delayed sender's count keeps it inside the continuous
    # senders' span (~100 us per send against their ~14 us), so the run
    # measures the steady null-send regime, not a trickle tail.
    sender_plan = {n: ((0.125, us(100.0)) if n == 1 else (1.0, 0.0))
                   for n in range(8)}


# ===========================================================================
# Sharded KV: open-loop Poisson clients through the router
# ===========================================================================


class KvOpenLoop(Workload):
    """8 nodes, 4 shards x replication 2; 50% get / 50% put, two rungs."""

    name = "kv_open_loop"
    nodes = 8
    shards = 4
    clients = 4
    keys = 4096
    value = b"v" * 64
    #: (rung, offered req/s over all clients, requests over all clients)
    rungs = (("mid", 400_000.0, 9_400), ("over", 1_200_000.0, 5_900))
    #: Simulated gap between the mid rung's last arrival and the over
    #: rung's first: the mid rung must have drained by then (checked).
    rung_gap = 2e-3
    slice_sim_s = 0.5e-3
    max_sim_s = 30.0

    @classmethod
    def make_inputs(cls, seed, scale):
        start = 0.0
        rung_start = {}
        per_client = [[] for _ in range(cls.clients)]  # [(due, rung, op, key)]
        for rung, rate, total in cls.rungs:
            rung_start[rung] = start
            count = max(50, round(total * scale / cls.clients))
            end = start
            for c in range(cls.clients):
                rng = Random(f"{cls.name}:{seed}:{rung}:{c}")
                t = start
                for _ in range(count):
                    t += rng.expovariate(rate / cls.clients)
                    op = "get" if rng.random() < 0.5 else "put"
                    key = b"k%d" % rng.randrange(cls.keys)
                    per_client[c].append((t, rung, op, key))
                end = max(end, t)
            start = end + cls.rung_gap
        return {"arrivals": per_client, "rung_start": rung_start}

    def __init__(self, inputs):
        self.inputs = inputs
        self.cluster = Cluster(self.nodes, config=SpindleConfig.optimized(),
                               seed=CLUSTER_SEED)
        self.cluster.add_shards(num_shards=self.shards, replication=2,
                                num_subgroups=self.shards, window=16,
                                message_size=512)
        self.cluster.build()
        # The client retry budget is sized so that no request is ever
        # abandoned: an overloaded router answers with explicit
        # rejections and clients resubmit until admitted, so the `over`
        # rung measures capacity under admission control with every op
        # eventually succeeding (rejections show as shard.rejected_*).
        self.router = self.cluster.router(RouterConfig(
            queue_depth=128, workers_per_shard=2, max_retries=2_000))
        #: rung -> list of (due, done, status, attempts)
        self.done = {rung: [] for rung, _r, _n in self.rungs}
        self.lag = 0.0

    def _request(self, op_id, due, rung, op, key):
        sim = self.cluster.sim
        token = self._spans.open("router.request", op_id, sim.now)
        outcome = yield from self.router.request(
            op, key, self.value if op == "put" else b"")
        self._spans.close(token, sim.now)
        self.done[rung].append((due, sim.now, outcome.status,
                                outcome.attempts))

    def _client(self, c, arrivals):
        sim = self.cluster.sim
        spawn = sim.spawn
        for k, (due, rung, op, key) in enumerate(arrivals):
            yield AtTime(due)
            late = sim.now - due
            if late > self.lag:
                self.lag = late
            spawn(self._request((c, k), due, rung, op, key),
                  name=f"perf.c{c}.r{k}")

    def load(self):
        for c, arrivals in enumerate(self.inputs["arrivals"]):
            yield f"perf.client{c}", self._client(c, arrivals)

    def check(self):
        errors = []
        audit = self.router.verifier.check()
        if not audit.ok:
            errors.append(f"shard verifier: {audit.violations[:3]}")
        submitted = sum(len(a) for a in self.inputs["arrivals"])
        finished = sum(len(d) for d in self.done.values())
        if finished != submitted:
            errors.append(f"{finished}/{submitted} requests finished")
        mid = self.done["mid"]
        bad_mid = sum(1 for _d, _t, status, attempts in mid
                      if status != "ok" or attempts != 1)
        if bad_mid:
            errors.append(f"mid rung: {bad_mid} requests rejected or retried")
        if mid and max(t for _d, t, _s, _a in mid) >= \
                self.inputs["rung_start"]["over"]:
            errors.append("mid rung had not drained when over rung began")
        if self.lag != 0.0:
            errors.append(f"generator ran {self.lag * 1e6:.3f} us late")
        return errors

    def outcome(self):
        def ok(rung):
            return [(due, t) for due, t, status, _a in self.done[rung]
                    if status == "ok"]

        def goodput(pairs):
            """Successes while load was still being offered, per second
            of offered load. Past capacity this is the service rate
            under admission control; the drain after the last arrival
            is left out, because how long the last retrying stragglers
            take is luck of the retry quantum, not capacity."""
            first = min(due for due, _t in pairs)
            last = max(due for due, _t in pairs)
            return sum(1 for _d, t in pairs if t <= last) / (last - first)

        mid, over = ok("mid"), ok("over")
        everything = self.done["mid"] + self.done["over"]
        oks = len(mid) + len(over)
        over_latencies = sorted(t - due for due, t in over)
        extra = {
            "shard.attempts_per_ok":
                sum(a for _d, _t, s, a in everything if s == "ok") / oks,
            "shard.mid_goodput_ops_s": goodput(mid),
            "shard.over_latency_p99_us": percentile(over_latencies, 99) * 1e6,
            "workloads.generator_lag_us": self.lag * 1e6,
        }
        return Outcome([t - due for due, t in mid],
                       min(due for due, _t in mid), max(t for _d, t in over),
                       len(everything), len(everything) - oks,
                       goodput=goodput(over), extra=extra)


# ===========================================================================
# Transactions: closed-loop clients through the OCC coordinator
# ===========================================================================


class TxnClosedLoop(Workload):
    """5 nodes, 4 shards over 2 subgroups, OCC + WAL fsync, 8 clients."""

    name = "txn_closed_loop"
    nodes = 5
    clients = 8
    txns_per_client = 400
    keys = 1024
    zipf_s = 0.8
    picks = 4
    think = us(2.0)
    slice_sim_s = 1e-3
    max_sim_s = 30.0

    @classmethod
    def make_inputs(cls, seed, scale):
        cum, total = [], 0.0
        for i in range(cls.keys):
            total += 1.0 / (i + 1) ** cls.zipf_s
            cum.append(total)
        count = max(8, round(cls.txns_per_client * scale))
        programs = []
        for c in range(cls.clients):
            rng = Random(f"{cls.name}:{seed}:{c}")
            mine = []
            for i in range(count):
                ops = []
                for _ in range(cls.picks):
                    key = b"k%d" % bisect.bisect_left(cum, rng.random() * total)
                    ops.append(TxnOp("get", key))
                    if rng.random() >= 0.5:  # read-modify-write
                        ops.append(TxnOp("put", key, b"v%d.%d" % (c, i)))
                mine.append(ops)
            programs.append(mine)
        return {"programs": programs}

    def __init__(self, inputs):
        self.inputs = inputs
        self.cluster = Cluster(self.nodes, seed=CLUSTER_SEED)
        self.cluster.add_shards(num_shards=4, replication=2, num_subgroups=2,
                                window=16)
        self.cluster.build()
        self.router = self.cluster.router()
        # Protocol defaults (OCC, WAL fsync on); only the client's attempt
        # budget is raised, so that no transaction is ever abandoned
        # (the default 12 abandons ~0.25% of them at this contention).
        self.plane = self.cluster.txn(TxnConfig(max_attempts=64))
        # A dedicated coordinator host outside every subgroup.
        self.coordinator = self.nodes - 1
        #: (handed, done, status, attempts)
        self.done = []

    def _client(self, c, programs):
        sim = self.cluster.sim
        run_txn, coordinator = self.plane.run_txn, self.coordinator
        spans = self._spans
        for i, ops in enumerate(programs):
            handed = sim.now
            token = spans.open("plane.run_txn", (c, i), handed)
            out = yield from run_txn(ops, coordinator_node=coordinator)
            spans.close(token, sim.now)
            self.done.append((handed, sim.now, out.status, out.attempts))
            yield self.think

    def load(self):
        for c, programs in enumerate(self.inputs["programs"]):
            yield f"perf.txn-client{c}", self._client(c, programs)

    def check(self):
        errors = []
        audit = self.router.verifier.check()
        if not audit.ok:
            errors.append(f"shard verifier: {audit.violations[:3]}")
        want = sum(len(p) for p in self.inputs["programs"])
        if len(self.done) != want:
            errors.append(f"{len(self.done)}/{want} transactions finished")
        return errors

    def outcome(self):
        committed = [(h, t) for h, t, status, _a in self.done
                     if status == "committed"]
        first = min(h for h, _t, _s, _a in self.done)
        last = max(t for _h, t in committed)
        return Outcome([t - h for h, t in committed], first, last,
                       len(self.done), len(self.done) - len(committed))


WORKLOADS = {w.name: w for w in
             (McastSmall, McastDelayed10k, KvOpenLoop, TxnClosedLoop)}

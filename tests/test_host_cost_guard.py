"""Deterministic host-cost guards: exact Python call counts.

Wall-clock benches are noisy; the number of Python function calls the
simulator makes is not. These count ``call`` events (``sys.setprofile``,
generator resumptions included) inside ``src/repro/`` over small seeded
loads and hold ratios under budgets, so a change that brings the calls
back fails here instead of in a noisy bench (docs/ENGINE.md, "Above the
scheduler" and "Cost per event: the resume chain").

* **Data path** — calls per delivered (message, node) on a closed-loop
  multicast: a change that brings back per-cell or per-message calls on
  the receive -> deliver -> acknowledge -> push path. The parent of the
  span-granular PR measured 43.1 on this exact load, the span path
  20.1, the flattened resume chain below 16.47, and the two-tier
  scheduler (no ``_advance``/``_stage`` frames) 16.19. Streamed
  upcalls took it to 15.19: an endpoint with no delivery callback no
  longer calls an empty dispatcher per delivery, and adds no wake.
  The second row registers one callback on one node (the shape of
  ``perf/``'s observer): that node wakes once per upcall of a
  multi-message batch instead of once per batch, 16.93.
* **Request path** — batches are ~1 there, so the scheduler, the
  ``Process`` resume chain and the polling thread are the cost: *calls
  inside ``repro/sim`` + ``repro/predicates`` per scheduler event*, and
  *calls anywhere in ``repro`` per completed request / per committed
  transaction*. Parent (PR 14) -> the flattened resume chain -> the
  two-tier scheduler -> designated-sender shard subgroups (no null
  round behind each request: 30 % fewer events per op, and a mix that
  leans slightly towards the costlier ones, hence 4.41 -> 4.53) ->
  router dispatchers (requests that overlap share a post, a receive
  pass and a delivery batch; these loads are light, so only a few do):

  =====================  ============================  =======================================
  load                   sim+predicates calls/event    calls per op
  =====================  ============================  =======================================
  sharded KV, 200 ops    8.56 -> 4.48 -> 4.41 -> 4.53  1,390 -> 994 -> 987 -> 696 -> 681
  OCC + WAL, 24 commits  8.71 -> 4.55 -> 4.43 -> 4.53  7,804 -> 5,581 -> 5,516 -> 3,704 -> 3,634
  =====================  ============================  =======================================

  Scatter-gather commit rounds moved the transaction row alone, to
  4.57 and 3,215: a commit waits out three to four ordered round trips
  instead of five to six, so fewer polling passes are charged to it,
  at the price of one process per fan-out leg. Dropping OCC's fenced
  validation read moved it again, to 4.57 and 2,884: a retry sends no
  fence round before its prepares, the load retries once less (26
  attempts for 24 commits, was 27), and the pre-prepare clearance is a
  plain call rather than a generator. Acknowledging OCC commits at the
  DECISION fsync moved it to 4.61 and 2,659: the load retries exactly
  as often (26 attempts, 2 prepare aborts), but a commit's settle round
  now overlaps the client's next transaction instead of running in
  front of it, so fewer polling passes are charged per commit; the
  background settle process each two-shard attempt spawns costs less
  than that saves. Handing each delivery over at its own upcall instant
  moved both rows: KV to 4.56 and 683.6, transactions to 4.62 and
  2,773 (the same 26 attempts; 6,087 -> 6,402 scheduler events). Every
  replica observes its subgroup, so a multi-message delivery batch
  wakes once per upcall instead of once. Keeping every count as a plain
  attribute that the metrics registry mirrors at snapshot time (no
  metric call on the hot path, no one-line ``SubgroupStats`` recorders)
  moved all four rows: 14.43 and 16.17 calls per delivery, 603.7 per KV
  request and 2,486 per commit (per scheduler event: 4.56 and 4.62).
  Running a delivery batch's upcalls and acknowledgement after the lock
  release moved them again: 14.16 and 15.90 calls per delivery (senders
  find the lock free more often, so fewer take the queued path), 622.9
  per KV request and 2,583 per commit (per scheduler event: 4.76 and
  4.81), because every trigger's posts now run through
  ``PredicateThread.post``, one more generator frame per push.
  Sending the delivery ack only to the senders that read it moved the
  two request-path rows: 594.7 calls per KV request and 2,463 per
  commit (per scheduler event: 4.76 and 4.80). A shard gateway, the
  subgroup's only sender, posts no delivery ack at all, and a replica
  posts one to the gateway instead of one to every peer. The two
  data-path rows are all-senders loads and did not move.
  Making a sole sender its own first receiver moved the two
  request-path rows again: 501.9 calls per KV request and 2,141 per
  commit (per scheduler event: 4.81 and 4.87, since the events that
  went were cheap ones). A gateway runs no receive predicate and posts
  no receive ack; its send trigger does the receive bookkeeping. The
  data-path rows stay at 14.16 and 15.90.

Budgets are ~15 % above the last measured counts, for the plain
program: the sanitizer and the happens-before tracker call back into
``repro`` from their hooks, so the budget tests are skipped while either
is installed (the counts still have to repeat exactly).
"""

import gc
import os
import sys
from random import Random

import pytest

import repro
from repro.analysis.lint.hb import global_tracker
from repro.analysis.lint.sanitizer import global_sanitizer
from repro.core.config import SpindleConfig
from repro.sim.units import us
from repro.txn import TxnOp
from repro.workloads import Cluster, continuous_sender, open_loop_client

NODES = 4
SIZE = 128
WINDOW = 100
PER_SENDER = 300

BUDGET_CALLS_PER_DELIVERY = 16.3
BUDGET_CALLS_PER_OBSERVED_DELIVERY = 18.3
#: (sim+predicates calls per scheduler event, calls per completed op)
BUDGET_KV = (5.54, 577)
BUDGET_TXN = (5.60, 2462)

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SCHEDULER = (_SRC + "sim" + os.sep, _SRC + "predicates" + os.sep)
#: The sanitizer's and the HB tracker's own frames: how much work they
#: do per hook depends on what they have seen so far, not on the run.
_OBSERVERS = _SRC + "analysis" + os.sep


def skip_unless_plain_program():
    if global_sanitizer() is not None or global_tracker() is not None:
        pytest.skip("observers add their own calls; the budgets are for "
                    "the plain run")


def count_calls(fn):
    """Python-level ``call`` events while ``fn`` runs (generator
    resumptions included): (inside src/repro/ but not its observers in
    analysis/, of which inside src/repro/sim/ + src/repro/predicates/).

    The collector is emptied first and held off meanwhile: finalizing
    an earlier test's suspended generators resumes their frames, which
    would be counted here."""
    calls = scheduler = 0

    def profiler(frame, event, _arg):
        nonlocal calls, scheduler
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(_SRC) and not filename.startswith(_OBSERVERS):
                calls += 1
                if filename.startswith(_SCHEDULER):
                    scheduler += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls, scheduler


# ------------------------------------------------------------------ data path


def run_load(observed=False):
    cluster = Cluster(NODES, config=SpindleConfig.optimized(), seed=0)
    cluster.add_subgroup(message_size=SIZE, window=WINDOW)
    cluster.build()
    if observed:
        cluster.group(0).on_delivery(0, lambda _delivery: None)
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=PER_SENDER, size=SIZE))
    calls, _ = count_calls(cluster.run_to_quiescence)
    deliveries = cluster.total_delivered(0)
    assert deliveries == PER_SENDER * NODES * NODES
    return calls / deliveries


def test_calls_per_delivery_within_budget():
    skip_unless_plain_program()
    per_delivery = run_load()
    assert per_delivery <= BUDGET_CALLS_PER_DELIVERY, (
        f"{per_delivery:.1f} Python calls per delivered (message, node); "
        f"budget {BUDGET_CALLS_PER_DELIVERY}")


def test_observed_calls_per_delivery_within_budget():
    skip_unless_plain_program()
    per_delivery = run_load(observed=True)
    assert per_delivery <= BUDGET_CALLS_PER_OBSERVED_DELIVERY, (
        f"{per_delivery:.1f} Python calls per delivered (message, node) "
        f"with one observer; budget {BUDGET_CALLS_PER_OBSERVED_DELIVERY}")


def test_call_count_repeats_exactly():
    assert run_load() == run_load()
    assert run_load(observed=True) == run_load(observed=True)


# --------------------------------------------------------------- request path


def _sharded(nodes, shards, subgroups):
    cluster = Cluster(nodes, config=SpindleConfig.optimized(), seed=0)
    cluster.add_shards(num_shards=shards, replication=2,
                       num_subgroups=subgroups, window=16, message_size=256)
    cluster.build()
    return cluster


def _ratios(cluster, ops):
    """(sim+predicates calls per scheduler event, calls per op) of
    running the already-spawned load to quiescence."""
    before = cluster.sim.events_executed
    calls, scheduler = count_calls(cluster.run_to_quiescence)
    events = cluster.sim.events_executed - before
    return scheduler / events, calls / ops


def run_kv_load():
    """4 shards x replication 2, two open-loop clients, 200 get/put."""
    cluster = _sharded(nodes=8, shards=4, subgroups=4)
    router = cluster.router()
    done = []

    def request(c, k):
        key = b"k%d" % ((5 * k + c) % 64)
        if k % 2:
            out = yield from router.request("get", key)
        else:
            out = yield from router.request("put", key, b"v" * 32)
        done.append(out.status)
        return out

    for c in range(2):
        cluster.spawn_sender(open_loop_client(
            cluster.sim, lambda k, c=c: request(c, k), rate=200_000.0,
            count=100, rng=Random(c)))
    ratios = _ratios(cluster, ops=200)
    assert done == ["ok"] * 200
    return ratios


def run_txn_load():
    """OCC + WAL fsync: 3 closed-loop clients x 8 read-modify-writes."""
    cluster = _sharded(nodes=5, shards=4, subgroups=2)
    cluster.router()
    plane = cluster.txn()

    def client(c):
        rng = Random(c)
        for i in range(8):
            ops = []
            for _ in range(3):
                key = b"t%d" % rng.randrange(48)
                ops += [TxnOp("get", key),
                        TxnOp("put", key, b"v%d.%d" % (c, i))]
            yield from plane.run_txn(ops, coordinator_node=4)
            yield us(2.0)

    for c in range(3):
        cluster.spawn_sender(client(c))
    ratios = _ratios(cluster, ops=24)
    assert plane.counters.committed == 24
    return ratios


@pytest.mark.parametrize("load, budget", [
    (run_kv_load, BUDGET_KV), (run_txn_load, BUDGET_TXN)])
def test_request_path_calls_within_budget(load, budget):
    skip_unless_plain_program()
    per_event, per_op = load()
    assert per_event <= budget[0], (
        f"{per_event:.2f} sim+predicates calls per scheduler event; "
        f"budget {budget[0]}")
    assert per_op <= budget[1], (
        f"{per_op:.0f} Python calls per completed op; budget {budget[1]}")


@pytest.mark.parametrize("load", [run_kv_load, run_txn_load])
def test_request_path_call_count_repeats_exactly(load):
    assert load() == load()

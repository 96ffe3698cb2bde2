"""Scheduler conformance: the deque + heap scheduler vs a flat heap.

``Simulator`` promises the (time, seq) contract — same-timestamp events
fire in scheduling order, cancelled timers never advance the clock —
and the reference for it is the simplest scheduler that has it by
construction: ``references.HeapSimulator``, one ``heapq`` of
``(time, seq, Timer)``. These tests pin the contract on each alone
(``[optimized]`` is the product scheduler, ``[reference]`` the heap
model) and differentially between them, with special attention to the
places the scheduler's two queues could plausibly diverge from one heap:
which head fires on a timestamp tie (heap entries at the instant before
the now-queue's), zero-delay posts made while the instant drains,
``until`` falling inside a same-timestamp batch, ``stop()`` leaving the
now-queue half drained, whatever is queued between two ``run()`` calls,
and cancellation while a batch is draining.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from references import SCHEDULERS
from repro.sim import SimulationError
from repro.sim.engine import AtTime

ENGINES = tuple(SCHEDULERS)
#: Delay scales of the protocol: timing constants are O(100 ns), a
#: window of messages spans tens of microseconds.
STEP = 5e-7
SPAN = 64 * STEP

both_engines = pytest.mark.parametrize("engine", ENGINES)


# ---------------------------------------------------------------------------
# Same-timestamp FIFO, across every insertion path
# ---------------------------------------------------------------------------


@both_engines
def test_same_time_fifo_across_apis(engine):
    """Interleaved call_at / post_at / post_after / post at one instant
    fire in scheduling order, regardless of which API queued them."""
    sim = SCHEDULERS[engine]()
    fired = []
    t = 3 * STEP  # a later instant: all five go through the heap

    def arm():
        sim.call_at(t, fired.append, 0)
        sim.post_at(t, fired.append, 1)
        sim.post_after(t - sim.now, fired.append, 2)
        sim.call_at(t, fired.append, 3)
        sim.post_at(t, fired.append, 4)

    sim.post(arm)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == t


@both_engines
def test_now_queue_fifo_with_nested_posts(engine):
    """Zero-delay posts made *while draining* the current instant fire
    after everything already queued at that instant (larger seq)."""
    sim = SCHEDULERS[engine]()
    fired = []

    def first():
        fired.append("first")
        sim.post(fired.append, "nested")  # same instant, queued last
        sim.post_after(0.0, fired.append, "nested-after")

    sim.call_after(1e-6, first)
    sim.call_at(1e-6, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "nested", "nested-after"]


@both_engines
def test_attime_hits_exact_float(engine):
    """yield AtTime(t) resumes at bit-for-bit ``t`` even when the chain
    of additions that produced ``t`` is not representable as now+delta."""
    sim = SCHEDULERS[engine]()
    t = 0.1 + 0.2 + 0.3  # classic float-association trap
    seen = []

    def proc():
        yield AtTime(t)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [t]


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


@both_engines
def test_cancel_during_same_instant_drain(engine):
    """A timer cancelled by an earlier callback *at the same timestamp*
    must not fire, wherever the rest of the batch is queued meanwhile."""
    sim = SCHEDULERS[engine]()
    fired = []
    victim = {}

    def canceller():
        fired.append("canceller")
        victim["t"].cancel()

    sim.call_at(1e-6, canceller)
    victim["t"] = sim.call_at(1e-6, fired.append, "victim")
    sim.call_at(1e-6, fired.append, "survivor")
    sim.run()
    assert fired == ["canceller", "survivor"]


@both_engines
def test_cancelled_tail_never_advances_clock(engine):
    """Cancelled timers are skipped without moving ``now`` or counting
    as executed events — on both schedulers."""
    sim = SCHEDULERS[engine]()
    fired = []
    sim.call_after(1e-6, fired.append, "real")
    late = sim.call_after(5.0, fired.append, "cancelled")
    late.cancel()
    far = sim.call_after(7.0, fired.append, "cancelled-far")
    far.cancel()
    end = sim.run()
    assert fired == ["real"]
    assert end == 1e-6 and sim.now == 1e-6
    assert sim.events_executed == 1
    assert not late.active and not far.active


@both_engines
def test_peek_skips_cancelled(engine):
    """peek() reports the next *live* event on both schedulers."""
    sim = SCHEDULERS[engine]()
    doomed = sim.call_after(1e-6, lambda: None)
    sim.call_after(2e-6, lambda: None)
    doomed.cancel()
    assert sim.peek() == 2e-6
    sim.run()
    assert sim.peek() is None


# ---------------------------------------------------------------------------
# Delays across scales: a fraction of a step out to many spans (plain
# timing tests; their names come from the calendar queue they were
# written against and stay so that test ids are stable)
# ---------------------------------------------------------------------------


@both_engines
def test_horizon_boundary_ordering(engine):
    """Events one step apart, a nanosecond either side of a span and
    far beyond it fire in time order with FIFO ties."""
    sim = SCHEDULERS[engine]()
    fired = []
    times = [SPAN - STEP, SPAN - 1e-9, SPAN,
             SPAN + 1e-9, 10 * SPAN]
    for i, t in enumerate(times):
        sim.call_at(t, fired.append, i)
        sim.call_at(t, fired.append, (i, "tie"))
    sim.run()
    assert fired == [x for i in range(len(times)) for x in (i, (i, "tie"))]
    assert sim.now == 10 * SPAN


@both_engines
def test_far_heap_reanchor_preserves_fifo(engine):
    """A cluster of far-future events scheduled out of time order:
    time order wins, same-timestamp FIFO survives the heap."""
    sim = SCHEDULERS[engine]()
    fired = []
    base = 5 * SPAN
    for i in range(8):
        sim.call_at(base + (i % 3) * STEP, fired.append, i)
    sim.run()
    expect = sorted(range(8), key=lambda i: (i % 3, i))
    assert fired == expect


@both_engines
def test_past_bucket_scheduling_after_reanchor(engine):
    """A callback firing after a long idle gap schedules a delay far
    smaller than a step next to a zero-delay post: the post fires first
    (same instant), the tiny delay right after it."""
    sim = SCHEDULERS[engine]()
    fired = []

    def late():
        fired.append("late")
        sim.call_after(1e-10, fired.append, "tiny")
        sim.post(fired.append, "instant")

    sim.call_at(SPAN - 2e-9, late)
    sim.run()
    assert fired == ["late", "instant", "tiny"]


@both_engines
def test_until_pushback_preserves_batch_order(engine):
    """run(until) that stops short of a same-timestamp batch leaves it
    queued untouched; a later run() must fire it in the original
    scheduling order, with an entry queued between the two runs last."""
    sim = SCHEDULERS[engine]()
    fired = []
    t = 2e-6
    for i in range(6):
        sim.call_at(t, fired.append, i)
    sim.call_at(t + STEP / 2, fired.append, "later")
    assert sim.run(until=1e-6) == 1e-6
    assert fired == []
    sim.call_at(t, fired.append, 6)  # arrives between the two runs
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5, 6, "later"]


# ---------------------------------------------------------------------------
# Times the queue cannot order
# ---------------------------------------------------------------------------


@both_engines
def test_schedule_in_past_raises(engine):
    sim = SCHEDULERS[engine]()
    sim.call_after(1e-6, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(sim.now - 1e-9, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_at(sim.now - 1e-9, lambda: None)
    with pytest.raises(SimulationError):
        sim.post_after(-1e-9, lambda: None)


@both_engines
def test_nan_time_raises_and_leaves_queue_usable(engine):
    """``nan < now`` is False, so a guard written that way lets a NaN
    in, and no queue can order one: a heap fires it at an arbitrary
    point and the clock becomes NaN. Every scheduling call and a
    process sleep reject it instead (``not time >= now``)."""
    nan = float("nan")
    sim = SCHEDULERS[engine]()
    fired = []
    sim.call_after(1e-6, fired.append, "before")
    for schedule in (sim.post_at, sim.call_at, sim.post_after,
                     sim.call_after):
        with pytest.raises(SimulationError):
            schedule(nan, fired.append, "nan")

    def sleeper():
        yield nan

    sim.spawn(sleeper())
    with pytest.raises(SimulationError):
        sim.run()
    assert sim.now == 0.0  # raised from the process's first step
    sim.call_after(2e-6, fired.append, "after")
    assert sim.run() == 2e-6
    assert fired == ["before", "after"]
    assert sim.peek() is None and sim.pending_events == 0


# ---------------------------------------------------------------------------
# Differential: both schedulers, identical firing order
# ---------------------------------------------------------------------------


def _schedule(engine, delays, stop_at=None):
    """Load one scheduler with a deterministic schedule derived from
    ``delays``: roots at call_after(d), each root fanning out through a
    different scheduling API, children re-scheduling recursively so the
    now-queue and the heap both see traffic. Root ``stop_at`` (if any)
    calls ``sim.stop()`` once it has fanned out — mid-instant whenever
    it posted at zero delay or shares its timestamp."""
    sim = SCHEDULERS[engine]()
    log = []

    def child(i, depth):
        log.append((sim.now, "child", i, depth))
        if depth < 2:
            sim.post_after((i % 7) * (STEP / 3), child, i, depth + 1)

    def root(i, d):
        log.append((sim.now, "root", i))
        mode = i % 4
        if mode == 0:
            sim.post(child, i, 0)
        elif mode == 1:
            sim.post_after(d, child, i, 0)
        elif mode == 2:
            sim.post_at(sim.now + d, child, i, 0)
        else:
            timer = sim.call_after(d / 2, child, i, 0)
            if i % 8 == 3:
                timer.cancel()
        if i == stop_at:
            sim.stop()

    for i, d in enumerate(delays):
        sim.call_after(d, root, i, d)
    return sim, log


def _run_schedule(engine, delays):
    sim, log = _schedule(engine, delays)
    end = sim.run()
    return log, end, sim.events_executed


def _run_interrupted(engine, delays, stop_at, between):
    """run() cut short by ``stop()``, a run(until) earlier than ``now``
    (fires nothing), posts and timers queued from outside the loop, and
    a final run() — the clock after each step is part of the result."""
    sim, log = _schedule(engine, delays, stop_at)

    def mark(kind, k):
        log.append((sim.now, kind, k))

    clocks = [sim.run()]
    clocks.append(sim.run(until=sim.now - STEP))
    for k, d in enumerate(between):
        (sim.post_after, sim.call_after)[k % 2](d, mark, "between", k)
        sim.post(mark, "between-now", k)
    clocks.append(sim.run())
    return log, clocks, sim.events_executed


delay_strategy = st.lists(
    st.one_of(
        # Values that collide exactly (timestamp ties, zero delays)...
        st.sampled_from([0.0, STEP, STEP * 3,
                         SPAN, SPAN + STEP, 2.5 * SPAN]),
        # ...and arbitrary delays from sub-step to many spans.
        st.floats(min_value=0.0, max_value=1e-3,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=30,
)
stop_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=29))


@given(delays=delay_strategy, stop_at=stop_strategy,
       between=st.lists(st.sampled_from([0.0, STEP / 3, STEP, SPAN]),
                        max_size=4))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_calendar_and_heap_fire_identically(delays, stop_at, between):
    """Property: for any schedule — run straight through, or stopped
    mid-instant, re-run with ``until < now`` and fed from outside
    between runs — the scheduler fires the exact same callbacks at the
    exact same timestamps in the exact same order as the flat heap,
    stops each run at the same clock, and retires the same number of
    events."""
    straight = {eng: _run_schedule(eng, delays) for eng in ENGINES}
    assert straight["optimized"] == straight["reference"]
    broken = {eng: _run_interrupted(eng, delays, stop_at, between)
              for eng in ENGINES}
    assert broken["optimized"] == broken["reference"]


@given(delays=delay_strategy, stop_at=stop_strategy,
       until=st.floats(min_value=0.0, max_value=2e-3, allow_nan=False))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_split_runs_match_single_run(delays, stop_at, until):
    """Property: run(until), cut short by ``stop()`` or not, then a
    run(until) earlier than ``now``, then run() equals one uninterrupted
    run() on both schedulers — an interruption may not reorder, drop or
    re-time anything, and the backwards ``until`` fires nothing."""
    for eng in ENGINES:
        whole, _end, executed = _run_schedule(eng, delays)
        sim, log = _schedule(eng, delays, stop_at)
        sim.run(until=until)
        seen, now = len(log), sim.now
        assert sim.run(until=now - STEP) == now and len(log) == seen
        sim.run()
        sim.run()  # again, if root `stop_at` only fired in the last one
        assert log == whole
        assert sim.events_executed == executed

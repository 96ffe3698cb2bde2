"""Unit tests for generator-based simulated processes."""

import gc
import weakref

import pytest

from references import SCHEDULERS
from repro.sim import AtTime, Event, Simulator, SimulationError
from repro.sim.units import us


def test_process_sleeps_for_yielded_delay():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(sim.now)
        yield 1.0
        trace.append(sim.now)
        yield 0.5
        trace.append(sim.now)

    sim.spawn(worker())
    sim.run()
    assert trace == [0.0, 1.0, 1.5]


def test_process_result_and_completion_event():
    sim = Simulator()

    def worker():
        yield 1.0
        return 42

    proc = sim.spawn(worker())
    sim.run()
    assert not proc.alive
    assert proc.result == 42
    assert proc.completion.triggered
    assert proc.completion.value == 42


def test_join_another_process():
    sim = Simulator()
    log = []

    def child():
        yield 2.0
        return "done"

    def parent():
        proc = sim.spawn(child(), name="child")
        result = yield proc
        log.append((sim.now, result))

    sim.spawn(parent())
    sim.run()
    assert log == [(2.0, "done")]


def test_wait_on_event_receives_value():
    sim = Simulator()
    event = Event(sim)
    got = []

    def waiter():
        value = yield event
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.call_after(3.0, event.trigger, "payload")
    sim.run()
    assert got == [(3.0, "payload")]


def test_wait_on_already_triggered_event_resumes_immediately():
    sim = Simulator()
    event = Event(sim)
    event.trigger("early")
    got = []

    def waiter():
        yield 1.0
        value = yield event
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(1.0, "early")]


def test_yield_none_is_cooperative_reschedule():
    sim = Simulator()
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    sim.spawn(a())
    sim.spawn(b())
    sim.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert sim.now == 0.0


def test_killed_process_never_resumes():
    sim = Simulator()
    trace = []

    def worker():
        trace.append("start")
        yield 5.0
        trace.append("never")

    proc = sim.spawn(worker())
    sim.call_after(1.0, proc.kill)
    sim.run()
    assert trace == ["start"]
    assert not proc.alive


def test_kill_while_waiting_on_event_is_safe():
    sim = Simulator()
    event = Event(sim)

    def worker():
        yield event
        raise AssertionError("should not resume")

    proc = sim.spawn(worker())
    sim.call_after(1.0, proc.kill)
    sim.call_after(2.0, event.trigger, None)
    sim.run()
    assert not proc.alive


def test_negative_yield_raises():
    sim = Simulator()

    def worker():
        yield -1.0

    sim.spawn(worker())
    with pytest.raises(SimulationError):
        sim.run()


def test_unsupported_yield_value_raises():
    sim = Simulator()

    def worker():
        yield "nonsense"

    sim.spawn(worker())
    with pytest.raises(SimulationError):
        sim.run()


def test_exception_in_process_propagates():
    sim = Simulator()

    def worker():
        yield 1.0
        raise ValueError("boom")

    sim.spawn(worker())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_finished_process_is_collectable():
    """The simulator keeps no list of what it spawned: a process that
    ran to completion and that nobody else refers to is freed (a
    process per request or per fan-out leg must not pile up)."""
    sim = Simulator()

    def worker():
        yield 1.0

    gen = worker()
    freed = weakref.ref(gen)  # Process has __slots__; it owns gen
    sim.spawn(gen)
    del gen
    sim.run()
    gc.collect()
    assert freed() is None


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(i, period):
        for _ in range(3):
            yield period
            log.append((sim.now, i))

    sim.spawn(worker(0, us(2)))
    sim.spawn(worker(1, us(3)))
    sim.run()
    assert log == sorted(log, key=lambda x: x[0])
    assert len(log) == 6


# -- the flattened float / AtTime sleep path (docs/ENGINE.md, "Cost per
# event"): suspend, kill and past-due wakes behave as on every other path.

ENGINES = list(SCHEDULERS)
SLEEPS = {"float": lambda sim: 2.0, "at_time": lambda sim: AtTime(sim.now + 2.0)}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sleep", sorted(SLEEPS))
def test_suspend_while_sleeping_defers_exactly_one_resumption(engine, sleep):
    sim = SCHEDULERS[engine]()
    trace = []

    def worker():
        yield SLEEPS[sleep](sim)
        trace.append(sim.now)
        yield SLEEPS[sleep](sim)
        trace.append(sim.now)

    proc = sim.spawn(worker())
    sim.call_at(1.0, proc.suspend)
    sim.run(until=4.0)
    # The wake at t=2 fired into the frozen process and is parked, once.
    assert trace == [] and proc.suspended and proc._deferred == (None,)
    executed = sim.events_executed
    sim.call_at(5.0, proc.resume)
    sim.run()
    # Resumed at 5 (the stall extends the wait), then sleeps normally:
    # resume + the deferred step + the second wake, nothing doubled.
    assert trace == [5.0, 7.0]
    assert sim.events_executed == executed + 3
    assert not proc.alive and proc._deferred is None


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sleep", sorted(SLEEPS))
def test_kill_drops_the_deferred_resumption(engine, sleep):
    sim = SCHEDULERS[engine]()
    trace = []

    def worker():
        yield SLEEPS[sleep](sim)
        trace.append("never")

    proc = sim.spawn(worker())
    sim.call_at(1.0, proc.suspend)
    sim.call_at(3.0, proc.kill)      # deferred wake from t=2 is pending
    sim.call_at(4.0, proc.resume)
    sim.run()
    assert trace == [] and not proc.alive and proc._deferred is None


@pytest.mark.parametrize("engine", ENGINES)
def test_at_time_in_the_past_wakes_now(engine):
    sim = SCHEDULERS[engine]()
    trace = []

    def worker():
        yield 3.0
        yield AtTime(1.0)            # already gone: as soon as possible
        trace.append(sim.now)
        yield AtTime(sim.now)        # exactly now: same instant
        trace.append(sim.now)

    sim.spawn(worker())
    sim.run()
    assert trace == [3.0, 3.0]

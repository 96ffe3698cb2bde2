"""Discrete-event simulation kernel.

The kernel is a small, deterministic event-driven simulator in the style
of SimPy: a :class:`Simulator` owns a queue of timestamped callbacks and
a notion of *simulated time*, and :class:`~repro.sim.process.Process`
objects (generator coroutines) advance that time by yielding delays and
synchronization primitives.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a run
with a fixed seed is exactly reproducible.

The scheduler has two tiers (docs/ENGINE.md): a *now-deque* for events
at the current instant (zero-delay wakeups from event triggers and
doorbells, O(1)) over one ``heapq`` for everything later; the run loop
fires the smaller of the two heads.  Internal wakeups are bare
``(time, seq, fn, args)`` entries with no :class:`Timer` allocation.
``tests/test_scheduler_conformance.py`` holds it to the (time, seq)
contract against an independent flat-heap model.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from . import probe

__all__ = ["Simulator", "SimulationError", "Timer", "AtTime"]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. time travel)."""


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Returned by :meth:`Simulator.call_at` / :meth:`Simulator.call_after`.
    Cancelling an already-fired timer is a no-op.
    """

    __slots__ = ("time", "_fn", "_args", "_cancelled", "_fired")

    def __init__(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self._fn = fn
        self._args = args
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        self._cancelled = True

    @property
    def active(self) -> bool:
        """True while the callback is still pending."""
        return not (self._cancelled or self._fired)


class AtTime:
    """Yieldable absolute-time sleep: ``yield AtTime(t)`` resumes the
    process at exactly ``t``.

    The predicate thread's uncontended pass needs this: a wake time
    computed as a chain of float additions (``t0 + a + b``) must be hit
    *bit-for-bit*, and re-deriving it from relative delays
    (``now + (t - now)``) is not exact in floating point.
    """

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time


class Simulator:
    """The simulation clock and event queue.

    Typical usage::

        sim = Simulator(seed=42)
        sim.spawn(my_generator(), name="worker")
        sim.run(until=1.0)   # simulated seconds

    All timestamps are floats in *seconds*; helpers for µs/ns literals
    live in :mod:`repro.sim.units`.
    """

    def __init__(self, seed: int = 0):
        #: Current simulated time in seconds (read-only by convention).
        self.now: float = 0.0
        self._seq = itertools.count()
        self.rng = random.Random(seed)
        self._stopped = False
        #: The :class:`~repro.sim.process.Process` whose generator is
        #: currently being advanced, or None when executing plain
        #: callbacks. Maintained by Process itself; used by Lock for
        #: owner tracking and by the runtime sanitizer to attribute RDMA
        #: posts to the thread that issued them.
        self.current_process: Optional[Any] = None
        # -- engine statistics (benchmarks/bench_engine_speed.py) -------------
        #: Callbacks actually fired (cancelled timers excluded).
        self.events_executed = 0
        #: Entries currently queued (including not-yet-reaped cancelled
        #: timers) and the high-water mark of that count.
        self.pending_events = 0
        self.peak_pending_events = 0
        #: Every pending event later than the instant it was scheduled
        #: at, a ``heapq`` of ``(time, seq, fn, args)`` — or
        #: ``(time, seq, Timer, None)`` for a cancellable one.
        self._heap: List[tuple] = []
        #: Events scheduled at the instant they fire at, in seq order
        #: (same entry shapes as the heap).
        self._now_q: deque = deque()

    # ------------------------------------------------------------- scheduling

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        now = self.now
        if not time >= now:  # also rejects NaN, which no queue can order
            raise SimulationError(
                f"cannot schedule at {time} before current time {now}"
            )
        if probe.subscribers:
            for s in probe.subscribers:
                fn, args = s.sched_post(self, fn, args)
        timer = Timer(time, fn, args)
        pending = self.pending_events + 1
        self.pending_events = pending
        if pending > self.peak_pending_events:
            self.peak_pending_events = pending
        entry = (time, next(self._seq), timer, None)
        if time == now:
            self._now_q.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return timer

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + delay, fn, *args)

    # -- no-Timer scheduling (hot paths): process wakeups, event triggers
    # and doorbell rings never cancel, so they skip the Timer allocation.

    def post(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current instant, no handle."""
        if probe.subscribers:
            for s in probe.subscribers:
                fn, args = s.sched_post(self, fn, args)
        pending = self.pending_events + 1
        self.pending_events = pending
        if pending > self.peak_pending_events:
            self.peak_pending_events = pending
        self._now_q.append((self.now, next(self._seq), fn, args))

    def post_after(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> None:
        """:meth:`call_after` without the :class:`Timer`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self.now + delay, fn, *args)

    def post_at(self, time: float, fn: Callable[..., Any],
                *args: Any) -> None:
        """:meth:`call_at` without the :class:`Timer`. Every process
        sleep lands here (``Process._step``): one frame per enqueue."""
        now = self.now
        if not time >= now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time} before current time {now}"
            )
        if probe.subscribers:
            for s in probe.subscribers:
                fn, args = s.sched_post(self, fn, args)
        pending = self.pending_events + 1
        self.pending_events = pending
        if pending > self.peak_pending_events:
            self.peak_pending_events = pending
        entry = (time, next(self._seq), fn, args)
        # A same-instant entry goes behind the now-queue: its seq is
        # newer than that of every entry at this timestamp, and the
        # heap's were all allocated before the instant began.
        if time == now:
            self._now_q.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def spawn(self, generator, name: str = "proc"):
        """Start a new simulated process from a generator. See Process."""
        from .process import Process

        return Process(self, generator, name=name)

    # ---------------------------------------------------------------- running

    def stop(self) -> None:
        """Stop the run loop after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or ``until`` is reached.

        Returns the simulated time at which the run stopped. When ``until``
        is given, time is advanced to exactly ``until`` even if the queue
        drained earlier (matching SimPy semantics).
        """
        self._stopped = False
        now_q = self._now_q
        heap = self._heap
        limit = float("inf") if until is None else until
        while not self._stopped:
            # Fire the smaller head by full (time, seq).  The heap wins
            # a timestamp tie (see post_at); comparing whole tuples
            # keeps the order right whatever was queued between runs.
            if now_q and not (heap and heap[0] < now_q[0]):
                entry = now_q[0]
                time = entry[0]
                if time > limit:
                    break
                now_q.popleft()
            elif heap:
                entry = heap[0]
                time = entry[0]
                if time > limit:
                    break
                heapq.heappop(heap)
            else:
                break
            self.pending_events -= 1
            cb = entry[2]
            args = entry[3]
            if args is None:  # Timer entry
                if cb._cancelled:
                    # Skipped without touching the clock: cancelled
                    # timers never advance time.
                    continue
                self.now = time
                self.events_executed += 1
                cb._fired = True
                cb._fn(*cb._args)
            else:
                self.now = time
                self.events_executed += 1
                cb(*args)
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        if probe.subscribers:
            for s in probe.subscribers:
                s.run_return(self)
        return self.now

    def run_until_idle(self, max_time: Optional[float] = None) -> float:
        """Run until no events remain (optionally bounded by ``max_time``)."""
        return self.run(until=max_time)

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if queue is empty."""
        heap = self._heap
        best: Optional[float] = None
        for entry in self._now_q:
            if entry[3] is not None or not entry[2]._cancelled:
                best = entry[0]
                break
        while heap and heap[0][3] is None and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self.pending_events -= 1
        if heap and (best is None or heap[0][0] < best):
            best = heap[0][0]
        return best

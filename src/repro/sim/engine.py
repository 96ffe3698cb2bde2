"""Discrete-event simulation kernel.

The kernel is a small, deterministic event-driven simulator in the style
of SimPy: a :class:`Simulator` owns a queue of timestamped callbacks and
a notion of *simulated time*, and :class:`~repro.sim.process.Process`
objects (generator coroutines) advance that time by yielding delays and
synchronization primitives.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a run
with a fixed seed is exactly reproducible.

Two interchangeable schedulers implement that (time, seq) contract
(selected per Simulator via ``engine=`` or the ``SPINDLE_ENGINE``
environment variable; see docs/ENGINE.md):

* ``"optimized"`` (default) — a calendar queue: a *now-deque* for
  events at the current instant (zero-delay wakeups from event
  triggers and doorbells), a ring of time buckets for the near future
  that the run loop pops directly, and a heap fallback for far-future
  events.  Internal
  wakeups are stored as bare ``(time, seq, fn, args)`` entries with no
  :class:`Timer` allocation.
* ``"reference"`` — the original flat ``heapq`` scheduler, kept
  bit-for-bit compatible as the baseline for the engine-speed benchmark
  and for differential determinism tests.

Both produce the exact same event order and the exact same timestamps;
``benchmarks/bench_engine_speed.py`` and the scheduler-conformance tests
enforce this.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "SimulationError", "Timer", "AtTime"]

#: Calendar-queue geometry: ``_NUM_BUCKETS`` buckets of ``_BUCKET_WIDTH``
#: seconds each.  Protocol timing constants are O(100 ns), so a 500 ns
#: bucket keeps same-bucket occupancy small while the whole ring covers
#: 32 µs of near future; anything beyond falls back to the far heap.
_BUCKET_WIDTH = 5e-7
_NUM_BUCKETS = 64
_ENGINE_MODES = ("optimized", "reference")


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

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._fn(*self._args)


class AtTime:
    """Yieldable absolute-time sleep: ``yield AtTime(t)`` resumes the
    process at exactly ``t``.

    The predicate thread's folded fast path needs this: a wake time
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

    #: Optional scheduling hook for the happens-before tracker
    #: (:mod:`repro.analysis.lint.hb`).  When set (on the class), every
    #: scheduling call passes ``(sim, fn, args)`` through it and
    #: schedules whatever it returns — letting the tracker thread
    #: vector-clock snapshots from the scheduling context to the fire
    #: context.  None (the default) costs one attribute check per
    #: scheduled event.
    hb_hook = None
    #: Companion hook called as ``hb_run_hook(sim)`` when :meth:`run`
    #: returns: the caller (usually test code between ``run`` calls) is
    #: causally after every event that just executed, and the tracker
    #: needs that edge to avoid phantom races against the caller's
    #: subsequent actions.
    hb_run_hook = None

    def __init__(self, seed: int = 0, engine: Optional[str] = None):
        if engine is None:
            engine = os.environ.get("SPINDLE_ENGINE", "optimized")
        if engine not in _ENGINE_MODES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {_ENGINE_MODES}"
            )
        #: Scheduler implementation: "optimized" or "reference".  The
        #: predicate thread and other fast-path users key off this.
        self.engine_mode = engine
        #: Current simulated time in seconds (read-only by convention).
        self.now: float = 0.0
        self._seq = itertools.count()
        self._processes: List[Any] = []  # live Process objects (for debugging)
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
        if engine == "reference":
            self._heap: List[Tuple[float, int, Timer]] = []
            self.post = self._post_ref
            self.post_after = self._post_after_ref
            self.post_at = self._post_at_ref
        else:
            #: Events at exactly the current instant, in seq order.
            self._now_q: deque = deque()
            #: Near-future bucket ring.  Future buckets are unsorted
            #: lists; the active bucket is lazily heapified.
            self._buckets: List[list] = [[] for _ in range(_NUM_BUCKETS)]
            self._bucket_idx = 0
            self._active_heaped = False
            self._base = 0.0
            self._horizon = _NUM_BUCKETS * _BUCKET_WIDTH
            self._near_count = 0
            #: Far-future heap fallback (time >= horizon).
            self._far: List[tuple] = []
            self.post = self._post_opt
            self.post_after = self._post_after_opt
            self.post_at = self._post_at_opt

    # ------------------------------------------------------------- scheduling

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        if Simulator.hb_hook is not None:
            fn, args = Simulator.hb_hook(self, fn, args)
        timer = Timer(time, fn, args)
        if self.engine_mode == "reference":
            heapq.heappush(self._heap, (time, next(self._seq), timer))
            pending = self.pending_events + 1
            self.pending_events = pending
            if pending > self.peak_pending_events:
                self.peak_pending_events = pending
        else:
            self._insert(time, next(self._seq), timer, None)
        return timer

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + delay, fn, *args)

    # -- internal no-Timer scheduling (hot paths) ---------------------------
    #
    # ``post`` / ``post_after`` / ``post_at`` schedule a bare callback
    # with no cancellation handle.  Process wakeups, event triggers and
    # doorbell rings never cancel, so they skip the Timer allocation
    # entirely on the optimized engine.  On the reference engine these
    # delegate to call_at, reproducing the pre-rewrite cost model.

    def _post_ref(self, fn: Callable[..., Any], *args: Any) -> None:
        self.call_at(self.now + 0.0, fn, *args)

    def _post_after_ref(self, delay: float, fn: Callable[..., Any],
                        *args: Any) -> None:
        self.call_after(delay, fn, *args)

    def _post_at_ref(self, time: float, fn: Callable[..., Any],
                     *args: Any) -> None:
        self.call_at(time, fn, *args)

    def _post_opt(self, fn: Callable[..., Any], *args: Any) -> None:
        if Simulator.hb_hook is not None:
            fn, args = Simulator.hb_hook(self, fn, args)
        pending = self.pending_events + 1
        self.pending_events = pending
        if pending > self.peak_pending_events:
            self.peak_pending_events = pending
        # At the current instant by construction: see _insert.
        self._now_q.append((self.now, next(self._seq), fn, args))

    def _post_after_opt(self, delay: float, fn: Callable[..., Any],
                        *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._post_at_opt(self.now + delay, fn, *args)

    def _post_at_opt(self, time: float, fn: Callable[..., Any],
                     *args: Any) -> None:
        """Every process sleep lands here (``Process._step``), so this
        is :meth:`_insert` written out in place: one frame per enqueue."""
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {now}"
            )
        if Simulator.hb_hook is not None:
            fn, args = Simulator.hb_hook(self, fn, args)
        pending = self.pending_events + 1
        self.pending_events = pending
        if pending > self.peak_pending_events:
            self.peak_pending_events = pending
        entry = (time, next(self._seq), fn, args)
        if time == now:
            self._now_q.append(entry)
        elif time < self._horizon:
            idx = int((time - self._base) / _BUCKET_WIDTH)
            active = self._bucket_idx
            if idx < active:
                idx = active
            elif idx >= _NUM_BUCKETS:
                idx = _NUM_BUCKETS - 1
            if idx == active and self._active_heaped:
                heapq.heappush(self._buckets[idx], entry)
            else:
                self._buckets[idx].append(entry)
            self._near_count += 1
        else:
            heapq.heappush(self._far, entry)

    def _insert(self, time: float, seq: int, cb: Any, args: Any) -> None:
        """Calendar-queue insert (``call_at``'s Timer entries, marked by
        ``args is None``; :meth:`_post_at_opt` is the same logic in place)."""
        pending = self.pending_events + 1
        self.pending_events = pending
        if pending > self.peak_pending_events:
            self.peak_pending_events = pending
        entry = (time, seq, cb, args)
        if time == self.now:
            # Sound because the run loop always moves *every* pending
            # entry at a timestamp into the now-queue before firing any
            # of them: anything still in the buckets/heap is strictly
            # later, and a new same-instant entry has a larger seq than
            # the whole current batch.
            self._now_q.append(entry)
            return
        if time < self._horizon:
            idx = int((time - self._base) / _BUCKET_WIDTH)
            # Clamp float edge cases into the live window; ordering is
            # unaffected because the active bucket is a heap and bucket
            # index is monotone in time.
            if idx < self._bucket_idx:
                idx = self._bucket_idx
            elif idx >= _NUM_BUCKETS:
                idx = _NUM_BUCKETS - 1
            bucket = self._buckets[idx]
            if idx == self._bucket_idx and self._active_heaped:
                heapq.heappush(bucket, entry)
            else:
                bucket.append(entry)
            self._near_count += 1
        else:
            heapq.heappush(self._far, entry)

    def _advance(self) -> bool:
        """Put the next event where the run loop pops it: sort the
        active bucket, moving the ring on (or re-anchoring it at the far
        heap) while it is empty; when the far heap leads — only after an
        ``until`` push-back — stage its batch into the now-queue.

        Returns False when no events remain.  Does NOT advance the
        clock: ``now`` only moves when a live callback actually fires,
        matching the reference scheduler (cancelled timers never
        advance time).
        """
        buckets = self._buckets
        far = self._far
        while True:
            active = buckets[self._bucket_idx]
            if active and not self._active_heaped:
                heapq.heapify(active)
                self._active_heaped = True
            if not active:
                if self._near_count:
                    # A later bucket is non-empty: advance the ring.
                    self._bucket_idx += 1
                    self._active_heaped = False
                    continue
                if not far:
                    return False
                # Ring exhausted: re-anchor the window at the next far
                # event and pull everything inside it into the buckets.
                base = far[0][0]
                self._base = base
                self._horizon = horizon = base + _NUM_BUCKETS * _BUCKET_WIDTH
                self._bucket_idx = 0
                self._active_heaped = False
                while far and far[0][0] < horizon:
                    entry = heapq.heappop(far)
                    idx = int((entry[0] - base) / _BUCKET_WIDTH)
                    if idx >= _NUM_BUCKETS:
                        idx = _NUM_BUCKETS - 1
                    buckets[idx].append(entry)
                    self._near_count += 1
                continue
            # Far entries are >= the horizon, i.e. beyond every bucket —
            # except entries pushed back by an `until` break, so always
            # compare by full (time, seq).
            if far and far[0] < active[0]:
                self._stage(active, far[0][0])
            return True

    def _stage(self, active: list, t: float) -> None:
        """Move every pending entry at timestamp ``t`` (active bucket
        and far heap) into the now-queue, in ``(time, seq)`` order."""
        far = self._far
        move = self._now_q.append
        while True:
            a_ok = active and active[0][0] == t
            f_ok = far and far[0][0] == t
            if a_ok and (not f_ok or active[0] < far[0]):
                move(heapq.heappop(active))
                self._near_count -= 1
            elif f_ok:
                move(heapq.heappop(far))
            else:
                return

    def spawn(self, generator, name: str = "proc"):
        """Start a new simulated process from a generator. See Process."""
        from .process import Process

        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

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
        if self.engine_mode == "reference":
            return self._run_ref(until)
        self._stopped = False
        now_q = self._now_q
        buckets = self._buckets
        far = self._far
        while not self._stopped:
            if now_q:
                entry = now_q.popleft()
                time = entry[0]
            else:
                active = buckets[self._bucket_idx]
                if not (active and self._active_heaped
                        and (not far or active[0] < far[0])):
                    # Bucket drained or unsorted, or the far heap leads.
                    if not self._advance():
                        break
                    continue
                # The next event is the head of the sorted active
                # bucket: fire it straight off the heap. Same-timestamp
                # siblings are staged first, so whatever the callback
                # posts at `now` queues behind them (see _insert).
                entry = heapq.heappop(active)
                self._near_count -= 1
                time = entry[0]
                if ((active and active[0][0] == time)
                        or (far and far[0][0] == time)):
                    self._stage(active, time)
            if until is not None and time > until:
                # Push the whole un-fired batch back for a later run().
                heapq.heappush(far, entry)
                while now_q:
                    heapq.heappush(far, now_q.popleft())
                break
            self.pending_events -= 1
            cb = entry[2]
            args = entry[3]
            if args is None:  # Timer entry
                if cb._cancelled:
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
        if Simulator.hb_run_hook is not None:
            Simulator.hb_run_hook(self)
        return self.now

    def _run_ref(self, until: Optional[float]) -> float:
        """The pre-rewrite flat-heap run loop, kept verbatim."""
        self._stopped = False
        heap = self._heap
        while heap and not self._stopped:
            time, _seq, timer = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            self.pending_events -= 1
            if not timer.active:
                continue
            self.now = time
            self.events_executed += 1
            timer._fire()
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        if Simulator.hb_run_hook is not None:
            Simulator.hb_run_hook(self)
        return self.now

    def run_until_idle(self, max_time: Optional[float] = None) -> float:
        """Run until no events remain (optionally bounded by ``max_time``)."""
        return self.run(until=max_time)

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if queue is empty."""
        if self.engine_mode == "reference":
            heap = self._heap
            while heap and not heap[0][2].active:
                heapq.heappop(heap)
                self.pending_events -= 1
            return heap[0][0] if heap else None
        best: Optional[float] = None
        for entry in self._now_q:
            if entry[3] is not None or not entry[2]._cancelled:
                best = entry[0]
                break
        buckets = self._buckets
        for idx in range(self._bucket_idx, _NUM_BUCKETS):
            for entry in buckets[idx]:
                if entry[3] is not None or not entry[2]._cancelled:
                    if best is None or entry[0] < best:
                        best = entry[0]
        far = self._far
        while far and far[0][3] is None and far[0][2]._cancelled:
            heapq.heappop(far)
            self.pending_events -= 1
        if far and (best is None or far[0][0] < best):
            best = far[0][0]
        return best

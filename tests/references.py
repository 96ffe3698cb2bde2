"""Reference implementations the differential suites compare the
product code against. They live next to the tests and nothing under
``src/`` imports them.

* :class:`HeapSimulator` — the flat-heap scheduler: every event a
  ``(time, seq, Timer)`` in one ``heapq``, no now-queue, no bare
  entries. The conformance suite (tests/test_scheduler_conformance.py)
  holds :class:`~repro.sim.Simulator` to it, event for event.
"""

import heapq

from repro.sim import probe
from repro.sim.engine import SimulationError, Simulator, Timer


class HeapSimulator(Simulator):
    """One ``heapq`` of ``(time, seq, Timer)``; fires the smallest."""

    def call_at(self, time, fn, *args):
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}")
        if probe.subscribers:
            for s in probe.subscribers:
                fn, args = s.sched_post(self, fn, args)
        timer = Timer(time, fn, args)
        self.pending_events += 1
        self.peak_pending_events = max(self.peak_pending_events,
                                       self.pending_events)
        heapq.heappush(self._heap, (time, next(self._seq), timer))
        return timer

    def post(self, fn, *args):
        self.call_at(self.now, fn, *args)

    def post_after(self, delay, fn, *args):
        self.call_after(delay, fn, *args)

    def post_at(self, time, fn, *args):
        self.call_at(time, fn, *args)

    def run(self, until=None):
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
            timer._fired = True
            timer._fn(*timer._args)
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        if probe.subscribers:
            for s in probe.subscribers:
                s.run_return(self)
        return self.now

    def peek(self):
        heap = self._heap
        while heap and not heap[0][2].active:
            heapq.heappop(heap)
            self.pending_events -= 1
        return heap[0][0] if heap else None


#: Test-id -> scheduler class; ``[reference]`` ids run the heap model.
SCHEDULERS = {"optimized": Simulator, "reference": HeapSimulator}

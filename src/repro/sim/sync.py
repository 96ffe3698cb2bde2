"""Synchronization primitives for simulated processes.

All primitives schedule wakeups *through the simulator queue* (never
synchronously), so triggering an event from inside a running process is
always safe and same-time wakeups preserve FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, NamedTuple, Optional

from . import probe

__all__ = ["Event", "Doorbell", "Lock"]


class Event:
    """A one-shot event that processes can wait on.

    ``trigger(value)`` wakes every current and future waiter with
    ``value``. Triggering twice is an error (one-shot semantics keep the
    protocols honest).
    """

    __slots__ = ("sim", "name", "triggered", "value", "_waiters", "_hb_vc")

    def __init__(self, sim, name: str = "event"):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List[Callable[[Any], None]] = []
        self._hb_vc = None

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all waiters via the event queue."""
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        if probe.subscribers:
            for s in probe.subscribers:
                s.event_trigger(self)
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim.post(waiter, value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register a callback for the trigger (fires immediately-queued
        if the event already triggered)."""
        if self.triggered:
            if probe.subscribers:
                for s in probe.subscribers:
                    s.event_replay(self)
            self.sim.post(callback, self.value)
        else:
            self._waiters.append(callback)


class Doorbell:
    """A resettable signal used to wake an idle polling thread.

    ``wait()`` hands back a fresh :class:`Event` that the caller yields
    on; ``ring()`` triggers every outstanding wait. Rings with nobody
    waiting are remembered (a single pending flag), so a poller that
    checks state, then waits, cannot miss a wakeup that raced in between:

        while True:
            work = do_all_available_work()
            if not work:
                yield doorbell.wait()     # returns at once if ring pending
    """

    __slots__ = ("sim", "name", "_pending", "_waiters", "rings", "_hb_vc",
                 "_wait_name")

    def __init__(self, sim, name: str = "doorbell"):
        self.sim = sim
        self.name = name
        self._pending = False
        self._waiters: List[Event] = []
        self.rings = 0
        self._hb_vc = None
        self._wait_name = f"{name}.wait"

    def ring(self) -> None:
        """Wake all waiters; remember the ring if nobody is waiting."""
        self.rings += 1
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for event in waiters:
                event.trigger(None)
        else:
            if probe.subscribers:
                for s in probe.subscribers:
                    s.doorbell_ring(self)
            self._pending = True

    def wait(self) -> Event:
        """Return an event that fires on the next (or a pending) ring."""
        event = Event(self.sim, name=self._wait_name)
        if self._pending:
            self._pending = False
            if probe.subscribers:
                for s in probe.subscribers:
                    s.doorbell_drain(self)
            event.trigger(None)
        else:
            self._waiters.append(event)
        return event

    @property
    def waiting(self) -> int:
        """Number of processes currently blocked on the doorbell."""
        return len(self._waiters)


class _Waiter(NamedTuple):
    """A queued acquire: the wakeup event, the claiming owner, and the
    time it started waiting. Keeping all three in ONE queue entry means
    the wakeup order and the wait-time accounting can never desync (the
    old design kept parallel deques that drifted apart on error paths).
    """

    event: Event
    owner: Any
    since: float


class Lock:
    """A FIFO mutex for simulated processes, with owner tracking.

    Usage inside a process generator::

        yield lock.acquire()
        try:
            ... critical section (may yield delays) ...
        finally:
            lock.release()

    ``held_by`` records the owning :class:`~repro.sim.process.Process`
    (defaulting to ``sim.current_process`` at acquire time) so that
    misuse — releasing an unheld lock, or releasing somebody else's
    lock — fails with holder/claimant context, and so the runtime
    sanitizer can attribute RDMA posts to the lock holder (§3.4 lock
    discipline).

    Contention statistics (`contended_acquires`, `wait_time`) feed the
    thread-synchronization experiments (paper §3.4).
    """

    __slots__ = ("sim", "name", "locked", "held_by", "held_since",
                 "_queue", "acquires", "contended_acquires", "wait_time",
                 "_last_holder", "_hb_vc", "_acquire_name")

    def __init__(self, sim, name: str = "lock"):
        self.sim = sim
        self.name = name
        self.locked = False
        #: Current owner (usually a Process), or None when free/unknown.
        self.held_by: Any = None
        #: Simulated time of the most recent ownership grant.
        self.held_since: Optional[float] = None
        self._queue: Deque[_Waiter] = deque()
        self.acquires = 0
        self.contended_acquires = 0
        self.wait_time = 0.0
        self._last_holder: Any = None
        self._hb_vc = None
        self._acquire_name = f"{name}.acquire"

    def acquire(self, owner: Any = None) -> Event:
        """Return an event that fires once the lock is held by the caller.

        ``owner`` defaults to the simulated process currently running
        (``sim.current_process``); pass an explicit token when acquiring
        from plain-callback context.
        """
        if owner is None:
            owner = self.sim.current_process
        self.acquires += 1
        event = Event(self.sim, name=self._acquire_name)
        if not self.locked and not self._queue:
            self._grant(owner)
            event.trigger(None)
        else:
            self.contended_acquires += 1
            self._queue.append(_Waiter(event, owner, self.sim.now))
        return event

    def acquire_nowait(self, owner: Any = None) -> bool:
        """Grab the lock immediately if free; return True on success.

        Equivalent to :meth:`acquire` in the uncontended case but with no
        Event allocation and no scheduler round-trip — the caller already
        holds the lock when this returns True (same grant instant, same
        ``lock_grant`` probe, same accounting). On False the caller must fall
        back to ``yield lock.acquire()``; nothing was counted.
        """
        if self.locked or self._queue:
            return False
        if owner is None:
            owner = self.sim.current_process
        self.acquires += 1
        # _grant(owner), in place: this is the polling thread's per-pass
        # acquire, and the lock is free, so held_by is None.
        self.locked = True
        self.held_by = owner
        self.held_since = self.sim.now
        if probe.subscribers:
            for s in probe.subscribers:
                s.lock_grant(self, owner)
        return True

    def release(self, owner: Any = None) -> None:
        """Release the lock, handing it to the next queued waiter (FIFO).

        ``owner`` defaults to the current simulated process. Releasing an
        unheld lock raises; so does releasing a lock whose tracked holder
        is a *different* process (both raise with holder/claimant context
        — silent double releases are exactly the §3.4 bugs that stay
        invisible until scale).
        """
        if owner is None:
            owner = self.sim.current_process
        if not self.locked:
            raise RuntimeError(
                f"lock {self.name!r} released while not held "
                f"(claimant: {self._describe(owner)}, "
                f"last holder: {self._describe(self._last_holder)})"
            )
        if (owner is not None and self.held_by is not None
                and owner is not self.held_by):
            raise RuntimeError(
                f"lock {self.name!r} released by non-owner "
                f"(claimant: {self._describe(owner)}, "
                f"holder: {self._describe(self.held_by)})"
            )
        if probe.subscribers:
            for s in probe.subscribers:
                s.lock_release(self, self.held_by)
        while self._queue:
            waiter = self._queue.popleft()
            if waiter.event.triggered:
                # Defensive: a waiter whose event was triggered out of
                # band no longer needs the lock; skip it rather than
                # corrupting the hand-off (and don't count its wait).
                continue
            self.wait_time += self.sim.now - waiter.since
            self._grant(waiter.owner)
            waiter.event.trigger(None)  # lock stays 'locked': ownership transfers
            return
        self.locked = False
        self._last_holder = self.held_by
        self.held_by = None
        self.held_since = None

    # ----------------------------------------------------------- internals

    def _grant(self, owner: Any) -> None:
        self.locked = True
        self._last_holder = self.held_by if self.held_by is not None else self._last_holder
        self.held_by = owner
        self.held_since = self.sim.now
        if probe.subscribers:
            for s in probe.subscribers:
                s.lock_grant(self, owner)

    @staticmethod
    def _describe(owner: Any) -> str:
        if owner is None:
            return "<unknown>"
        name = getattr(owner, "name", None)
        return repr(name) if name is not None else repr(owner)

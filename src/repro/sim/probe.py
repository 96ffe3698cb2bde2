"""The kernel's one instrumentation surface: a subscriber list.

A *site* is a point in the kernel an observer needs to see. Each reads

    if probe.subscribers:
        for s in probe.subscribers:
            s.lock_release(self, owner)

so an unobserved run pays one truthiness test per site: no call, no
simulated time, no fingerprint change. An observer subclasses
:class:`Probe`, overrides the sites it needs and attaches with
:func:`subscribe` or the ``with``-form :func:`subscribed`. The list is
process-wide because the sites are: a subscriber sees every simulator
in the process until it unsubscribes. docs/ENGINE.md ("Probes") has
the table of sites, who subscribes, and what is deliberately not one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Tuple

__all__ = ["Probe", "subscribers", "subscribe", "unsubscribe", "subscribed"]


class Probe:
    """A subscriber: one method per site, each a no-op by default."""

    def sched_post(self, sim: Any, fn: Callable[..., Any],
                   args: Tuple[Any, ...]) -> Tuple[Callable[..., Any],
                                                   Tuple[Any, ...]]:
        """``call_at`` / ``post`` / ``post_at``, before enqueueing.
        Interposing: what it returns is enqueued, so a subscriber can
        carry state from the scheduling context to the fire context."""
        return fn, args

    def run_return(self, sim: Any) -> None:
        """``Simulator.run`` is about to return to its caller."""

    def lock_grant(self, lock: Any, owner: Any) -> None:
        """``owner`` now holds ``lock`` (uncontended, nowait or hand-off)."""

    def lock_release(self, lock: Any, owner: Any) -> None:
        """``owner`` releases ``lock``, before any hand-off."""

    def event_trigger(self, event: Any) -> None:
        """``Event.trigger``, before the waiters are posted."""

    def event_replay(self, event: Any) -> None:
        """A waiter arrived after the trigger; its wakeup is posted next."""

    def doorbell_ring(self, doorbell: Any) -> None:
        """A ring with nobody waiting: it is remembered, not delivered."""

    def doorbell_drain(self, doorbell: Any) -> None:
        """``Doorbell.wait`` consumes a remembered ring."""

    def process_kill(self, process: Any) -> None:
        """A live process is killed; it never runs again."""

    def sst_set(self, sst: Any, col: int, spec: Any) -> None:
        """After ``SST.set`` wrote ``col`` (``spec`` is its ColumnSpec)."""

    def sst_read(self, sst: Any, owner: int) -> None:
        """``read`` / ``read_span`` / ``column`` reads peer ``owner``'s
        row: once per foreign row per call, before the read."""

    def sst_push(self, sst: Any, col_lo: int, col_hi: int, dst: int) -> None:
        """After ``SST.push`` posted ``[col_lo, col_hi)`` to ``dst``."""

    def nic_post(self, qp: Any, snap: Any) -> None:
        """``QueuePair.post_write`` accepted a write (source alive),
        before the fault decision."""

    def nic_receive(self, region: Any, snap: Any) -> None:
        """A remote write was applied to ``region``, before the node's
        ``on_remote_write`` completion path runs."""

    def thread_created(self, thread: Any) -> None:
        """A ``PredicateThread`` finished construction."""


#: Every attached subscriber, in attachment order. Empty unless a
#: sanitizer, tracker or test asked to look.
subscribers: List[Probe] = []


def subscribe(sub: Probe) -> None:
    """Attach ``sub`` to every site, after those already attached."""
    subscribers.append(sub)


def unsubscribe(sub: Probe) -> None:
    """Detach ``sub`` (raises ``ValueError`` if it is not attached)."""
    subscribers.remove(sub)


@contextmanager
def subscribed(sub: Probe) -> Iterator[Probe]:
    """``with subscribed(sub):`` — attached for the block, detached
    after it whatever the block raises."""
    subscribe(sub)
    try:
        yield sub
    finally:
        unsubscribe(sub)

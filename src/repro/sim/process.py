"""Generator-based simulated processes.

A process is a Python generator driven by the :class:`~repro.sim.engine.
Simulator`. The generator expresses the passage of simulated time and
synchronization by *yielding*:

======================  ====================================================
yielded value           meaning
======================  ====================================================
``float | int`` >= 0    sleep for that many simulated seconds
:class:`Event`          wait until the event triggers; ``yield`` evaluates
                        to the event's value
:class:`Process`        join: wait until that process finishes; evaluates
                        to its result
``None``                re-schedule immediately (cooperative yield point)
:class:`AtTime`         sleep until an exact absolute timestamp (used by
                        fast paths that fold several sleeps into one wake)
======================  ====================================================

Exceptions raised inside a process propagate out of ``Simulator.run`` —
a crashing process crashes the simulation, which is the behaviour we want
in tests. A process killed with :meth:`Process.kill` simply never resumes
(used for failure injection at the node level).

A process may also be *suspended* (:meth:`Process.suspend`): its next
resumption — timer expiry, event trigger, join — is deferred until
:meth:`Process.resume`. This models GC-like hiccups and scheduler
stalls for the fault-injection plane (docs/FAULTS.md): the thread is
frozen mid-flight without losing the value it was waiting for.
"""

from __future__ import annotations

from typing import Any, Generator

from . import probe
from .engine import AtTime, SimulationError, Simulator
from .sync import Event

__all__ = ["Process"]


class Process:
    """A simulated thread of control.

    Create via :meth:`Simulator.spawn`. The ``completion`` event triggers
    with the generator's return value when it finishes.
    """

    __slots__ = ("sim", "name", "_gen", "_alive", "result", "completion",
                 "_suspended", "_deferred")

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str = "proc"):
        if not hasattr(gen, "send"):
            raise SimulationError(f"Process requires a generator, got {type(gen)!r}")
        self.sim = sim
        self.name = name
        self._gen = gen
        self._alive = True
        self._suspended = False
        #: Resumption deferred while suspended: a 1-tuple holding the
        #: value the generator should be sent on resume (None = none).
        self._deferred = None
        self.result: Any = None
        self.completion = Event(sim, name=f"{name}.completion")
        sim.post(self._step, None)

    # ----------------------------------------------------------------- state

    @property
    def alive(self) -> bool:
        """True while the process can still run."""
        return self._alive

    @property
    def suspended(self) -> bool:
        """True while the process is frozen by :meth:`suspend`."""
        return self._suspended

    def kill(self) -> None:
        """Stop the process permanently; it will never be resumed.

        Used for failure injection: a 'crashed' node's threads are killed,
        and any events that later try to resume them are ignored.
        """
        if self._alive:
            self._alive = False
            self._deferred = None
            if probe.subscribers:
                for s in probe.subscribers:
                    s.process_kill(self)
            self._gen.close()

    # ------------------------------------------------------------ suspension

    def suspend(self) -> None:
        """Freeze the process: its next resumption is deferred.

        A process has at most one outstanding resumption (it waits on
        exactly one timer/event at a time), so deferral needs only a
        single slot. Idempotent; a dead process cannot be suspended.
        """
        if self._alive:
            self._suspended = True

    def resume(self) -> None:
        """Unfreeze a suspended process.

        If a resumption arrived while frozen, it is re-scheduled *now*
        (the stall extends the wait, exactly like a real descheduled
        thread). No-op if the process was not suspended or is dead.
        """
        if not self._suspended:
            return
        self._suspended = False
        if self._deferred is not None and self._alive:
            (value,) = self._deferred
            self._deferred = None
            self.sim.post(self._step, value)

    # ------------------------------------------------------------- execution

    def _step(self, value: Any) -> None:
        """Advance the generator by one yield and schedule the next
        resumption — in this one frame for the sleeps that dominate the
        hot loop (docs/ENGINE.md, "Cost per event")."""
        if not self._alive:
            return
        if self._suspended:
            self._deferred = (value,)
            return
        sim = self.sim
        previous = sim.current_process
        sim.current_process = self
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self.result = stop.value
            self.completion.trigger(stop.value)
            return
        finally:
            sim.current_process = previous
        # Exact-type checks: plain float/int sleeps and AtTime wakes
        # never need a cancellation handle, so they go straight to the
        # simulator's no-Timer post path.
        cls = yielded.__class__
        if cls is float or cls is int:
            if not yielded >= 0:  # negative or NaN
                raise SimulationError(
                    f"process {self.name!r} yielded invalid delay {yielded}"
                )
            sim.post_at(sim.now + yielded, self._step, None)
        elif cls is AtTime:
            # A process stalled past its target time wakes immediately:
            # "at t" with t already gone means "as soon as possible"
            # (chaos stalls suspend threads across arbitrary windows).
            time = yielded.time
            now = sim.now
            sim.post_at(time if time > now else now, self._step, None)
        else:
            self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        """Schedule the next resumption for the rarer yieldables."""
        if isinstance(yielded, Event):
            yielded.add_waiter(self._step)
        elif yielded is None:
            self.sim.post(self._step, None)
        elif isinstance(yielded, Process):
            yielded.completion.add_waiter(self._step)
        elif isinstance(yielded, (int, float)):  # bool / numeric subclasses
            if not yielded >= 0:
                raise SimulationError(
                    f"process {self.name!r} yielded invalid delay {yielded}"
                )
            self.sim.post_after(float(yielded), self._step, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state} @{self.sim.now:.9f}>"

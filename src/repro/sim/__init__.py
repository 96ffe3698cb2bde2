"""Deterministic discrete-event simulation kernel.

This subpackage is the substrate on which the RDMA fabric, Derecho
protocol stack and Spindle optimizations run. It provides:

* :class:`~repro.sim.engine.Simulator` — event heap + simulated clock.
* :class:`~repro.sim.process.Process` — generator-coroutine threads.
* :class:`~repro.sim.sync.Event` / :class:`~repro.sim.sync.Doorbell` /
  :class:`~repro.sim.sync.Lock` — synchronization primitives.
* :mod:`~repro.sim.probe` — the subscriber list every kernel site
  reports to (the sanitizer; docs/ENGINE.md).
* :mod:`~repro.sim.units` — µs/GB literal helpers.
"""

from .engine import AtTime, SimulationError, Simulator, Timer
from .process import Process
from .sync import Doorbell, Event, Lock
from . import probe, units

__all__ = [
    "Simulator",
    "SimulationError",
    "Timer",
    "AtTime",
    "Process",
    "Event",
    "Doorbell",
    "Lock",
    "probe",
    "units",
]

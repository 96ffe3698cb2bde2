"""Runtime sanitizer: assert the paper's invariants on every RDMA post.

The static passes catch the *lexical* shape of violations; this module
catches the *dynamic* ones — the silent-until-scale bugs of RDMA
protocols. Three checks:

* **Lock discipline (§3.4)** — when ``early_lock_release`` is on, no
  RDMA write may be posted by a process that still holds the shared
  predicate lock. Detected via ``Lock.held_by`` (owner tracking) and
  ``Simulator.current_process`` at post time, at both the ``sst_push``
  and the ``nic_post`` probe (raw verbs and RDMC traffic included).
* **SST monotonicity (§2.2)** — the counter/flag columns of the local
  row must never regress between consecutive pushes covering them.
  A regression means somebody bypassed ``SST.set``.
* **Event-model reporting** — every violation is recorded as a
  :class:`~repro.analysis.trace.TraceEvent` (``kind="sanitize.*"``),
  optionally forwarded to an attached
  :class:`~repro.analysis.trace.Tracer`, and raised as
  :class:`SanitizerError` in strict mode.

A sanitizer is a :class:`~repro.sim.probe.Probe` subscriber: it checks
every simulator in the process while subscribed, and holds the threads
and tables it has seen only weakly, so a dropped cluster costs nothing.
Every test run has one subscribed for the whole session
(tests/conftest.py), and ``spindle-repro chaos`` one for each run; to
watch a run by hand, subscribe one before the cluster is built::

    with probe.subscribed(Sanitizer()) as san:
        ... build and run ...
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Tuple

from ...sim import probe
from ..trace import TraceEvent

__all__ = ["Sanitizer", "SanitizerError", "enable_global",
           "disable_global", "global_sanitizer"]


class SanitizerError(AssertionError):
    """An invariant the protocol stack depends on was violated."""


class Sanitizer(probe.Probe):
    """Records and (optionally) raises on runtime invariant violations."""

    def __init__(self, strict: bool = True, tracer: Any = None):
        self.strict = strict
        self.tracer = tracer
        #: All violations observed, as TraceEvents (kind='sanitize.*').
        self.violations: List[TraceEvent] = []
        self.checks_run = 0
        #: simulator -> weak refs to its PredicateThreads, in
        #: construction order. A thread refers to its simulator, so the
        #: values must be weak too or no entry could ever die.
        self._threads: "weakref.WeakKeyDictionary[Any, List[weakref.ref]]" = (
            weakref.WeakKeyDictionary())
        #: SST -> {col: last pushed value} for counter/flag columns.
        self._shadows: "weakref.WeakKeyDictionary[Any, Dict[int, Any]]" = (
            weakref.WeakKeyDictionary())

    # ------------------------------------------------------------- probes

    def thread_created(self, thread: Any) -> None:
        self._threads.setdefault(thread.sim, []).append(weakref.ref(thread))

    def sst_push(self, sst: Any, col_lo: int, col_hi: int,
                 dst: int) -> None:
        self.checks_run += 1
        sim = sst.fabric.sim
        self._check_lock_discipline(
            sim, sst.node_id,
            f"sst.push cols[{col_lo},{col_hi}) -> node {dst}",
        )
        self._check_monotonic(sim, sst, col_lo, col_hi)

    def nic_post(self, qp: Any, snap: Any) -> None:
        self.checks_run += 1
        self._check_lock_discipline(
            qp.src.sim, qp.src.node_id,
            f"post_write {snap.size_bytes}B {qp.src.node_id}->"
            f"{qp.dst.node_id}",
        )

    # ------------------------------------------------------------- checks

    def _check_lock_discipline(self, sim: Any, node_id: int,
                               what: str) -> None:
        poster = getattr(sim, "current_process", None)
        if poster is None:
            return
        for ref in self._threads.get(sim, ()):
            thread = ref()
            if thread is None:
                continue
            if not getattr(thread.config, "early_lock_release", False):
                continue  # baseline config: posting under the lock is the point
            lock = thread.lock
            if lock.locked and lock.held_by is poster:
                self._violation(
                    sim, node_id, "lock-discipline",
                    f"{what} posted while holding {lock.name!r} "
                    f"(early_lock_release=True demands release-then-post, "
                    f"paper §3.4)",
                )

    def _check_monotonic(self, sim: Any, sst: Any, col_lo: int,
                         col_hi: int) -> None:
        from ...sst.fields import COUNTER, FLAG

        shadow = self._shadows.setdefault(sst, {})
        for col in range(col_lo, col_hi):
            spec = sst.layout.spec(col)
            if spec.kind not in (COUNTER, FLAG):
                continue
            value = sst.read_own(col)
            prev = shadow.get(col)
            if prev is not None:
                regressed = (
                    (spec.kind == COUNTER and value < prev)
                    or (spec.kind == FLAG and bool(prev) and not value)
                )
                if regressed:
                    self._violation(
                        sim, sst.node_id, "monotonicity",
                        f"{spec.kind} column {spec.name!r} regressed "
                        f"across pushes: {prev!r} -> {value!r} "
                        f"(batched acks/§3.4 are unsound; some write "
                        f"bypassed SST.set)",
                    )
            shadow[col] = value

    # ---------------------------------------------------------- reporting

    def _violation(self, sim: Any, node: int, kind: str,
                   detail: str) -> None:
        event = TraceEvent(sim.now, node, f"sanitize.{kind}", detail)
        self.violations.append(event)
        if self.tracer is not None:
            self.tracer.record(event.time, event.node, event.kind,
                               event.detail)
        if self.strict:
            raise SanitizerError(str(event))

    def watched(self) -> Tuple[int, int]:
        """``(SSTs with a push shadow, predicate threads)`` still alive."""
        threads = sum(ref() is not None
                      for refs in self._threads.values() for ref in refs)
        return len(self._shadows), threads

    def report(self) -> str:
        """Human-readable summary of the run."""
        ssts, threads = self.watched()
        lines = [
            f"sanitizer: {self.checks_run} checks, "
            f"{len(self.violations)} violation(s), "
            f"{ssts} SST(s), {threads} thread(s) live"
        ]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)


# ==========================================================================
# Global (process-wide) installation — the test session's sanitizer
# ==========================================================================

_GLOBAL: Optional[Sanitizer] = None


def global_sanitizer() -> Optional[Sanitizer]:
    """The installed process-wide sanitizer, if any."""
    return _GLOBAL


def enable_global(strict: bool = True, tracer: Any = None) -> Sanitizer:
    """Subscribe a process-wide sanitizer: every thread, SST and NIC
    built afterwards is checked — this is how the test session covers
    every test without touching individual tests. Idempotent."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = Sanitizer(strict=strict, tracer=tracer)
        probe.subscribe(_GLOBAL)
    return _GLOBAL


def disable_global() -> Optional[Sanitizer]:
    """Undo :func:`enable_global`; returns the sanitizer for inspection."""
    global _GLOBAL
    sanitizer, _GLOBAL = _GLOBAL, None
    if sanitizer is not None:
        probe.unsubscribe(sanitizer)
    return sanitizer

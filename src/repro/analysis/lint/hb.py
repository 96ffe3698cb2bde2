"""Vector-clock happens-before tracker (spindle-check pass 3, runtime).

The static lockset pass (:mod:`.lockset`) over-approximates: name-based
call resolution can conjure paths that never execute, and lock identity
by name can merge distinct locks.  This tracker is its dynamic
counterpart — it observes *actual* sanitized test runs and reports
write-write races that really happened under the simulated schedule, so
each side's false positives are audited by the other
(:meth:`HBTracker.cross_check`).

How the partial order is built
------------------------------
Every simulated thread of control (a :class:`~repro.sim.process.Process`
or a plain scheduled callback) is a *context* with a vector clock.
Happens-before edges come from the kernel's probe sites
(:mod:`repro.sim.probe`; the tracker is a subscriber):

* **scheduling** — every scheduling call passes its ``(fn, args)``
  through :meth:`~repro.sim.probe.Probe.sched_post`; the tracker
  snapshots the scheduling context's clock and joins it into the fire
  context.  This single edge source covers ``spawn``, ``yield delay``,
  ``Event.trigger`` wakeups and doorbell rings with waiters — they all
  go through the event queue.
* **locks** — ``release`` joins the holder's clock into the lock,
  ``_grant`` joins the lock's clock into the new owner, so two critical
  sections under one lock are ordered even when the hand-off is
  uncontended (no scheduler edge exists then).
* **late waiters / pending rings** — an :class:`~repro.sim.sync.Event`
  that triggered before its waiter arrived, and a
  :class:`~repro.sim.sync.Doorbell` rung while nobody waited, park the
  trigger/ring clock on the primitive and join it into the consumer.

Accesses are recorded at the SST write point (``SST.set``) and on any
object instrumented with :meth:`HBTracker.watch_object`.  Per location
the tracker keeps one last-write clock per context; a new write races
with a prior write by another context unless the prior clock is ≤ the
writer's current clock.  Two writes under a common lock can never be
flagged — the lock edges order them by construction.

Enable for a test run with ``SPINDLE_HB=1`` (tests/conftest.py), or by
hand::

    tracker = enable_hb()
    ... run simulation ...
    assert not tracker.unexplained_races()
    disable_hb()

Soundness caveats (docs/CHECK.md): the tracker sees one schedule per
seed — absence of a reported race is not absence of a race; and it only
watches locations that are instrumented.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ...sim import probe

__all__ = ["VectorClock", "Race", "HBTracker", "enable_hb", "disable_hb",
           "global_tracker"]


class VectorClock:
    """A mapping context-id -> counter with join/tick/ordering."""

    __slots__ = ("clocks",)

    def __init__(self, clocks: Optional[Dict[int, int]] = None):
        self.clocks: Dict[int, int] = dict(clocks) if clocks else {}

    def tick(self, ctx_id: int) -> None:
        self.clocks[ctx_id] = self.clocks.get(ctx_id, 0) + 1

    def join(self, other: "VectorClock") -> None:
        for ctx_id, count in other.clocks.items():
            if count > self.clocks.get(ctx_id, 0):
                self.clocks[ctx_id] = count

    def copy(self) -> "VectorClock":
        return VectorClock(self.clocks)

    def __le__(self, other: "VectorClock") -> bool:
        """True iff every component is <= other's (happened-before-or-
        equal; incomparable clocks mean concurrency)."""
        return all(count <= other.clocks.get(ctx_id, 0)
                   for ctx_id, count in self.clocks.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self.clocks.items()))
        return "{" + inner + "}"


@dataclass(eq=False)  # identity semantics: contexts are unique objects
class _Ctx:
    """One simulated thread of control (process or plain callback)."""

    ctx_id: int
    name: str
    vc: VectorClock = field(default_factory=VectorClock)
    locks: FrozenSet[str] = frozenset()


@dataclass
class _Access:
    """Last recorded write to one location by one context."""

    ctx_id: int
    ctx_name: str
    vc: VectorClock
    time: float
    locks: FrozenSet[str]


@dataclass
class Race:
    """Two writes to the same location with incomparable clocks."""

    label: str              # location scope, e.g. "sim0:SST@n2"
    attr: str               # attribute / column name
    first: _Access
    second: _Access
    explanation: Optional[str] = None

    def render(self) -> str:
        tail = f" [explained: {self.explanation}]" if self.explanation else ""
        return (f"race on {self.label}.{self.attr}: "
                f"{self.first.ctx_name}@{self.first.time:.9f} "
                f"(locks={sorted(self.first.locks)}) || "
                f"{self.second.ctx_name}@{self.second.time:.9f} "
                f"(locks={sorted(self.second.locks)}){tail}")


class HBTracker(probe.Probe):
    """Collects happens-before state and the resulting race report.

    One tracker at a time: the clocks it parks on locks, events,
    doorbells and regions live in those objects' ``_hb_vc`` slot.
    """

    def __init__(self, strict: bool = False):
        #: Raise on the first unexplained race instead of collecting.
        self.strict = strict
        self.races: List[Race] = []
        self.accesses_recorded = 0
        self._ids = itertools.count(1)
        self._ctxs: Dict[Any, _Ctx] = {}
        self._main = _Ctx(0, "<main>")
        self._cur: _Ctx = self._main
        self._cur_sim: Optional[Any] = None
        #: location -> ctx_id -> last write (dominated entries pruned).
        self._locations: Dict[Tuple[str, str], Dict[int, _Access]] = {}
        #: clock to merge into the very next snapshot (set by
        #: ``event_replay`` / ``doorbell_drain`` just before the kernel
        #: schedules / triggers).
        self._extra: Optional[VectorClock] = None
        self._sims: Dict[Any, int] = {}
        #: per-sim set of contexts that ran since the last run() return;
        #: joined into the run() caller when it regains control.
        self._dirty: Dict[Any, set] = {}
        #: SST object -> incarnation index.  Each view registers fresh
        #: memory (§2.3), so two epochs' tables are different variables
        #: even on the same node — without this, an old epoch's writes
        #: would look like races against the new epoch's.
        self._sst_incarnations: Dict[Any, int] = {}
        #: (label substring, attr substring, reason) allow-list.
        self._explanations: List[Tuple[str, str, str]] = []

    # ------------------------------------------------------------ contexts

    def _ctx_of(self, key: Any) -> _Ctx:
        if key is None:
            return self._cur
        ctx = self._ctxs.get(key)
        if ctx is None:
            name = getattr(key, "name", None) or repr(key)
            ctx = _Ctx(next(self._ids), name)
            self._ctxs[key] = ctx
        return ctx

    def _snapshot(self) -> VectorClock:
        snap = self._cur.vc.copy()
        if self._extra is not None:
            snap.join(self._extra)
            self._extra = None
        return snap

    def _sim_scope(self, sim: Any) -> str:
        if sim is None:
            return "sim?"
        idx = self._sims.get(sim)
        if idx is None:
            idx = len(self._sims)
            self._sims[sim] = idx
        return f"sim{idx}"

    # ------------------------------------------------------- probe sites

    def sched_post(self, sim: Any, fn: Any, args: Tuple[Any, ...]):
        """Wrap ``fn`` so the fire context joins the scheduling
        context's clock snapshot."""
        snap = self._snapshot()
        bound = getattr(fn, "__self__", None)
        # Processes keep one long-lived context across steps; anything
        # else (plain callback) becomes a fresh context for the duration
        # of the call, seeded with the scheduler's snapshot.
        if bound is not None and hasattr(bound, "_gen"):
            ctx = self._ctx_of(bound)

            def fire(*a: Any) -> None:
                ctx.vc.join(snap)
                prev, prev_sim = self._cur, self._cur_sim
                self._cur, self._cur_sim = ctx, sim
                try:
                    fn(*a)
                finally:
                    self._cur, self._cur_sim = prev, prev_sim
                    self._dirty.setdefault(sim, set()).add(ctx)
        else:
            name = getattr(fn, "__qualname__", None) or repr(fn)

            def fire(*a: Any) -> None:
                ctx = _Ctx(next(self._ids), f"<cb {name}>",
                           vc=snap.copy())
                prev, prev_sim = self._cur, self._cur_sim
                self._cur, self._cur_sim = ctx, sim
                try:
                    fn(*a)
                finally:
                    self._cur, self._cur_sim = prev, prev_sim
                    self._dirty.setdefault(sim, set()).add(ctx)
        return fire, args

    def run_return(self, sim: Any) -> None:
        """The run() caller (usually test code between ``run`` calls)
        is causally after every context that executed during the run;
        without this edge its next actions would race with them."""
        dirty = self._dirty.get(sim)
        if dirty:
            for ctx in dirty:
                self._cur.vc.join(ctx.vc)
            dirty.clear()

    def lock_release(self, lock: Any, owner: Any) -> None:
        holder = self._ctx_of(owner)
        if lock._hb_vc is None:
            lock._hb_vc = holder.vc.copy()
        else:
            lock._hb_vc.join(holder.vc)
        holder.locks = holder.locks - {lock.name}

    def lock_grant(self, lock: Any, owner: Any) -> None:
        ctx = self._ctx_of(owner)
        if lock._hb_vc is not None:
            ctx.vc.join(lock._hb_vc)
        ctx.locks = ctx.locks | {lock.name}

    def event_trigger(self, event: Any) -> None:
        event._hb_vc = self._snapshot()

    def event_replay(self, event: Any) -> None:
        """The one wakeup that does not carry the trigger context
        through the scheduler: the waiter arrived after the trigger."""
        if event._hb_vc is not None:
            self._extra = event._hb_vc

    def doorbell_ring(self, doorbell: Any) -> None:
        """A ring with nobody waiting leaves no event behind, so the
        ringer's clock is parked on the doorbell for the drain."""
        snap = self._snapshot()
        if doorbell._hb_vc is None:
            doorbell._hb_vc = snap
        else:
            doorbell._hb_vc.join(snap)

    def doorbell_drain(self, doorbell: Any) -> None:
        if doorbell._hb_vc is not None:
            self._extra = doorbell._hb_vc
            doorbell._hb_vc = None

    def process_kill(self, process: Any) -> None:
        # Joining the victim's clock into the killer makes the kill a
        # synchronization point: the victim never runs again, so its
        # past is ordered before the killer's future (this is what
        # orders a node's two incarnations across a crash-restart).
        victim = self._ctxs.get(process)
        if victim is not None:
            self._cur.vc.join(victim.vc)

    def nic_receive(self, region: Any, snap: Any) -> None:
        """Park the (transitively, the poster's) clock on the written
        region replica — the delivery callback's context already
        inherited the poster's snapshot through the scheduler edge
        chain."""
        vc = getattr(region, "_hb_vc", None)
        if vc is None:
            region._hb_vc = self._cur.vc.copy()
        else:
            vc.join(self._cur.vc)

    def sst_read(self, sst: Any, owner: int) -> None:
        """A monotonic read of a peer's row picks up whatever causal
        past its last remote write carried (§2.2 — one-sided reads are
        the SST's synchronization mechanism).  The join is idempotent,
        so one per foreign row per scan is enough."""
        vc = getattr(sst.rows[owner], "_hb_vc", None)
        if vc is not None:
            self._cur.vc.join(vc)

    def sst_set(self, sst: Any, col: int, spec: Any) -> None:
        """The SST write point is where cross-thread races on shared
        protocol state become visible."""
        sim = getattr(getattr(sst, "fabric", None), "sim", None)
        # Concurrent writes to a FLAG column are always False->True and
        # idempotent — the paper's §2.2 monotonicity argument makes them
        # safe without locks, so a write-write race there is benign by
        # construction (still recorded, auto-explained).
        note = None
        if getattr(spec, "kind", None) == "flag":
            note = "monotonic flag: concurrent True writes are idempotent (§2.2)"
        incarnation = self._sst_incarnations.setdefault(
            sst, len(self._sst_incarnations))
        self.record_access(f"SST#{incarnation}@n{sst.node_id}", spec.name,
                           sim=sim, note=note)

    # ------------------------------------------------------------ accesses

    def record_access(self, label: str, attr: str, sim: Any = None,
                      note: Optional[str] = None) -> None:
        """Record a write to ``label.attr`` by the current context and
        flag it if it is concurrent with another context's last write.
        ``note`` is an auto-explanation for races at this location
        (benign-by-construction access classes)."""
        self.accesses_recorded += 1
        ctx = self._cur
        ctx.vc.tick(ctx.ctx_id)
        scope = f"{self._sim_scope(sim if sim is not None else self._cur_sim)}:{label}"
        loc = self._locations.setdefault((scope, attr), {})
        access = _Access(ctx.ctx_id, ctx.name, ctx.vc.copy(),
                         getattr(sim or self._cur_sim, "now", 0.0) or 0.0,
                         ctx.locks)
        for other_id in sorted(loc):
            prior = loc[other_id]
            if other_id == ctx.ctx_id:
                continue
            if prior.vc <= ctx.vc:
                del loc[other_id]  # ordered before us: no longer racy
                continue
            self._report(scope, attr, prior, access, note)
        loc[ctx.ctx_id] = access

    def watch_object(self, obj: Any, attrs: Optional[Iterable[str]] = None,
                     label: Optional[str] = None, sim: Any = None) -> Any:
        """Instrument ``obj`` so attribute writes are recorded.

        Swaps in a dynamic subclass overriding ``__setattr__``; watch
        only ``attrs`` if given, every attribute otherwise.  Returns
        ``obj`` for chaining.
        """
        tracker = self
        base = type(obj)
        watched = None if attrs is None else frozenset(attrs)
        scope_label = label or base.__name__

        class _Watched(base):  # type: ignore[misc, valid-type]
            def __setattr__(self, name: str, value: Any) -> None:
                base.__setattr__(self, name, value)
                if watched is None or name in watched:
                    tracker.record_access(scope_label, name, sim=sim)

        _Watched.__name__ = f"Watched{base.__name__}"
        _Watched.__qualname__ = _Watched.__name__
        obj.__class__ = _Watched
        return obj

    # ------------------------------------------------------------- report

    def explain(self, label_sub: str, attr_sub: str, reason: str) -> None:
        """Allow-list races whose scope contains ``label_sub`` and attr
        contains ``attr_sub`` — they are still recorded, but marked
        explained and excluded from :meth:`unexplained_races`."""
        self._explanations.append((label_sub, attr_sub, reason))
        for race in self.races:
            if race.explanation is None:
                race.explanation = self._match_explanation(race.label,
                                                          race.attr)

    def _match_explanation(self, label: str, attr: str) -> Optional[str]:
        for label_sub, attr_sub, reason in self._explanations:
            if label_sub in label and attr_sub in attr:
                return reason
        return None

    def _report(self, scope: str, attr: str, first: _Access,
                second: _Access, note: Optional[str] = None) -> None:
        race = Race(scope, attr, first, second,
                    explanation=note or self._match_explanation(scope, attr))
        self.races.append(race)
        if self.strict and race.explanation is None:
            raise AssertionError(race.render())

    def unexplained_races(self) -> List[Race]:
        return [r for r in self.races if r.explanation is None]

    def report(self) -> str:
        lines = [f"hb: {self.accesses_recorded} writes tracked, "
                 f"{len(self._ctxs) + 1} contexts, {len(self.races)} "
                 f"race(s) ({len(self.unexplained_races())} unexplained)"]
        lines.extend(r.render() for r in self.races)
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop per-run state (between tests); keeps explanations."""
        self.races.clear()
        self._locations.clear()
        self._ctxs.clear()
        self._sims.clear()
        self._main = _Ctx(0, "<main>")
        self._cur = self._main
        self._cur_sim = None
        self._extra = None
        self._dirty.clear()
        self._sst_incarnations.clear()

    # --------------------------------------------------------- cross-check

    def cross_check(self, findings: Iterable[Any]) -> Dict[str, List[Any]]:
        """Join runtime races against static lockset findings.

        A race *corroborates* a finding when they name the same
        attribute (race attr vs. the ``Class.attr`` in the finding's
        message).  Returns ``{"corroborated": [(race, [finding, ...])],
        "runtime_only": [race], "static_only": [finding]}`` — the
        runtime-only races are static false negatives (or uninstrumented
        static true negatives); static-only findings are either false
        positives or races the observed schedules never exercised.
        """
        static = [f for f in findings
                  if getattr(f, "rule", "").startswith("lockset")]
        corroborated: List[Tuple[Race, List[Any]]] = []
        runtime_only: List[Race] = []
        matched: set = set()
        for race in self.races:
            hits = [f for f in static
                    if f".{race.attr} " in f.message
                    or f.message.endswith(f".{race.attr}")
                    or f".{race.attr}," in f.message]
            if hits:
                corroborated.append((race, hits))
                matched.update(f.fingerprint for f in hits)
            else:
                runtime_only.append(race)
        static_only = [f for f in static if f.fingerprint not in matched]
        return {"corroborated": corroborated,
                "runtime_only": runtime_only,
                "static_only": static_only}


# ==========================================================================
# Global installation — the SPINDLE_HB=1 path
# ==========================================================================

_GLOBAL: Optional[HBTracker] = None


def global_tracker() -> Optional[HBTracker]:
    """The installed process-wide tracker, if any."""
    return _GLOBAL


def enable_hb(strict: bool = False) -> HBTracker:
    """Subscribe a process-wide tracker. Idempotent."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = HBTracker(strict=strict)
        probe.subscribe(_GLOBAL)
    return _GLOBAL


def disable_hb() -> Optional[HBTracker]:
    """Undo :func:`enable_hb`; returns the tracker for inspection."""
    global _GLOBAL
    tracker, _GLOBAL = _GLOBAL, None
    if tracker is not None:
        probe.unsubscribe(tracker)
    return tracker

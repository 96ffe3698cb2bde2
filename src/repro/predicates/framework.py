"""The predicate framework: Derecho's single polling thread (paper §2.4).

One :class:`PredicateThread` per node evaluates all registered
predicates in a loop, under a shared lock that application threads also
take when queueing sends. Its behaviour embodies two of the paper's
central observations:

* All subgroups' predicates are evaluated *fairly*, so inactive
  subgroups still cost evaluation time every iteration (§4.1.3 / Fig 8).
* Whether a trigger's deferred work — its RDMA posts and, for the
  delivering triggers, the delivery stage — runs while holding the lock
  (baseline) or after releasing it (§3.4) is decided here, uniformly
  for every trigger.

Protocol code supplies :class:`Predicate` objects:

* ``evaluate()`` returns ``(cpu_cost_seconds, value)`` and must be free
  of side effects. A falsy value means "nothing to do".
* ``trigger(value)`` is a generator that performs the body under the
  lock (yielding CPU costs as it goes) and *returns* an optional
  generator of deferred work. The thread runs that work after releasing
  the lock with ``SpindleConfig.early_lock_release`` (§3.4) and before
  releasing it otherwise. The work runs its RDMA posts through
  :meth:`PredicateThread.post`, which accounts the time spent posting
  (the paper's ">30 % of predicate-thread time" metric); the rest of it
  is the predicate's own time.

When an iteration finds no work the thread parks on a doorbell, which is
rung by arriving remote writes and by local application sends — this is
the quiescence behaviour described at the end of §2.4.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.config import SpindleConfig, TimingModel
from ..metrics.stages import STAGE_OTHER_PREDICATE
from ..sim import probe
from ..sim.engine import AtTime, Simulator
from ..sim.sync import Doorbell, Lock

__all__ = ["Predicate", "PredicateThread"]


class Predicate:
    """Base class for a monotonic predicate and its trigger."""

    #: Human-readable name (shows up in accounting).
    name = "predicate"
    #: Subgroup this predicate belongs to (None for membership-level).
    subgroup: Optional[int] = None
    #: Pipeline stage for the metrics profile (docs/METRICS.md):
    #: "send_predicate" / "receive_predicate" / "delivery_predicate";
    #: membership and durability predicates stay "other_predicate".
    stage: str = STAGE_OTHER_PREDICATE

    def evaluate(self) -> Tuple[float, Any]:
        """Return (cpu_cost, value); value truthy means run the trigger."""
        raise NotImplementedError

    def trigger(self, value: Any):
        """Generator: perform the body under the lock, yielding CPU
        costs; return an optional generator of deferred work, run after
        the release under ``early_lock_release`` (its RDMA posts through
        :meth:`PredicateThread.post`)."""
        raise NotImplementedError

    def generation(self) -> Optional[Any]:
        """Memoization token covering *every* input of :meth:`evaluate`.

        Return a value that is guaranteed to change whenever evaluate()
        could return a different result — typically a tuple of local
        counters plus the sum of the watched SST rows' ``version``
        generation counters (monotone under the §2.2 write discipline).
        While the token is unchanged, the thread may reuse the last
        result instead of re-evaluating.  Return None (the default) to
        disable memoization for this predicate.
        """
        return None


class _Slot:
    """A registered predicate plus everything a pass looks up on it,
    resolved once at :meth:`PredicateThread.register`."""

    __slots__ = ("predicate", "generation", "evaluate", "subgroup",
                 "stage_time", "memo")

    def __init__(self, predicate: Predicate, thread: "PredicateThread"):
        self.predicate = predicate
        self.generation = predicate.generation
        self.evaluate = predicate.evaluate
        self.subgroup = predicate.subgroup
        #: The thread's ``[seconds, spans]`` accumulator of the
        #: predicate's stage, which every pass of this slot bills.
        self.stage_time = thread.stage_time.setdefault(predicate.stage,
                                                       [0.0, 0])
        #: Last falsy evaluation: ``(token, cost, value)``.  Sound per
        #: the §2.2 monotonicity argument in docs/ENGINE.md: an
        #: unchanged generation token implies an unchanged result.
        self.memo: Optional[Tuple[Any, float, Any]] = None


class PredicateThread:
    """The per-node polling thread plus its shared lock and doorbell."""

    def __init__(
        self,
        sim: Simulator,
        config: SpindleConfig,
        timing: TimingModel,
        name: str = "predicates",
    ):
        self.sim = sim
        self.config = config
        self.timing = timing
        self.name = name
        self.lock = Lock(sim, name=f"{name}.lock")
        self.doorbell = Doorbell(sim, name=f"{name}.bell")
        self.predicates: List[Predicate] = []
        #: ``predicates`` as the loop walks it: one :class:`_Slot` each,
        #: rebuilt (a new tuple) on register/unregister, so an iteration
        #: in flight keeps the snapshot it started with.
        self._slots: Tuple[_Slot, ...] = ()
        self._running = False
        self._process = None
        # -- accounting (mirrored by the metrics plane, docs/METRICS.md) ------
        self.iterations = 0
        #: Trigger bodies run.
        self.triggers = 0
        #: Predicate passes, and the subset answered from the memo cache
        #: without calling evaluate() (bench: predicate-eval savings).
        self.evals_total = 0
        self.evals_skipped = 0
        #: Busy and idle (parked on the doorbell) simulated seconds: the
        #: int 0 until the first iteration ends / the first wait wakes.
        self.busy_time = 0
        self.idle_time = 0
        #: Seconds spent posting RDMA writes (:meth:`post`), and the posts
        #: run: all in one lock phase, "postlock" with
        #: ``early_lock_release`` (§3.4) and "prelock" without.
        self.post_time = 0.0
        self.posts_run = 0
        #: Pipeline stage -> ``[seconds, spans]`` of the passes billed to
        #: it; with ``post_time`` these partition ``busy_time``.
        self.stage_time: Dict[str, List[Any]] = {}
        #: time spent evaluating + triggering, per subgroup id (§4.1.3).
        self.subgroup_time: Dict[Optional[int], float] = {}
        if probe.subscribers:
            for s in probe.subscribers:
                s.thread_created(self)

    # -------------------------------------------------------------- lifecycle

    def register(self, predicate: Predicate) -> None:
        """Add a predicate; evaluation order is registration order."""
        self.predicates.append(predicate)
        self._slots += (_Slot(predicate, self),)
        self.doorbell.ring()

    def unregister(self, predicate: Predicate) -> None:
        self.predicates.remove(predicate)
        self._slots = tuple(slot for slot in self._slots
                            if slot.predicate is not predicate)

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("predicate thread already started")
        self._running = True
        self._process = self.sim.spawn(self._run(), name=self.name)

    def stop(self) -> None:
        """Ask the loop to exit at its next idle check."""
        self._running = False
        self.doorbell.ring()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------- main loop

    def _run(self):
        """The polling loop. A pass takes the lock, pays ``lock_op``,
        decides at ``t_a``, pays the evaluation ``cost`` and — when the
        result is falsy — a second ``lock_op`` before releasing at
        ``t_c = (t_a + cost) + lock_op``. An uncontended pass does that
        in two scheduler turns (docs/ENGINE.md has the argument):

        * The lock is taken synchronously (:meth:`Lock.acquire_nowait`)
          and the grant plus the ``lock_op`` sleep are ONE wake at
          ``t_a = pass_start + lock_op``.
        * The evaluate/memo decision happens AT ``t_a``, never earlier:
          an SST write landing in ``(pass_start, t_a)`` is visible.
        * A falsy result sleeps ``cost`` and the trailing ``lock_op``
          as one wake at ``t_c`` (a falsy pass mutates nothing, so
          nobody can observe the instant ``t_a + cost``).
          The release at ``t_c`` is real, never folded into the next
          pass: that would allocate the next wake's seq earlier and
          flip same-timestamp ties across nodes ("why falsy runs are
          not folded further").
        * Truthy passes run the trigger body (:meth:`_fire`).

        The falsy pass — three in four at batch size ~1 — is written
        straight-line: the memo decision and the accounting are in
        place, and both wakes reuse one :class:`AtTime`
        (``Process._step`` has read ``.time`` before this generator
        runs again). A pass that finds the lock held queues for it in
        :meth:`_locked_pass`: same instants relative to the grant, one
        wake per step.
        """
        sim = self.sim
        lock = self.lock
        lock_op = self.timing.lock_op
        subgroup_time = self.subgroup_time
        wake = AtTime(0.0)
        while self._running:
            self.iterations += 1
            progressed = False
            iter_start = sim.now
            for slot in self._slots:
                # Everything from here to the end of the pass is billed
                # to this predicate's stage, minus any posting time
                # (billed to sst_post by lock phase) — together the stage
                # timers partition busy_time exactly (docs/METRICS.md).
                pass_start = sim.now
                post_before = self.post_time
                if lock.acquire_nowait(self._process):
                    t_a = pass_start + lock_op
                    wake.time = t_a
                    yield wake
                    # Memo-or-evaluate, as _locked_pass does. The lock is
                    # held: acquire_nowait is not an acquire to the static
                    # lockset pass, hence the allow.
                    self.evals_total += 1  # spindle-lint: allow[lockset-unprotected-write]
                    token = slot.generation()
                    memo = slot.memo
                    if (token is not None and memo is not None
                            and memo[0] == token):
                        self.evals_skipped += 1
                        _, cost, value = memo
                    else:
                        cost, value = slot.evaluate()
                        if token is not None and not value:
                            slot.memo = (token, cost, value)
                    if value:
                        progressed = True
                        yield from self._fire(slot, value, cost, t_a)
                    else:
                        t_e = t_a + cost
                        key = slot.subgroup
                        subgroup_time[key] = (subgroup_time.get(key, 0.0)
                                              + (t_e - t_a))
                        wake.time = t_e + lock_op
                        yield wake
                        lock.release()
                elif (yield from self._locked_pass(slot)):
                    progressed = True
                # Clamp float fuzz: a difference of sums of tiny costs
                # can come out at -1e-19 when the pass was all posting.
                elapsed = ((sim.now - pass_start)
                           - (self.post_time - post_before))
                stage_time = slot.stage_time
                stage_time[0] += elapsed if elapsed > 0 else 0.0
                stage_time[1] += 1
            self.busy_time += sim.now - iter_start
            if not progressed:
                idle_start = sim.now
                yield self.doorbell.wait()
                self.idle_time += sim.now - idle_start

    def _locked_pass(self, slot: _Slot):
        """One contended pass — queue for the lock, ``lock_op``,
        evaluate (or reuse the falsy result cached under an unchanged
        generation token), ``cost``, then the truthy body or the falsy
        release. Returns whether the trigger ran."""
        sim = self.sim
        yield self.lock.acquire()
        yield self.timing.lock_op
        pred_start = sim.now
        self.evals_total += 1
        token = slot.generation()
        memo = slot.memo
        if token is not None and memo is not None and memo[0] == token:
            self.evals_skipped += 1
            _, cost, value = memo
        else:
            cost, value = slot.evaluate()
            if token is not None and not value:
                slot.memo = (token, cost, value)
        if value:
            yield from self._fire(slot, value, cost, pred_start)
            return True
        yield cost
        self._account(slot, sim.now - pred_start)
        yield self.timing.lock_op
        self.lock.release()
        return False

    def _fire(self, slot: _Slot, value: Any, cost: float, started: float):
        """The truthy body of every pass, entered holding the lock at
        the decision instant ``started``: pay ``cost``, run the trigger,
        then release the lock and run the trigger's deferred work —
        after the release with ``early_lock_release`` (§3.4
        "postlock"), before it otherwise ("prelock"). The deferred work
        is billed to the predicate (its stage and its subgroup) except
        for the RDMA posts it runs through :meth:`post`."""
        sim = self.sim
        self.triggers += 1
        yield cost
        deferred = yield from slot.predicate.trigger(value)
        self._account(slot, sim.now - started)
        early = self.config.early_lock_release
        if early:
            yield self.timing.lock_op
            self.lock.release()
        if deferred is not None:
            start = sim.now
            posted = self.post_time
            yield from deferred
            self._account(slot, (sim.now - start) - (self.post_time - posted))
        if not early:
            yield self.timing.lock_op
            self.lock.release()

    def post(self, posts):
        """Run a trigger's RDMA posts from its deferred work, billed as
        posting: the paper's 'time spent posting RDMA writes' (§3.2),
        the ``sst_post`` stage of the thread's lock phase."""
        start = self.sim.now
        yield from posts
        self.post_time += self.sim.now - start
        self.posts_run += 1

    def _account(self, slot: _Slot, elapsed: float) -> None:
        key = slot.subgroup
        self.subgroup_time[key] = self.subgroup_time.get(key, 0.0) + elapsed

    # ------------------------------------------------------------- reporting

    def subgroup_time_fraction(self, subgroup: int) -> float:
        """Fraction of accounted predicate time spent on one subgroup."""
        total = sum(self.subgroup_time.values())
        if total == 0:
            return 0.0
        return self.subgroup_time.get(subgroup, 0.0) / total

"""Workload generators: the sending patterns of the paper's evaluation.

Each generator is a simulated-process generator to pass to
``Cluster.spawn_sender``. They correspond to §4's scenarios:

* :func:`continuous_sender` — tight-loop streaming (§4.1.1), optionally
  with a fixed busy-wait delay after every send or every N-th send
  (§4.2.1's 1 µs / 100 µs delayed senders).
* :func:`limited_sender` — sends a burst then stops forever (§4.2.1's
  "delayed indefinitely" senders).
* :func:`jittered_sender` — random inter-send gaps, for robustness and
  property tests (not a paper figure, but the "real setting, more varied
  patterns" of §4.2.2).
* :func:`open_loop_client` — Poisson arrivals with per-request
  deadline/SLO accounting (:class:`SloStats`). Unlike the closed-loop
  senders above (which self-throttle: the next send waits for the
  previous one's slot), an open-loop client keeps arriving at its rate
  regardless of service progress — the only workload shape that can
  expose queueing collapse under overload, which is exactly what the
  sharded service plane's admission control exists to prevent
  (docs/SHARDING.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.multicast import SubgroupMulticast

__all__ = ["continuous_sender", "limited_sender", "jittered_sender",
           "open_loop_client", "SloStats"]

PayloadFn = Callable[[int], Optional[bytes]]


def continuous_sender(
    mc: SubgroupMulticast,
    count: int,
    size: int,
    payload_fn: Optional[PayloadFn] = None,
    delay: float = 0.0,
    delay_every: int = 1,
    start_delay: float = 0.0,
):
    """Send ``count`` messages of ``size`` bytes as fast as possible.

    ``delay`` adds a busy-wait after every ``delay_every``-th send (the
    paper's delayed-sender experiment, §4.2.1). ``payload_fn(k)`` may
    supply real bytes for content-checking tests; None sends
    timing-only payloads. Returns early once the endpoint wedges: the
    view change wins.
    """
    if start_delay > 0:
        yield start_delay
    for k in range(count):
        payload = payload_fn(k) if payload_fn is not None else None
        try:
            yield from mc.send(size, payload)
        except RuntimeError:
            if mc.wedged:
                return  # the view change wins
            raise
        if delay > 0 and (k + 1) % delay_every == 0:
            yield delay  # busy-wait, as in the paper's delay loop
    mc.mark_finished()


def limited_sender(
    mc: SubgroupMulticast,
    count: int,
    size: int,
    payload_fn: Optional[PayloadFn] = None,
):
    """Send ``count`` messages then go silent forever ("delayed
    indefinitely", §4.2.1). Equivalent to continuous_sender but named
    for intent at call sites."""
    yield from continuous_sender(mc, count, size, payload_fn)


def jittered_sender(
    mc: SubgroupMulticast,
    count: int,
    size: int,
    rng,
    max_gap: float,
    payload_fn: Optional[PayloadFn] = None,
):
    """Send with uniformly random gaps in [0, max_gap] between sends;
    returns early once the endpoint wedges."""
    for k in range(count):
        payload = payload_fn(k) if payload_fn is not None else None
        try:
            yield from mc.send(size, payload)
        except RuntimeError:
            if mc.wedged:
                return  # the view change wins
            raise
        gap = rng.random() * max_gap
        if gap > 0:
            yield gap
    mc.mark_finished()


# ===========================================================================
# Open-loop clients (the sharded service plane's load sources)
# ===========================================================================


@dataclass
class SloStats:
    """Deadline/SLO accounting for one (or a pool of) open-loop clients.

    Latency is measured arrival-to-outcome in simulated seconds; a
    request *completes* when its generator returns. Outcomes are
    bucketed by the ``status`` attribute of whatever the request
    generator returns ("ok" / "rejected" / "timeout"; anything else —
    including plain return values from non-router requests — counts as
    ok). ``slo_misses`` additionally counts ok-completions that landed
    after their deadline (served, but too late).
    """

    submitted: int = 0
    completed: int = 0
    ok: int = 0
    rejected: int = 0
    timeouts: int = 0
    slo_misses: int = 0
    attempts: int = 0
    latencies: List[float] = field(default_factory=list)

    def record(self, status: str, latency: float,
               deadline_missed: bool = False, attempts: int = 1) -> None:
        self.completed += 1
        self.attempts += attempts
        if status == "rejected":
            self.rejected += 1
            return
        if status == "timeout":
            self.timeouts += 1
            return
        self.ok += 1
        self.latencies.append(latency)
        if deadline_missed:
            self.slo_misses += 1

    # ----------------------------------------------------------- summaries

    def percentile(self, p: float) -> float:
        """Latency percentile over ok-completions (0 when empty)."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
        return ordered[idx]

    def p50(self) -> float:
        return self.percentile(50.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "ok": self.ok,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "slo_misses": self.slo_misses,
            "attempts": self.attempts,
            "p50_latency": self.p50(),
            "p99_latency": self.p99(),
            "mean_latency": self.mean_latency(),
        }


def open_loop_client(
    sim,
    request_factory: Callable[[int], object],
    rate: float,
    count: int,
    rng,
    stats: Optional[SloStats] = None,
    deadline: Optional[float] = None,
    name: str = "client",
    max_resubmits: int = 0,
):
    """Open-loop Poisson client: arrivals at ``rate`` requests/second.

    ``request_factory(k)`` returns the k-th request *generator* (e.g.
    ``lambda k: router.request("put", key(k), value(k))``). Each arrival
    is spawned as its own simulated process, so a slow or rejected
    request never delays the next arrival — the defining property of an
    open-loop workload. ``deadline`` (seconds, relative to arrival) is
    passed to :class:`SloStats` accounting: ok-completions past it are
    SLO misses.

    Inter-arrival gaps draw from ``rng.expovariate(rate)`` — seed the
    RNG for deterministic runs, and give each client its OWN instance:
    gaps are pre-drawn in chunks (same values, same order, far fewer
    Python-level calls on the arrival hot path), so interleaving draws
    from a shared RNG would reorder another consumer's stream. Returns
    the :class:`SloStats` used (the ``stats`` argument, or a fresh one
    reachable from the generator's return value when driven to
    completion).

    ``max_resubmits`` lets a rejected request honor the router's
    ``retry_after`` hint: the per-request process sleeps the hint and
    resubmits, up to the budget, before the rejection is recorded. 0
    (the default) records the first rejection immediately.
    """
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if count < 1:
        raise ValueError("count must be positive")
    if stats is None:
        stats = SloStats()

    def one(k: int, arrived: float):
        outcome = yield from request_factory(k)
        resubmits = 0
        while (resubmits < max_resubmits
               and getattr(outcome, "status", "ok") == "rejected"
               and getattr(outcome, "retry_after", 0.0) > 0.0):
            yield outcome.retry_after
            resubmits += 1
            outcome = yield from request_factory(k)
        latency = sim.now - arrived
        status = getattr(outcome, "status", "ok")
        attempts = getattr(outcome, "attempts", 1)
        missed = deadline is not None and latency > deadline
        stats.record(status, latency, deadline_missed=missed,
                     attempts=attempts)

    # Chunked arrival loop: draw a batch of gaps at once and hoist the
    # per-arrival attribute lookups out of the loop. The gap *values*
    # and their order are identical to drawing one per arrival, and the
    # simulated arrival instants are unchanged (each gap is still one
    # sleep), so seeded runs are bit-identical to the scalar loop.
    spawn = sim.spawn
    expovariate = rng.expovariate
    chunk = 512
    k = 0
    while k < count:
        gaps = [expovariate(rate) for _ in range(min(chunk, count - k))]
        for gap in gaps:
            yield gap
            stats.submitted += 1
            spawn(one(k, sim.now), name=f"{name}.req{k}")
            k += 1
    return stats

"""The metrics registry: typed, zero-cost-when-disabled instrumentation.

A :class:`MetricsRegistry` holds four metric kinds, all identified by a
name plus a sorted label set (Prometheus-style):

* :class:`Counter` — monotonically non-decreasing totals (messages
  delivered, RDMA writes posted, drops by reason);
* :class:`Gauge` — last-written values (predicate-thread busy time,
  current view id);
* :class:`Histogram` — fixed-bucket distributions (per-stage batch
  sizes, Fig. 7; delivery latency, Figs. 5/17);
* :class:`StageTimer` — accumulated *simulated* time per pipeline stage
  (§4.1.1's "time spent posting writes" generalized to every stage).

Scoping: ``registry.scoped(node="3", subgroup="0")`` returns a view
that stamps those labels onto every metric it creates, so per-node and
per-subgroup instruments share one fabric-wide registry (reachable as
``cluster.metrics``). Scopes nest.

Zero cost when disabled: a registry built with ``enabled=False`` (or
the module-level :func:`null_registry`) hands out shared no-op metric
singletons, so instrumented hot paths pay one attribute load and a
no-op call — there is nothing to flush, snapshot, or export.

Determinism: metrics hold only simulated-time quantities; snapshots are
sorted by (name, labels), so two runs with identical (seed, config)
produce byte-identical JSON exports (tested).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "StageTimer",
    "MetricsRegistry",
    "ScopedRegistry",
    "null_registry",
    "DEFAULT_BATCH_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Batch-size buckets (messages per batch), cf. Fig. 7's x-axis.
DEFAULT_BATCH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Delivery-latency buckets in seconds (1 µs .. ~100 ms, log-ish).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(name: str, labels: LabelItems) -> str:
    """Canonical ``name{k="v",...}`` identity string (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class _Metric:
    """Common identity for the four metric kinds."""

    kind = "metric"
    __slots__ = ("name", "labels", "help")

    def __init__(self, name: str, labels: LabelItems, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def key(self) -> str:
        return format_key(self.name, self.labels)

    def sample(self) -> Dict[str, Any]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.key}>"


class Counter(_Metric):
    """A monotonically non-decreasing total (int or float)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems, help: str = ""):
        super().__init__(name, labels, help)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.key} cannot decrease by {amount}")
        self.value += amount

    def set_to(self, value: float) -> None:
        """Mirror an externally-tracked monotonic total (collectors)."""
        if value < self.value:
            raise ValueError(
                f"counter {self.key} must not decrease: {self.value} -> {value}"
            )
        self.value = value

    def sample(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge(_Metric):
    """A last-write-wins value."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems, help: str = ""):
        super().__init__(name, labels, help)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def sample(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram(_Metric):
    """A fixed-bucket histogram with cumulative-export semantics.

    ``bounds`` are inclusive upper bucket edges; one implicit ``+Inf``
    bucket catches the rest. Internally counts are per-bucket (not
    cumulative); exports produce the cumulative Prometheus form.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelItems,
                 bounds: Sequence[float], help: str = ""):
        super().__init__(name, labels, help)
        bounds = tuple(bounds)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram bounds must be strictly sorted: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum: float = 0
        self.count: int = 0

    def observe(self, value: float, count: int = 1) -> None:
        self.counts[bisect_left(self.bounds, value)] += count
        self.sum += value * count
        self.count += count

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` each of ``values``, in order (``sum`` adds the
        same floats in the same order, so it is equal to the last bit)."""
        counts = self.counts
        bounds = self.bounds
        total = self.sum
        for value in values:
            counts[bisect_left(bounds, value)] += 1
            total += value
        self.sum = total
        self.count += len(values)

    def cumulative(self) -> List[Tuple[str, int]]:
        """[(le, cumulative_count)] including the +Inf bucket."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((format_bound(bound), running))
        out.append(("+Inf", running + self.counts[-1]))
        return out

    def sample(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "buckets": {le: n for le, n in self.cumulative()},
            "sum": self.sum,
            "count": self.count,
        }


class StageTimer(_Metric):
    """Accumulated simulated seconds (plus span count) for one stage.

    Two usage styles:

    * explicit — ``timer.add(elapsed)`` with a caller-computed span;
    * clocked — ``timer.start(); ...; timer.stop()`` against the
      registry's (simulated) clock. Re-entrant: nested start/stop pairs
      on the *same* timer count only the outermost span, so a stage
      that recursively re-enters itself is not double-billed.
    """

    kind = "timer"
    __slots__ = ("total", "count", "_clock", "_depth", "_span_start")

    def __init__(self, name: str, labels: LabelItems,
                 clock: Callable[[], float], help: str = ""):
        super().__init__(name, labels, help)
        self.total: float = 0.0
        self.count: int = 0
        self._clock = clock
        self._depth = 0
        self._span_start = 0.0

    def add(self, elapsed: float, count: int = 1) -> None:
        if elapsed < 0:
            raise ValueError(f"timer {self.key} got negative span {elapsed}")
        self.total += elapsed
        self.count += count

    def start(self) -> None:
        if self._depth == 0:
            self._span_start = self._clock()
        self._depth += 1

    def stop(self) -> None:
        if self._depth == 0:
            raise RuntimeError(f"timer {self.key} stopped while not running")
        self._depth -= 1
        if self._depth == 0:
            self.add(self._clock() - self._span_start)

    def __enter__(self) -> "StageTimer":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def sample(self) -> Dict[str, Any]:
        return {"kind": self.kind, "total_seconds": self.total,
                "count": self.count}


def format_bound(bound: float) -> str:
    """Deterministic text form of a bucket edge (ints without dots)."""
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


# ---------------------------------------------------------------------------
# Null (disabled) metrics: shared no-op singletons.
# ---------------------------------------------------------------------------


class _NullMetric:
    __slots__ = ()
    kind = "null"
    name = "null"
    labels: LabelItems = ()
    key = "null"
    value = 0
    total = 0.0
    count = 0
    sum = 0

    def inc(self, amount: float = 1) -> None:
        pass

    def set_to(self, value: float) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float, count: int = 1) -> None:
        pass

    def observe(self, value: float, count: int = 1) -> None:
        pass

    def observe_many(self, values: Sequence[float]) -> None:
        pass

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def __enter__(self) -> "_NullMetric":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def __bool__(self) -> bool:
        # Lets call sites gate optional extra work on `if metric:`.
        return False


NULL_METRIC = _NullMetric()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Fabric-wide metric store with label scoping and pull collectors.

    ``clock`` supplies *simulated* time for clocked timers (wire it to
    ``sim.now``); collectors are zero-hot-path-cost mirrors of existing
    structures (NIC drop dicts, SST push counts), invoked only at
    snapshot/export time.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True):
        self.enabled = enabled
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._metrics: Dict[Tuple[str, LabelItems], _Metric] = {}
        self._collectors: List[Callable[[], None]] = []

    # ------------------------------------------------------------- factories

    def _get(self, cls: type, name: str, labels: Dict[str, Any],
             help: str, *args: Any) -> Any:
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], *args, help=help)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {format_key(*key)} already registered as "
                f"{metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BATCH_BUCKETS,
                  help: str = "", **labels: Any) -> Histogram:
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        return self._get(Histogram, name, labels, help, buckets)

    def timer(self, name: str, help: str = "", **labels: Any) -> StageTimer:
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        return self._get(StageTimer, name, labels, help, self.clock)

    def scoped(self, **labels: Any) -> "ScopedRegistry":
        """A view that stamps ``labels`` onto every metric it creates."""
        return ScopedRegistry(self, _label_items(labels))

    # ------------------------------------------------------------ collectors

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a pull hook run before every snapshot/export; it
        should mirror external state into metrics via ``set_to``/``set``."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn()

    # --------------------------------------------------------------- queries

    def metrics(self, name: Optional[str] = None,
                **labels: Any) -> List[_Metric]:
        """All metrics, optionally filtered by name and a label subset."""
        want = _label_items(labels)
        out = []
        for metric in self._metrics.values():
            if name is not None and metric.name != name:
                continue
            if want and not set(want).issubset(metric.labels):
                continue
            out.append(metric)
        return out

    def value(self, name: str, **labels: Any) -> float:
        """Sum of counter/gauge values (timer totals) matching a filter."""
        total: float = 0
        for metric in self.metrics(name, **labels):
            total += getattr(metric, "value", getattr(metric, "total", 0))
        return total

    # --------------------------------------------------------------- exports

    def snapshot(self, collect: bool = True) -> Dict[str, Any]:
        """Deterministic dict snapshot (schema-versioned, sorted keys)."""
        if collect:
            self.collect()
        body = {m.key: m.sample()
                for m in sorted(self._metrics.values(), key=lambda m: m.key)}
        return {"schema_version": 1, "metrics": body}

    def to_json(self, indent: Optional[int] = 2) -> str:
        from .export import to_json

        return to_json(self, indent=indent)

    def to_prometheus(self) -> str:
        from .export import to_prometheus

        return to_prometheus(self)


class ScopedRegistry:
    """A label-stamping view over a base registry (scopes nest)."""

    __slots__ = ("base", "scope_labels")

    def __init__(self, base: MetricsRegistry, scope_labels: LabelItems):
        self.base = base
        self.scope_labels = scope_labels

    @property
    def enabled(self) -> bool:
        return self.base.enabled

    @property
    def clock(self) -> Callable[[], float]:
        return self.base.clock

    def _merge(self, labels: Dict[str, Any]) -> Dict[str, Any]:
        merged = dict(self.scope_labels)
        merged.update(labels)
        return merged

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self.base.counter(name, help=help, **self._merge(labels))

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self.base.gauge(name, help=help, **self._merge(labels))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BATCH_BUCKETS,
                  help: str = "", **labels: Any) -> Histogram:
        return self.base.histogram(name, buckets=buckets, help=help,
                                   **self._merge(labels))

    def timer(self, name: str, help: str = "", **labels: Any) -> StageTimer:
        return self.base.timer(name, help=help, **self._merge(labels))

    def scoped(self, **labels: Any) -> "ScopedRegistry":
        return ScopedRegistry(self.base, _label_items(self._merge(labels)))

    def add_collector(self, fn: Callable[[], None]) -> None:
        self.base.add_collector(fn)

    def metrics(self, name: Optional[str] = None,
                **labels: Any) -> List[_Metric]:
        return self.base.metrics(name, **self._merge(labels))

    def value(self, name: str, **labels: Any) -> float:
        return self.base.value(name, **self._merge(labels))


_NULL_REGISTRY = MetricsRegistry(enabled=False)


def null_registry() -> MetricsRegistry:
    """The shared disabled registry (every factory returns no-ops)."""
    return _NULL_REGISTRY


def _iter_samples(registry: MetricsRegistry) -> Iterable[_Metric]:
    return sorted(registry._metrics.values(), key=lambda m: m.key)

"""The metrics registry: typed mirrors of counts kept elsewhere.

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

Every metric is a mirror: the object that counts a quantity keeps it as
a plain attribute, and a pull collector (:meth:`MetricsRegistry.add_collector`)
copies it into a metric with ``set_to`` / ``set`` only when the
registry is read — :meth:`~MetricsRegistry.snapshot`, the exporters,
:meth:`~MetricsRegistry.metrics` and :meth:`~MetricsRegistry.value` all
run the collectors first. Hot paths make no metric calls, and no metric
object exists before the first read.

Scoping: ``registry.scoped(node="3", subgroup="0")`` returns a view
that stamps those labels onto every metric it creates, so per-node and
per-subgroup mirrors share one fabric-wide registry (reachable as
``cluster.metrics``). Scopes nest.

Determinism: metrics hold only simulated-time quantities; reads list
them sorted by (name, labels), so two runs with identical (seed, config)
produce byte-identical JSON exports (tested).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "StageTimer",
    "MetricsRegistry",
    "ScopedRegistry",
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

    def set_to(self, counts: Sequence[int], total: float, count: int) -> None:
        """Mirror externally-kept per-bucket ``counts`` (one per bound,
        plus the ``+Inf`` bucket), the ``total`` of the ``count``
        observations."""
        if len(counts) != len(self.counts):
            raise ValueError(f"histogram {self.key} has {len(self.counts)} "
                             f"buckets, not {len(counts)}")
        if count < self.count:
            raise ValueError(
                f"histogram {self.key} must not decrease: "
                f"{self.count} -> {count}")
        self.counts = list(counts)
        self.sum = total
        self.count = count

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
    """Accumulated simulated seconds (plus span count) for one stage."""

    kind = "timer"
    __slots__ = ("total", "count")

    def __init__(self, name: str, labels: LabelItems, help: str = ""):
        super().__init__(name, labels, help)
        self.total: float = 0.0
        self.count: int = 0

    def set_to(self, total: float, count: int) -> None:
        """Mirror an externally-accumulated ``total`` over ``count`` spans."""
        if count < self.count:
            raise ValueError(
                f"timer {self.key} must not decrease: {self.count} -> {count}")
        self.total = total
        self.count = count

    def sample(self) -> Dict[str, Any]:
        return {"kind": self.kind, "total_seconds": self.total,
                "count": self.count}


def format_bound(bound: float) -> str:
    """Deterministic text form of a bucket edge (ints without dots)."""
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Fabric-wide metric store with label scoping and pull collectors.

    Collectors are the only writers: each mirrors the plain counters
    some object keeps (NIC drop dicts, SST push counts, stage-time
    accumulators) into metrics, and runs whenever the registry is read.
    """

    def __init__(self) -> None:
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
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BATCH_BUCKETS,
                  help: str = "", **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels, help, buckets)

    def timer(self, name: str, help: str = "", **labels: Any) -> StageTimer:
        return self._get(StageTimer, name, labels, help)

    def scoped(self, **labels: Any) -> "ScopedRegistry":
        """A view that stamps ``labels`` onto every metric it creates."""
        return ScopedRegistry(self, _label_items(labels))

    # ------------------------------------------------------------ collectors

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a pull hook run before every read; it mirrors
        external state into metrics via ``set_to``/``set``."""
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn()

    # --------------------------------------------------------------- queries

    def metrics(self, name: Optional[str] = None,
                **labels: Any) -> List[_Metric]:
        """All metrics, optionally filtered by name and a label subset,
        freshly collected and sorted by (name, labels)."""
        self.collect()
        want = set(_label_items(labels))
        return [metric for metric in _iter_samples(self)
                if (name is None or metric.name == name)
                and want.issubset(metric.labels)]

    def value(self, name: str, **labels: Any) -> float:
        """Sum of counter/gauge values (timer totals) matching a filter."""
        total: float = 0
        for metric in self.metrics(name, **labels):
            total += getattr(metric, "value", getattr(metric, "total", 0))
        return total

    # --------------------------------------------------------------- exports

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic dict snapshot (schema-versioned, sorted keys)."""
        self.collect()
        body = {m.key: m.sample() for m in _iter_samples(self)}
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


def _iter_samples(registry: MetricsRegistry) -> List[_Metric]:
    """The registry's metrics as they stand, sorted by (name, labels)."""
    return sorted(registry._metrics.values(), key=lambda m: m.key)

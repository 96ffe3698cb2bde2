"""Exporters: canonical JSON and Prometheus text formats.

Both are deterministic — metrics sorted by (name, labels), floats
rendered via ``repr`` — so identical (seed, config) runs export
byte-identical documents (the golden tests diff them byte for byte).
"""

from __future__ import annotations

import json
from typing import Optional

from .registry import Histogram, MetricsRegistry, StageTimer, _iter_samples

__all__ = ["to_json", "to_prometheus"]

#: Prometheus TYPE for each internal kind (timers export as counters).
_PROM_TYPE = {"counter": "counter", "gauge": "gauge",
              "histogram": "histogram", "timer": "counter"}


def to_json(registry: MetricsRegistry, indent: Optional[int] = 2) -> str:
    """Schema-versioned JSON snapshot (sorted keys, stable floats)."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (0.0.4).

    Timers export as two series: ``<name>_seconds_total`` (accumulated
    simulated seconds) and ``<name>_spans_total`` (span count).
    """
    registry.collect()
    lines = []
    seen_headers = set()

    def header(name: str, kind: str, help_text: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {_PROM_TYPE[kind]}")

    def label_str(items, extra=()) -> str:
        merged = tuple(items) + tuple(extra)
        if not merged:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(merged))
        return "{" + inner + "}"

    for metric in _iter_samples(registry):
        if isinstance(metric, Histogram):
            header(metric.name, "histogram", metric.help)
            for le, cum in metric.cumulative():
                lines.append(
                    f"{metric.name}_bucket"
                    f"{label_str(metric.labels, (('le', le),))} {cum}")
            lines.append(
                f"{metric.name}_sum{label_str(metric.labels)} "
                f"{metric.sum!r}")
            lines.append(
                f"{metric.name}_count{label_str(metric.labels)} "
                f"{metric.count}")
        elif isinstance(metric, StageTimer):
            header(f"{metric.name}_seconds_total", "timer", metric.help)
            lines.append(
                f"{metric.name}_seconds_total{label_str(metric.labels)} "
                f"{metric.total!r}")
            header(f"{metric.name}_spans_total", "timer", "")
            lines.append(
                f"{metric.name}_spans_total{label_str(metric.labels)} "
                f"{metric.count}")
        else:
            header(metric.name, metric.kind, metric.help)
            lines.append(
                f"{metric.name}{label_str(metric.labels)} "
                f"{metric.value!r}")
    return "\n".join(lines) + ("\n" if lines else "")

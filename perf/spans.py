"""In-memory spans around the calls the benchmark makes into a layer.

Recorded only in the traced repetition, from the benchmark's own
generators (spans inside the program are a later issue), kept in
memory and written out when the repetition ends. One span is
``(id, parent, name, op_id, sim_start, sim_end)``; spans of one op
share ``op_id``. A span's *self time* is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

__all__ = ["SpanRecorder", "NO_SPANS", "FIELDS"]

FIELDS = ("id", "parent", "name", "op_id", "sim_start", "sim_end")


class _NoSpans:
    """Tracing off: every hook is a no-op."""

    def open(self, name, op_id, now, parent=None):
        return None

    def open_root(self, name, op_id, now):
        return None

    def close(self, token, now):
        pass

    def close_root(self, op_id, now):
        pass


NO_SPANS = _NoSpans()


class SpanRecorder(_NoSpans):
    def __init__(self):
        #: [id, parent, name, op_id, sim_start, sim_end] per span.
        self.spans = []
        self._roots = {}

    def open(self, name, op_id, now, parent=None):
        token = len(self.spans)
        self.spans.append([token, parent, name, op_id, now, None])
        return token

    def open_root(self, name, op_id, now):
        token = self._roots[op_id] = self.open(name, op_id, now)
        return token

    def close(self, token, now):
        self.spans[token][5] = now

    def close_root(self, op_id, now):
        self.spans[self._roots.pop(op_id)][5] = now

    def summary(self):
        """Per span name: count, total and self simulated seconds."""
        covered = {}  # parent id -> child intervals clipped to the parent
        for _id, parent, _name, _op, start, end in self.spans:
            if parent is not None:
                p = self.spans[parent]
                lo, hi = max(start, p[4]), min(end, p[5])
                if hi > lo:
                    covered.setdefault(parent, []).append((lo, hi))
        table = {}
        for sid, _parent, name, _op, start, end in self.spans:
            child_time, reach = 0.0, start
            for lo, hi in sorted(covered.get(sid, ())):
                if hi > reach:
                    child_time += hi - max(lo, reach)
                    reach = hi
            row = table.setdefault(name, {"count": 0, "sim_s": 0.0,
                                          "self_sim_s": 0.0})
            row["count"] += 1
            row["sim_s"] += end - start
            row["self_sim_s"] += (end - start) - child_time
        return table

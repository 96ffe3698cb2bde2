"""Receiver-side storage for the VOLATILE and LOGGED QoS levels.

The time cost of storing is charged on the delivery path through the
subgroup's ``extra_delivery_cost`` hook (set up by the domain); these
classes hold the *contents* so tests and late-joining subscribers can
read them back.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..core.persistence import StorageModel

__all__ = ["VolatileStore", "SsdLog"]


class VolatileStore:
    """In-memory sample store, bounded by an optional history depth.

    One per (node, topic): a joining subscriber can be initialized from
    a peer's snapshot (the catch-up use case of QoS 3, §4.6).
    """

    def __init__(self, history_depth: Optional[int] = None):
        self.history_depth = history_depth
        self._samples: Deque[Tuple[int, bytes]] = deque(
            maxlen=history_depth
        )
        self.total_stored = 0

    def store(self, seq: int, data: bytes) -> None:
        self._samples.append((seq, data))
        self.total_stored += 1

    def snapshot(self) -> List[Tuple[int, bytes]]:
        """Copy of the retained (seq, sample) history, oldest first."""
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)


class SsdLog:
    """One node's append-only message log (§4.6: a log file on SSD).

    Timed by the one SSD cost model, ``StorageModel.append_time``:
    group-commit amortization — a small fixed overhead plus
    bandwidth-proportional time per sample, not an fsync per append.
    """

    def __init__(self, model: Optional[StorageModel] = None):
        self.model = model if model is not None else StorageModel()
        self.entries: List[Tuple[int, int, bytes]] = []  # (topic, seq, data)
        self.total_bytes = 0

    def append(self, topic_id: int, seq: int, data: bytes) -> None:
        self.entries.append((topic_id, seq, data))
        self.total_bytes += len(data) if data is not None else 0

    def replay(self, topic_id: int) -> List[Tuple[int, bytes]]:
        """All logged (seq, sample) entries of one topic, in log order —
        the debugging/time-series use case the paper mentions."""
        return [(seq, data) for (t, seq, data) in self.entries if t == topic_id]

    def __len__(self) -> int:
        return len(self.entries)

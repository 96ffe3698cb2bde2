"""Registered memory regions for the simulated RDMA fabric.

Two granularities are provided:

* :class:`ByteRegion` — a plain byte-addressed region backed by a
  ``bytearray``. Used by the low-level verbs tests to validate the
  byte-level semantics (fence ordering, cache-line atomicity) and
  available to any application that wants full byte fidelity.

* :class:`CellRegion` — a region organized as a sequence of *cells*,
  each holding an arbitrary immutable Python value with a declared byte
  size. Writes are atomic per cell, which models RDMA's cache-line
  atomicity for the SST's monotonic counters, and lets bulk payloads be
  transferred as opaque snapshots whose *size* (not content) drives
  timing. The SST and SMC are built on cell regions.

A remote write carries a :class:`WriteSnapshot` — an immutable copy of
the source cells/bytes taken at post time, exactly like a real NIC DMA
from pinned memory.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["Region", "ByteRegion", "CellRegion", "WriteSnapshot"]


@dataclass(frozen=True)
class WriteSnapshot:
    """Immutable payload of an RDMA write: (offset, data, size_bytes).

    For a :class:`ByteRegion`, ``data`` is ``bytes`` and ``offset`` is a
    byte offset. For a :class:`CellRegion`, ``data`` is a tuple of cell
    values and ``offset`` is a cell index.
    """

    offset: int
    data: Any
    size_bytes: int


class Region:
    """Base class for registered memory regions.

    Each region has an integer key (assigned at registration) used by
    remote peers to address it, mirroring RDMA rkeys.
    """

    kind = "abstract"

    def __init__(self, name: str = "region"):
        self.name = name
        self.key: int = -1  # assigned by the node at registration

    # -- interface -----------------------------------------------------------

    def snapshot(self, offset: int, length: int) -> WriteSnapshot:
        """Copy ``length`` units starting at ``offset`` for transmission."""
        raise NotImplementedError

    def apply_write(self, snap: WriteSnapshot) -> None:
        """Apply an incoming remote write."""
        raise NotImplementedError

    def size_of(self, offset: int, length: int) -> int:
        """Byte size of the span (used for timing)."""
        raise NotImplementedError


class ByteRegion(Region):
    """A byte-addressed region backed by a ``bytearray``."""

    kind = "bytes"

    def __init__(self, size: int, name: str = "byte-region"):
        super().__init__(name)
        if size <= 0:
            raise ValueError("region size must be positive")
        self.buf = bytearray(size)

    def __len__(self) -> int:
        return len(self.buf)

    def write_local(self, offset: int, data: bytes) -> None:
        """Local (CPU) write into the region."""
        self._check(offset, len(data))
        self.buf[offset : offset + len(data)] = data

    def read(self, offset: int, length: int) -> bytes:
        """Local (CPU) read from the region."""
        self._check(offset, length)
        return bytes(self.buf[offset : offset + length])

    def snapshot(self, offset: int, length: int) -> WriteSnapshot:
        self._check(offset, length)
        return WriteSnapshot(offset, bytes(self.buf[offset : offset + length]), length)

    def apply_write(self, snap: WriteSnapshot) -> None:
        self._check(snap.offset, len(snap.data))
        self.buf[snap.offset : snap.offset + len(snap.data)] = snap.data

    def size_of(self, offset: int, length: int) -> int:
        return length

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > len(self.buf):
            raise IndexError(
                f"access [{offset}, {offset + length}) out of bounds for "
                f"region {self.name!r} of size {len(self.buf)}"
            )


# Per-cell storage class codes (``CellRegion._code``): generic object
# slot, 64-bit signed integer slot, or flag (integer slot read back as
# bool).  Typed slots live in one contiguous ``array('q')`` — the SST's
# counters and flags become flat machine words instead of boxed objects.
_CELL_OBJ = 0
_CELL_INT = 1
_CELL_FLAG = 2

#: cell-kind string -> storage class (kind strings from repro.sst.fields).
_KIND_CODES = {"counter": _CELL_INT, "flag": _CELL_FLAG}


class CellRegion(Region):
    """A region of atomically-written typed cells.

    ``cell_sizes[i]`` is the byte size of cell ``i`` — it determines the
    transfer time of writes covering that cell. Values are arbitrary
    Python objects; callers must treat stored values as immutable (store
    tuples/bytes/ints), which the SST layer does.

    ``kinds`` optionally declares per-cell storage: cells whose kind is
    ``"counter"`` or ``"flag"`` are backed by a slot-indexed ``array('q')``
    of machine words (flags read back as ``bool``); everything else (and
    all cells when ``kinds`` is None) lives in a plain object slot. A
    typed cell handed a value that doesn't fit a signed 64-bit word is
    transparently demoted to an object slot.

    Every mutation (local write, applied remote write, bulk ``cells``
    assignment) bumps :attr:`version`, a strictly-increasing generation
    counter: :meth:`snapshot` reuses its last snapshot while the version
    is unchanged.

    Spans are the unit of work (docs/ENGINE.md, "Above the scheduler"):
    :meth:`snapshot`, :meth:`apply_write` and :meth:`read_span` move a
    span that lies inside one storage class as a single slice. Which
    spans qualify is fixed by the layout, so it is tabulated once here
    (``_run_end``) and rebuilt only if a typed cell is ever demoted.
    """

    kind = "cells"

    def __init__(self, cell_sizes: Sequence[int], name: str = "cell-region",
                 kinds: Optional[Sequence[str]] = None):
        super().__init__(name)
        if not cell_sizes:
            raise ValueError("cell region needs at least one cell")
        if any(s <= 0 for s in cell_sizes):
            raise ValueError("cell sizes must be positive")
        self.cell_sizes: Tuple[int, ...] = tuple(cell_sizes)
        n = len(self.cell_sizes)
        #: Generation counter: bumped on every mutation of the region.
        self.version = 0
        code = bytearray(n)
        if kinds is not None:
            if len(kinds) != n:
                raise ValueError("kinds must match cell_sizes in length")
            for i, k in enumerate(kinds):
                code[i] = _KIND_CODES.get(k, _CELL_OBJ)
        self._code = code
        self._ints = array("q", bytes(8 * n))
        self._objs: List[Any] = [None] * n
        # Prefix sums let size_of answer in O(1).
        self._prefix = [0]
        for s in self.cell_sizes:
            self._prefix.append(self._prefix[-1] + s)
        self._run_end = self._runs()
        #: The last snapshot taken and the version it was taken at: one
        #: batch pushed to every peer copies its span once, not per peer.
        self._snap: Optional[WriteSnapshot] = None
        self._snap_version = -1

    def _runs(self) -> List[int]:
        """``run_end[i]``: end (exclusive) of the run of same-class cells
        starting at ``i`` — a span ``[i, j)`` is one slice iff
        ``j <= run_end[i]``. Flag cells (read back through ``bool``)
        and the end-of-region sentinel get 0: never a slice."""
        code = self._code
        n = len(code)
        run_end = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            if code[i] != _CELL_FLAG:
                same = i + 1 < n and code[i + 1] == code[i]
                run_end[i] = run_end[i + 1] if same else i + 1
        return run_end

    def __len__(self) -> int:
        return len(self._code)

    @property
    def cells(self) -> List[Any]:
        """Materialized list of current cell values (compat view; a
        fresh list each access — mutate via :meth:`write_local`)."""
        return self.read_span(0, len(self._code))

    @cells.setter
    def cells(self, values: Sequence[Any]) -> None:
        values = list(values)
        if len(values) != len(self._code):
            raise ValueError(
                f"expected {len(self._code)} cell values, got {len(values)}"
            )
        self.version += 1
        for i, v in enumerate(values):
            self._store(i, v)

    @property
    def total_bytes(self) -> int:
        """Total registered byte footprint of the region."""
        return self._prefix[-1]

    def _store(self, index: int, value: Any) -> None:
        if self._code[index] == 0:
            self._objs[index] = value
        else:
            try:
                self._ints[index] = value
            except (TypeError, OverflowError):
                # Demote: the value doesn't fit a typed machine-word slot.
                self._code[index] = _CELL_OBJ
                self._objs[index] = value
                self._run_end = self._runs()

    def write_local(self, index: int, value: Any) -> None:
        """Local (CPU) write of one cell."""
        if not 0 <= index < len(self._code):
            self._check(index, 1)
        self.version += 1
        self._store(index, value)  # spindle-lint: allow[sst-monotonic-write]

    def read(self, index: int) -> Any:
        """Local (CPU) read of one cell."""
        if not 0 <= index < len(self._code):
            self._check(index, 1)
        code = self._code[index]
        if code == 0:
            return self._objs[index]
        value = self._ints[index]
        return value if code == 1 else bool(value)

    def read_span(self, offset: int, length: int) -> List[Any]:
        """Local (CPU) read of ``length`` consecutive cells."""
        end = offset + length
        if offset < 0 or length < 0 or end > len(self._code):
            self._check(offset, length)
        if end <= self._run_end[offset]:
            if self._code[offset]:
                return self._ints[offset:end].tolist()
            return self._objs[offset:end]
        code = self._code
        ints = self._ints
        objs = self._objs
        return [
            objs[i] if code[i] == 0 else
            (ints[i] if code[i] == 1 else bool(ints[i]))
            for i in range(offset, end)
        ]

    @staticmethod
    def read_column(regions: Sequence["CellRegion"], index: int) -> List[Any]:
        """Cell ``index`` of every region in ``regions`` — the span that
        runs *down* a table whose rows are regions of one layout."""
        if index < 0:
            raise IndexError(f"cell index {index} out of bounds")
        out = []
        for region in regions:
            code = region._code[index]
            if code == 0:
                out.append(region._objs[index])
            else:
                value = region._ints[index]
                out.append(value if code == 1 else bool(value))
        return out

    def snapshot(self, offset: int, length: int) -> WriteSnapshot:
        snap = self._snap
        if (snap is not None and self._snap_version == self.version
                and snap.offset == offset and len(snap.data) == length):
            # Nothing was written since: the span still reads the same.
            return snap
        snap = WriteSnapshot(
            offset, tuple(self.read_span(offset, length)),
            self._prefix[offset + length] - self._prefix[offset]
        )
        self._snap = snap
        self._snap_version = self.version
        return snap

    def apply_write(self, snap: WriteSnapshot) -> None:
        data = snap.data
        offset = snap.offset
        end = offset + len(data)
        if offset < 0 or end > len(self._code):
            self._check(offset, len(data))
        # Incoming RDMA writes carry peers' rows; monotonicity of those is
        # the *sender's* obligation, enforced at its SST write point.
        # spindle-lint: allow[sst-monotonic-write]
        self.version += 1
        if end <= self._run_end[offset]:
            if not self._code[offset]:
                self._objs[offset:end] = data
                return
            try:
                words = array("q", data)
            except (TypeError, OverflowError):
                pass  # some value needs demoting: store cell by cell
            else:
                self._ints[offset:end] = words
                return
        i = offset
        for value in data:
            self._store(i, value)
            i += 1

    def size_of(self, offset: int, length: int) -> int:
        self._check(offset, length)
        return self._prefix[offset + length] - self._prefix[offset]

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > len(self._code):
            raise IndexError(
                f"access cells [{offset}, {offset + length}) out of bounds "
                f"for region {self.name!r} with {len(self._code)} cells"
            )

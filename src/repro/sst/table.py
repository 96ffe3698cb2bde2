"""The SST: a replicated table of monotonic state over one-sided RDMA.

Each node holds a full local copy of the table (paper §2.2). A node may
*write* only its own row, and publishes updates by pushing a contiguous
column span of that row to selected peers with one RDMA write each.
Reads of other rows are local reads of the last-pushed state.

Monotonicity is enforced at the write point for counter and flag
columns: the whole protocol stack (batched acknowledgments, early lock
release) relies on it, so violating it is a programming error that we
fail loudly on.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence

from ..rdma.fabric import RdmaFabric
from ..rdma.memory import CellRegion
from ..rdma.nic import RdmaNode
from ..sim import probe
from .fields import COUNTER, FLAG, SSTLayout

__all__ = ["SST", "wire_ssts"]


class SST:
    """One node's replica of the shared state table.

    ``members`` lists the row owners (top-level group membership, fixed
    for the duration of a view). ``node`` is the local RDMA endpoint.
    """

    def __init__(
        self,
        layout: SSTLayout,
        fabric: RdmaFabric,
        node: RdmaNode,
        members: Sequence[int],
    ):
        layout.freeze()
        self.layout = layout
        self.fabric = fabric
        self.node = node
        self.node_id = node.node_id
        self.members: List[int] = list(members)
        if self.node_id not in self.members:
            raise ValueError(
                f"local node {self.node_id} not in members {self.members}"
            )
        self.rows: Dict[int, CellRegion] = {}
        for owner in self.members:
            region = CellRegion(layout.cell_sizes,
                                name=f"sst-row{owner}@{self.node_id}",
                                kinds=layout.cell_kinds)
            # Pre-view initialization happens before any push can observe
            # the row, so the raw fill is sound here (and only here).
            region.cells = layout.initial_values()  # spindle-lint: allow[sst-monotonic-write]
            node.register(region)
            self.rows[owner] = region
        #: owners tuple (None = all members) -> (row regions, foreign
        #: owners); rows never change within a view, so :meth:`column`
        #: resolves each distinct scan once.
        self._row_sets: Dict[Optional[tuple], tuple] = {}
        #: rkeys of the replicas of *my* row at each peer (set by wire_ssts).
        self._remote_row_keys: Dict[int, int] = {}
        #: Count of push operations (RDMA writes) issued through this SST.
        self.pushes_posted = 0

    # ----------------------------------------------------------------- reads

    def read(self, owner: int, col: int) -> Any:
        """Read a cell of any row from the local copy (always safe: cells
        are written atomically)."""
        if probe.subscribers and owner != self.node_id:
            for s in probe.subscribers:
                s.sst_read(self, owner)
        return self.rows[owner].read(col)

    def read_own(self, col: int) -> Any:
        """Read a cell of this node's own row."""
        return self.rows[self.node_id].read(col)

    def column(self, col: int, owners: Optional[Iterable[int]] = None) -> List[Any]:
        """Read one column across rows (defaults to all members): one
        span read down the table. Pass ``owners`` as a tuple to reuse
        its cached row list (the stability scans do)."""
        key = None if owners is None else tuple(owners)
        try:
            rows, foreign = self._row_sets[key]
        except KeyError:
            order = self.members if key is None else key
            rows = [self.rows[o] for o in order]
            foreign = [o for o in order if o != self.node_id]
            self._row_sets[key] = rows, foreign
        if probe.subscribers:
            for s in probe.subscribers:
                for o in foreign:
                    s.sst_read(self, o)
        return CellRegion.read_column(rows, col)

    def read_span(self, owner: int, col_lo: int, length: int) -> List[Any]:
        """Read ``length`` consecutive cells of one row (see :meth:`read`)."""
        if probe.subscribers and owner != self.node_id:
            for s in probe.subscribers:
                s.sst_read(self, owner)
        return self.rows[owner].read_span(col_lo, length)

    # ---------------------------------------------------------------- writes

    def set(self, col: int, value: Any) -> None:
        """Write a cell of the local row (visible remotely only after push).

        Counter and flag columns are checked for monotonicity; the
        correctness of batched acknowledgments and of posting after lock
        release both depend on it (paper §3.2, §3.4).
        """
        spec = self.layout.spec(col)
        row = self.rows[self.node_id]
        if spec.kind == COUNTER:
            old = row.read(col)
            if value < old:
                raise ValueError(
                    f"counter {spec.name!r} must not decrease: {old} -> {value}"
                )
        elif spec.kind == FLAG:
            old = row.read(col)
            if old and not value:
                raise ValueError(f"flag {spec.name!r} must not reset: True -> False")
        # This is THE monotonic write point the lint pass funnels
        # everyone through; the raw write below is the one sanctioned use.
        row.write_local(col, value)  # spindle-lint: allow[sst-monotonic-write]
        if probe.subscribers:
            for s in probe.subscribers:
                s.sst_set(self, col, spec)

    # ----------------------------------------------------------------- push

    def push(
        self,
        col_lo: int,
        col_hi: int,
        targets: Optional[Iterable[int]] = None,
    ) -> Generator[float, None, None]:
        """Push columns ``[col_lo, col_hi)`` of the local row to peers.

        A generator to be ``yield from``-ed by the calling simulated
        thread: posting each RDMA write costs that thread
        ``post_overhead`` CPU (paper §3.2: ~1 µs per post). One write is
        posted per target; the span travels as one RDMA write.
        """
        if not 0 <= col_lo < col_hi <= len(self.layout):
            raise IndexError(f"bad column span [{col_lo}, {col_hi})")
        if targets is None:
            targets = self.members
        row = self.rows[self.node_id]
        post_cost = self.fabric.latency.post_overhead
        for dst in targets:
            if dst == self.node_id:
                continue
            yield post_cost
            qp = self.fabric.queue_pair(self.node_id, dst)
            qp.post_write(
                row, col_lo, self._remote_row_keys[dst], col_lo, col_hi - col_lo
            )
            self.pushes_posted += 1
            if probe.subscribers:
                for s in probe.subscribers:
                    s.sst_push(self, col_lo, col_hi, dst)

    def push_col(self, col: int, targets: Optional[Iterable[int]] = None):
        """Push a single column of the local row."""
        return self.push(col, col + 1, targets)

    # ------------------------------------------------------------- utilities

    def format_table(self, columns: Optional[Sequence[int]] = None) -> str:
        """Render the local copy as an ASCII table (Table 1 style)."""
        if columns is None:
            columns = range(len(self.layout))
        names = [self.layout.spec(c).name for c in columns]
        header = " | ".join(["node".ljust(6)] + [n.ljust(12) for n in names])
        lines = [header, "-" * len(header)]
        for owner in self.members:
            cells = []
            for c in columns:
                value = self.rows[owner].read(c)
                cells.append(str(value).ljust(12))
            lines.append(" | ".join([str(owner).ljust(6)] + cells))
        return "\n".join(lines)


def wire_ssts(ssts: Dict[int, "SST"]) -> None:
    """Exchange region keys among a set of SST replicas.

    Models the address/rkey exchange Derecho performs at the start of a
    view (paper §2.3): afterwards each node can push its row into every
    peer's copy.
    """
    for sst in ssts.values():
        for peer_id, peer_sst in ssts.items():
            if peer_id == sst.node_id:
                continue
            sst._remote_row_keys[peer_id] = peer_sst.rows[sst.node_id].key

"""GroupNode: one node's complete Derecho endpoint.

Bundles the node's SST replica, its single predicate thread, and one
:class:`~repro.core.multicast.SubgroupMulticast` per subgroup the node
belongs to. The SST layout is derived from the view and is identical on
every node (column offsets must agree for one-sided writes to land in
the right cells).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional

from ..predicates.framework import PredicateThread
from ..rdma.fabric import RdmaFabric
from ..rdma.memory import Region, WriteSnapshot
from ..rdma.nic import RdmaNode
from ..sim.engine import Simulator
from ..smc.multicast import SubgroupColumns
from ..sst.fields import SSTLayout
from ..sst.table import SST
from .config import SpindleConfig, TimingModel
from .membership import View
from .multicast import Delivery, SubgroupMulticast
from .stats import SubgroupStats

__all__ = ["GroupNode", "build_layout"]


def build_layout(view: View, with_membership: bool = False):
    """Build the view's SST layout.

    Returns ``(layout, subgroup_blocks, membership_cols_or_None)``.
    Every node declares columns for *all* subgroups (rows are identical
    across the top-level group; §2.2), even ones it does not belong to.
    """
    from .view_change import MembershipColumns

    layout = SSTLayout()
    blocks: Dict[int, SubgroupColumns] = {}
    for sg in view.subgroups:
        blocks[sg.subgroup_id] = SubgroupColumns.declare(
            layout, sg.subgroup_id, sg.window, sg.message_size,
            num_senders=len(sg.senders),
            per_sender_acks=(sg.delivery_mode == "unordered"),
            persistent=sg.persistent,
        )
    membership_cols = (
        MembershipColumns.declare(layout, len(view.members))
        if with_membership else None
    )
    return layout, blocks, membership_cols


class GroupNode:
    """One node's protocol stack for a view."""

    def __init__(
        self,
        sim: Simulator,
        fabric: RdmaFabric,
        rdma_node: RdmaNode,
        view: View,
        config: SpindleConfig,
        timing: Optional[TimingModel] = None,
        membership_params: Optional[dict] = None,
        storage=None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.rdma_node = rdma_node
        self.node_id = rdma_node.node_id
        self.view = view
        self.config = config
        self.timing = timing if timing is not None else TimingModel()

        layout, blocks, membership_cols = build_layout(
            view, with_membership=membership_params is not None
        )
        self.sst = SST(layout, fabric, rdma_node, view.members)
        self.thread = PredicateThread(
            sim, config, self.timing, name=f"predicates@{self.node_id}")
        self.multicasts: Dict[int, SubgroupMulticast] = {}
        self.persistence: Dict[int, "PersistenceEngine"] = {}
        self._delivery_callbacks: Dict[int, List[Callable[[Delivery], None]]] = {}
        #: This node's subgroups' control spans as parallel lists sorted
        #: by column (layout order): ``[lo, hi)`` bounds and the owner.
        self._control_lo: List[int] = []
        self._control_hi: List[int] = []
        self._control_mc: List[SubgroupMulticast] = []

        for sg in view.subgroups:
            if self.node_id not in sg.members:
                continue
            cols = blocks[sg.subgroup_id]
            mc = SubgroupMulticast(
                sim=sim,
                sst=self.sst,
                cols=cols,
                subgroup_id=sg.subgroup_id,
                members=sg.members,
                senders=sg.senders,
                config=config,
                timing=self.timing,
                thread=self.thread,
                stats=SubgroupStats(),
                delivery_mode=sg.delivery_mode,
            )
            self.multicasts[sg.subgroup_id] = mc
            self._delivery_callbacks[sg.subgroup_id] = []
            if sg.persistent:
                from .persistence import PersistenceEngine

                # The node's per-subgroup device (cluster stable
                # storage, so the log survives epoch restarts); a
                # standalone GroupNode gets a private device.
                device = (storage.device(self.node_id,
                                         f"sg{sg.subgroup_id}")
                          if storage is not None else None)
                engine = PersistenceEngine(mc, cols.persisted,
                                           device=device)
                self.persistence[sg.subgroup_id] = engine
                self.on_delivery(sg.subgroup_id, engine.enqueue)
            # Any ack-column update may free ring slots: remember the
            # control span so arriving acks wake blocked senders.
            lo, hi = cols.control_span
            self._control_lo.append(lo)
            self._control_hi.append(hi)
            self._control_mc.append(mc)

        self.membership = None
        if membership_params is not None:
            from .view_change import MembershipService

            self.membership = MembershipService(self, membership_cols,
                                                **membership_params)

        rdma_node.on_remote_write.append(self._on_remote_write)

    # --------------------------------------------------------------- wiring

    @staticmethod
    def _make_dispatcher(callbacks: List[Callable[[Delivery], None]]):
        def dispatch(delivery: Delivery) -> None:
            for cb in callbacks:
                cb(delivery)

        return dispatch

    def _on_remote_write(self, region: Region, snap: WriteSnapshot) -> None:
        """Remote write landed: wake the polling thread; if the write may
        have advanced a delivered_num, wake blocked senders too."""
        self.thread.doorbell.ring()
        # The first control span ending past the write's start is the
        # only one the write [offset, end) can reach first.
        i = bisect_right(self._control_hi, snap.offset)
        if (i < len(self._control_lo)
                and self._control_lo[i] < snap.offset + len(snap.data)):
            self._control_mc[i].slot_doorbell.ring()

    # ------------------------------------------------------------ public API

    def subgroup(self, subgroup_id: int) -> SubgroupMulticast:
        """The multicast endpoint for a subgroup this node belongs to."""
        return self.multicasts[subgroup_id]

    def on_delivery(self, subgroup_id: int,
                    callback: Callable[[Delivery], None]) -> None:
        """Register an application delivery upcall for a subgroup.

        The endpoint's ``deliver_cb`` stays None until the first one:
        only an observed subgroup streams its upcalls (one wake per
        message instead of one per batch)."""
        callbacks = self._delivery_callbacks[subgroup_id]
        callbacks.append(callback)
        mc = self.multicasts[subgroup_id]
        if mc.deliver_cb is None:
            mc.deliver_cb = self._make_dispatcher(callbacks)

    def on_durable(self, subgroup_id: int,
                   callback: Callable[[int], None]) -> None:
        """Register a durability-watermark callback (persistent
        subgroups only): fires with the highest sequence number durable
        on *every* member."""
        self.persistence[subgroup_id].on_durable.append(callback)

    def start(self) -> None:
        """Register all predicates and start the polling thread."""
        for mc in self.multicasts.values():
            mc.register_predicates()
        self.thread.start()
        for engine in self.persistence.values():
            engine.start()
        if self.membership is not None:
            self.membership.start()

    def stop(self) -> None:
        self.thread.stop()
        for engine in self.persistence.values():
            engine.stop()
        if self.membership is not None:
            self.membership.stop()

    def kill(self) -> None:
        """Crash-stop this node's protocol threads (failure injection)."""
        if self.thread._process is not None:
            self.thread._process.kill()
        for engine in self.persistence.values():
            engine.stop()
        if self.membership is not None:
            self.membership.stop()

    def protocol_processes(self, scope: str = "node") -> list:
        """Live protocol threads, for fault-plane stalls: the predicate
        thread, plus (scope="node") the failure detector's sender. The
        backend-generic accessor the fault plane uses instead of
        reaching into ``thread._process`` (docs/FAULTS.md)."""
        procs = []
        if self.thread._process is not None and self.thread._process.alive:
            procs.append(self.thread._process)
        if scope == "node" and self.membership is not None:
            detector = getattr(self.membership, "_detector_proc", None)
            if detector is not None and detector.alive:
                procs.append(detector)
        return procs

    def teardown(self) -> None:
        """Deregister this view's memory (epoch end). In-flight writes
        to the old regions are dropped, as on real hardware."""
        self.kill()
        for key in list(self.rdma_node.regions):
            self.rdma_node.deregister(key)
        self.rdma_node.on_remote_write.remove(self._on_remote_write)

    # -------------------------------------------------------------- metrics

    def stats(self, subgroup_id: int) -> SubgroupStats:
        return self.multicasts[subgroup_id].stats

    def __repr__(self) -> str:
        return f"<GroupNode {self.node_id} view={self.view.view_id}>"

"""The default backend: Spindle's SST-based atomic multicast.

A thin factory around :class:`~repro.core.group.GroupNode` — the paper's
protocol itself lives in ``repro.core``/``repro.sst``. This module only
adapts it to the :class:`~repro.ordering.base.OrderingBackend` contract
so a :class:`~repro.workloads.cluster.Cluster` can swap it for the
Multi-Paxos baseline (docs/ORDERING.md). Construction order is
identical to the historical in-cluster path, so seeded runs (and their
trace fingerprints) are unchanged.
"""

from __future__ import annotations

from typing import Dict

from ..core.group import GroupNode
from ..sst.table import wire_ssts
from .base import OrderingBackend

__all__ = ["SpindleBackend"]


class SpindleBackend(OrderingBackend):
    """``Cluster(backend="spindle")`` — the default."""

    name = "spindle"
    view_synchronous = True

    def build_groups(self, cluster, view) -> Dict[int, GroupNode]:
        groups: Dict[int, GroupNode] = {}
        for node_id in view.members:
            groups[node_id] = GroupNode(
                cluster.sim,
                cluster.fabric,
                cluster.fabric.nodes[node_id],
                view,
                cluster.config,
                cluster.timing,
                membership_params=cluster._membership_params,
                storage=cluster.storage,
            )
        wire_ssts({nid: g.sst for nid, g in groups.items()})
        return groups

    def on_node_restart(self, cluster, node_id: int) -> None:
        """Nothing protocol-side: re-admission of a restarted node is
        the recovery plane's job (docs/RECOVERY.md)."""

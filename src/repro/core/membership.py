"""Membership model: views, subgroups, sender sets (paper §2.1).

A :class:`View` is one epoch of the virtual-synchrony protocol: a fixed,
ordered top-level membership plus the subgroup structure. Within a view
the set of designated senders of each subgroup is fixed; the round-robin
delivery order is a pure function of the senders list, so no consensus
is needed per message.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

__all__ = ["SubgroupSpec", "View"]


@dataclass(frozen=True)
class SubgroupSpec:
    """Static description of one subgroup within a view.

    ``members`` receive and deliver every message; ``senders`` (an
    ordered subset of members) may initiate multicasts. The order of
    ``senders`` defines sender ranks and hence the delivery order.
    """

    subgroup_id: int
    members: Tuple[int, ...]
    senders: Tuple[int, ...]
    window: int = 100
    message_size: int = 10240
    #: "atomic" = totally-ordered stable delivery (default);
    #: "unordered" = deliver on receipt, no ordering/stability wait
    #: (the DDS unordered QoS, §4.6).
    delivery_mode: str = "atomic"
    #: Durable mode: members persist deliveries to stable storage and a
    #: global durability watermark is reported (== durable Paxos, §2.1).
    persistent: bool = False
    #: Designated-sender shape (the service planes, docs/SHARDING.md):
    #: exactly one member ever originates, so nobody owes §3.3 nulls.
    #: Carried on the spec because it must survive membership change —
    #: a failed sender is replaced by the first surviving member and a
    #: joiner never becomes a sender — and cannot be inferred: a
    #: one-survivor view has ``senders == members`` under either shape.
    designated_sender: bool = False

    def __post_init__(self):
        if self.delivery_mode not in ("atomic", "unordered"):
            raise ValueError(f"unknown delivery mode {self.delivery_mode!r}")
        if self.persistent and self.delivery_mode != "atomic":
            raise ValueError("persistent subgroups require atomic delivery")
        if not self.members:
            raise ValueError("subgroup needs at least one member")
        if not self.senders:
            raise ValueError("subgroup needs at least one sender")
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate subgroup members")
        if len(set(self.senders)) != len(self.senders):
            raise ValueError("duplicate subgroup senders")
        missing = [s for s in self.senders if s not in self.members]
        if missing:
            raise ValueError(f"senders {missing} not subgroup members")
        if self.designated_sender and len(self.senders) != 1:
            raise ValueError(
                "a designated-sender subgroup has exactly one sender")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.message_size <= 0:
            raise ValueError("message size must be positive")

    @classmethod
    def of(cls, subgroup_id: int, members: Sequence[int],
           senders: Optional[Sequence[int]] = None,
           window: int = 100, message_size: int = 10240,
           delivery_mode: str = "atomic",
           persistent: bool = False) -> "SubgroupSpec":
        """Convenience constructor; senders default to all members."""
        members = tuple(members)
        senders = tuple(senders) if senders is not None else members
        return cls(subgroup_id, members, senders, window, message_size,
                   delivery_mode, persistent)

    def rank_of(self, node_id: int) -> Optional[int]:
        """Sender rank of ``node_id`` (None for non-senders)."""
        try:
            return self.senders.index(node_id)
        except ValueError:
            return None


@dataclass(frozen=True)
class View:
    """One membership epoch: ordered members + subgroup structure."""

    view_id: int
    members: Tuple[int, ...]
    subgroups: Tuple[SubgroupSpec, ...]
    #: nodes that departed relative to the previous view (info only)
    departed: Tuple[int, ...] = ()
    #: nodes that joined relative to the previous view (info only)
    joined: Tuple[int, ...] = ()

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate members in view")
        ids = [sg.subgroup_id for sg in self.subgroups]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate subgroup ids in view")
        for sg in self.subgroups:
            outside = [m for m in sg.members if m not in self.members]
            if outside:
                raise ValueError(
                    f"subgroup {sg.subgroup_id} members {outside} not in view"
                )

    @property
    def leader(self) -> int:
        """Lowest-ranked member: the view-change leader."""
        return self.members[0]

    def rank_of(self, node_id: int) -> int:
        """Position of a node in the (ordered) top-level membership."""
        return self.members.index(node_id)

    def without(self, failed: Sequence[int], next_view_id: Optional[int] = None
                ) -> "View":
        """The successor view after removing ``failed`` nodes.

        Subgroups shrink accordingly; a subgroup whose members all
        failed is dropped. Sender order among survivors is preserved; a
        subgroup left without a sender (a designated sender's crash)
        promotes its first surviving member.
        """
        failed_set = set(failed)
        members = tuple(m for m in self.members if m not in failed_set)
        if not members:
            raise ValueError("cannot form an empty view")
        new_subgroups = []
        for sg in self.subgroups:
            new_members = tuple(m for m in sg.members if m not in failed_set)
            if not new_members:
                continue
            new_senders = tuple(s for s in sg.senders if s not in failed_set)
            if not new_senders:
                new_senders = (new_members[0],)
            new_subgroups.append(
                replace(sg, members=new_members, senders=new_senders))
        return View(
            view_id=self.view_id + 1 if next_view_id is None else next_view_id,
            members=members,
            subgroups=tuple(new_subgroups),
            departed=tuple(failed_set & set(self.members)),
        )

    def with_joined(
        self,
        joiners: Sequence[int],
        subgroups_to_join: Optional[Sequence[int]] = None,
        as_senders: bool = True,
    ) -> "View":
        """The successor view after nodes join at an epoch boundary.

        Joins are handled between epochs (paper §2.1: membership changes
        happen at view changes): the joiners are appended to the
        top-level membership and, optionally, to the listed subgroups —
        at the end of the member (and sender) lists, so existing ranks
        are preserved. A designated-sender subgroup keeps its one
        sender whatever ``as_senders`` says: its joiners only replicate.
        """
        joiner_set = set(joiners)
        if joiner_set & set(self.members):
            raise ValueError("joiners already members")
        if len(joiner_set) != len(joiners):
            raise ValueError("duplicate joiners")
        target = set(subgroups_to_join) if subgroups_to_join is not None \
            else {sg.subgroup_id for sg in self.subgroups}
        new_subgroups = []
        for sg in self.subgroups:
            if sg.subgroup_id in target:
                grows = as_senders and not sg.designated_sender
                new_subgroups.append(replace(
                    sg,
                    members=sg.members + tuple(joiners),
                    senders=sg.senders + tuple(joiners) if grows
                    else sg.senders))
            else:
                new_subgroups.append(sg)
        return View(
            view_id=self.view_id + 1,
            members=self.members + tuple(joiners),
            subgroups=tuple(new_subgroups),
            joined=tuple(joiners),
        )

"""The option census: every settable value of the stack, pinned by name.

Each option doubles the configuration space the tests and a fuzzer have
to cover, so adding one is a decision, not a side effect: it means
editing this file and recording the new option in CHANGES.md. A value
that nothing sets away from its default is a module constant beside its
reader instead (DESIGN.md, "Options").

Run as a script, it prints the number of settable values.
"""

import dataclasses
import inspect

from repro.core.config import SpindleConfig
from repro.core.view_change import MembershipService
from repro.ordering.paxos import PaxosConfig
from repro.recovery import RecoveryConfig, TransferConfig
from repro.shard.router import RouterConfig
from repro.txn import TxnConfig
from repro.workloads import Cluster

CONFIG_FIELDS = {
    SpindleConfig: (
        "batch_send", "batch_receive", "batch_delivery", "null_sends",
        "early_lock_release", "batched_upcall", "copy_on_send",
        "copy_on_delivery", "fixed_send_batch", "reader_acks",
    ),
    TxnConfig: ("cc", "max_attempts", "retry_backoff", "settle_delay"),
    RouterConfig: ("queue_depth", "workers_per_shard",
                   "congestion_threshold", "max_retries"),
    RecoveryConfig: ("transfer", "view_wait_timeout", "rejoin_subgroups",
                     "auto_install"),
    TransferConfig: ("chunk_size", "chunk_timeout", "inter_chunk_gap",
                     "drop_chunks"),
    PaxosConfig: ("durable_acceptors",),
}

#: The failure detector's keywords; ``Cluster.enable_membership`` takes
#: the same ones and hands them through.
MEMBERSHIP_KEYWORDS = ("heartbeat_period", "suspicion_timeout",
                       "confirmation_grace")


def keywords(fn):
    """Keyword parameters of ``fn`` that have a default."""
    return tuple(name for name, p in inspect.signature(fn).parameters.items()
                 if p.default is not inspect.Parameter.empty)


def census() -> int:
    """Number of settable values: config fields plus membership
    keywords (counted once for both entry points)."""
    fields = sum(len(dataclasses.fields(cls)) for cls in CONFIG_FIELDS)
    membership = set(keywords(MembershipService.__init__))
    membership |= set(keywords(Cluster.enable_membership))
    return fields + len(membership)


def test_config_fields_are_pinned():
    for cls, names in CONFIG_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls


def test_membership_keywords_are_pinned():
    assert keywords(MembershipService.__init__) == MEMBERSHIP_KEYWORDS
    assert keywords(Cluster.enable_membership) == MEMBERSHIP_KEYWORDS


def test_census_total():
    assert census() == 30


if __name__ == "__main__":
    print(census())

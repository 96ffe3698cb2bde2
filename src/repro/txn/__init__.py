"""Cross-shard transactions over per-subgroup total orders.

The transaction plane (docs/TRANSACTIONS.md) composes multi-key
atomicity out of the sharded service's independent per-shard orders:

* :class:`~repro.txn.coordinator.TxnPlane` — two-phase ordering
  coordinator (prepare records sequenced through each participant
  shard's multicast, then a settle round), presumed-abort WAL on the
  coordinator node's storage device, single-shard fast path;
* :mod:`~repro.txn.cc` — the pluggable :class:`ConcurrencyControl`
  strategies: OCC validated in the shard orders, strict 2PL with
  wound-wait and the ALock local/remote asymmetric fast path;
* :func:`~repro.txn.recover.recover_txns` — coordinator-crash recovery
  (re-exported from :mod:`repro.recovery`).

Exports resolve lazily (PEP 562): ``repro.shard.service`` imports the
record codecs from here while the coordinator imports ``repro.shard``
back — eager re-exports would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "TxnConfig", "TxnOp", "TxnOutcome", "TxnPlane",
    "ConcurrencyControl", "OccControl", "TwoPhaseLocking",
    "CC_PROTOCOLS", "resolve_cc",
    "LockTable", "TxnAborted", "TxnHandle",
    "PrepareRecord", "SettleRecord",
    "TxnRecoveryReport", "recover_txns",
]

_LOCATIONS = {
    "TxnConfig": "coordinator", "TxnOp": "coordinator",
    "TxnOutcome": "coordinator", "TxnPlane": "coordinator",
    "ConcurrencyControl": "cc", "OccControl": "cc",
    "TwoPhaseLocking": "cc", "CC_PROTOCOLS": "cc", "resolve_cc": "cc",
    "LockTable": "locks", "TxnAborted": "locks", "TxnHandle": "locks",
    "PrepareRecord": "records", "SettleRecord": "records",
    "TxnRecoveryReport": "recover", "recover_txns": "recover",
}

if TYPE_CHECKING:  # pragma: no cover - typing-only eager imports
    from .cc import (CC_PROTOCOLS, ConcurrencyControl,  # noqa: F401
                     OccControl, TwoPhaseLocking, resolve_cc)
    from .coordinator import (TxnConfig, TxnOp,  # noqa: F401
                              TxnOutcome, TxnPlane)
    from .locks import LockTable, TxnAborted, TxnHandle  # noqa: F401
    from .records import PrepareRecord, SettleRecord  # noqa: F401
    from .recover import TxnRecoveryReport, recover_txns  # noqa: F401


def __getattr__(name: str):
    module = _LOCATIONS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

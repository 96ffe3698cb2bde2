"""Coordinator-crash recovery for the transaction plane.

:func:`recover_txns` is the ``recover_txns`` pass the tentpole asks
for: after a coordinator node restarts, scan its write-ahead txn log
(``BEGIN`` / ``DECISION`` / ``END`` records, docs/TRANSACTIONS.md) and
finish every transaction the crash interrupted:

* ``BEGIN`` with no ``DECISION`` — **presumed abort**: the crash hit
  before the commit point, so the verdict is abort. An abort settle is
  re-driven to every participant (idempotent: shards that never saw
  the prepare record the verdict and dedup any late replay).
* ``BEGIN`` + ``DECISION`` with no ``END`` — the crash hit mid-commit
  (or mid-abort): re-drive a settle with the **logged** verdict. Shards
  that already settled answer with their original verdict (txn-id
  dedup), shards still holding buffered writes apply or discard them.

Both paths finish by logging the missing records and fsyncing, so a
second crash re-runs a shorter pass. The whole pass is a simulated
process: it charges the storage model's read time for the log scan and
drives settles through the router's reserved lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from .records import (
    WAL_BEGIN,
    WAL_DECISION,
    WAL_END,
    encode_wal,
    scan_wal,
)

__all__ = ["TxnRecoveryReport", "recover_txns"]


@dataclass
class TxnRecoveryReport:
    """What one recovery pass found and did."""

    node: int = -1
    scanned: int = 0          # distinct txns in the WAL
    completed: int = 0        # already ENDed, nothing to do
    redriven: int = 0         # DECISION logged, settles re-driven
    presumed_abort: int = 0   # BEGIN only -> abort settles driven
    committed: List[int] = field(default_factory=list)
    aborted: List[int] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "scanned": self.scanned,
            "completed": self.completed,
            "redriven": self.redriven,
            "presumed_abort": self.presumed_abort,
            "committed": list(self.committed),
            "aborted": list(self.aborted),
            "problems": list(self.problems),
            "ok": self.ok,
        }


def recover_txns(plane, node: Optional[int] = None) -> Generator:
    """Simulated-process generator: recover the txn WAL of one
    restarted coordinator node (default: the plane's default
    coordinator). Returns a :class:`TxnRecoveryReport`."""
    coordinator = (node if node is not None
                   else plane._default_coordinator())
    report = TxnRecoveryReport(node=coordinator)
    device = plane._wal(coordinator)
    records = device.reopen()
    yield device.model.read_time(sum(len(r) for r in records))
    state = scan_wal(records)
    report.scanned = len(state)
    for txn_id in sorted(state):
        rec = state[txn_id]
        if rec.kind == WAL_END:
            report.completed += 1
            continue
        if not rec.participants:
            report.problems.append(
                f"txn {txn_id}: WAL stage {rec.kind} without a BEGIN "
                f"participant list")
            continue
        if rec.kind == WAL_BEGIN:
            # Crash before the commit point: presumed abort.
            commit = False
            report.presumed_abort += 1
            device.write(encode_wal(WAL_DECISION, txn_id, commit=False))
        else:  # WAL_DECISION without END: crash inside the settle window
            commit = rec.commit
            report.redriven += 1
        yield from plane._settle_round(txn_id, rec.participants, commit)
        device.write(encode_wal(WAL_END, txn_id))
        (report.committed if commit else report.aborted).append(txn_id)
    yield from device.fsync()
    return report

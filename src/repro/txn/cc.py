"""Pluggable concurrency control for the transaction plane.

One interface, two protocols (docs/TRANSACTIONS.md):

* :class:`OccControl` — optimistic: execute against stale gateway
  reads, no locks, no waiting — conflicting txns abort and retry.
  Write-shard prepare slices re-check their reads at delivery, and
  read-only shards are certified by one-sided reads of each key's
  value and prepared lock on the shard gateway *after* every write
  shard holds its prepared locks (lock-then-validate, FaRM-style — a
  reader that could observe a half-committed txn finds the writer's
  prepared lock and aborts). Nothing is checked before the prepares:
  a pre-prepare validation would only widen the window in which
  another commit can invalidate the read set.

* :class:`TwoPhaseLocking` — pessimistic: S/X key locks from the
  plane's per-shard :class:`~repro.txn.locks.LockTable` before every
  access (growing phase), released after the settle round (shrinking
  phase = strict 2PL). Deadlock avoidance is wound-wait; the acquire
  charges the ALock-style local/remote delay picked by the plane.

Both buffer writes coordinator-side (read-your-writes served from the
buffer) and ship them in the prepare record, so the replica-side
protocol is identical — the CC choice only changes how conflicts are
*detected* (validation vs locks).
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from .locks import TxnAborted
from .records import W_DELETE, W_PUT

__all__ = ["ConcurrencyControl", "OccControl", "TwoPhaseLocking",
           "resolve_cc", "CC_PROTOCOLS"]


class ConcurrencyControl:
    """Strategy interface: how one txn attempt reads, writes, and
    clears itself for the prepare round. All generator methods run in
    the coordinator's simulated process."""

    name = "abstract"
    #: Acknowledge at the durable DECISION and settle in the background
    #: (True), or settle first (docs/TRANSACTIONS.md, step 7).
    acks_at_decision: bool

    def read(self, plane, txn, key: bytes) -> Generator:
        raise NotImplementedError

    def write(self, plane, txn, key: bytes, value: bytes) -> Generator:
        raise NotImplementedError

    def delete(self, plane, txn, key: bytes) -> Generator:
        raise NotImplementedError

    def validate(self, plane, txn) -> None:
        """Pre-prepare clearance: raise :class:`TxnAborted` to abort
        before any prepare is sequenced (the 2PL wound check)."""
        raise NotImplementedError

    def ordered_prepares(self, txn) -> bool:
        """True when this attempt's prepare round must take its write
        shards one at a time, in shard order, stopping at the first
        failed vote, instead of fanning out (docs/TRANSACTIONS.md)."""
        raise NotImplementedError

    def finish(self, plane, txn) -> None:
        """Release whatever the txn holds (called on every exit path)."""
        raise NotImplementedError

    # ------------------------------------------------------ shared helpers

    @staticmethod
    def _buffered(txn, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Read-your-writes: the latest buffered write for ``key``."""
        for wop, wkey, value in reversed(txn.writes):
            if wkey == key:
                return True, (value if wop == W_PUT else None)
        return False, None

    @staticmethod
    def _stale_read(plane, key: bytes) -> Optional[bytes]:
        sg = plane.router.map.subgroup_of_key(key)
        return plane.service.live_replica(sg).read(key)


class OccControl(ConcurrencyControl):
    """Optimistic concurrency control. Commits are acknowledged at the
    DECISION, before they settle, so a read serves the coordinator
    node's decided writes first. That is safe: the reader certifies
    after the writer's prepare, so it finds the prepared lock or the
    settled value."""

    name = "occ"
    acks_at_decision = True

    def read(self, plane, txn, key: bytes) -> Generator:
        hit, value = self._buffered(txn, key)
        if hit:
            return value
        if key in txn.reads:          # first read wins: repeatable reads
            return txn.reads[key]
        decided = plane.decided_writes.get(txn.coordinator)
        if decided and key in decided:
            value = decided[key][1]
        else:
            value = self._stale_read(plane, key)
        txn.reads[key] = value
        return value
        yield  # pragma: no cover - generator marker (zero-cost read)

    def write(self, plane, txn, key: bytes, value: bytes) -> Generator:
        txn.writes.append((W_PUT, key, value))
        return
        yield  # pragma: no cover - generator marker

    def delete(self, plane, txn, key: bytes) -> Generator:
        txn.writes.append((W_DELETE, key, b""))
        return
        yield  # pragma: no cover - generator marker

    def validate(self, plane, txn) -> None:
        """Nothing to clear: the prepare slices and the one-sided
        certification after them check the read set."""

    def ordered_prepares(self, txn) -> bool:
        """Retries only. A first attempt fans out; when two conflicting
        transactions both did and both aborted, their retries acquire
        prepared locks in shard order, so whichever reaches the lowest
        contended shard first stops the other there and commits."""
        return txn.attempt > 1

    def finish(self, plane, txn) -> None:
        pass


class TwoPhaseLocking(ConcurrencyControl):
    """Strict two-phase locking on the plane's per-shard lock tables."""

    name = "2pl"
    #: Strict 2PL holds its X-locks until the writes apply, so acking
    #: earlier would only queue the client's next txn behind them.
    acks_at_decision = False

    def _lock(self, plane, txn, key: bytes, exclusive: bool) -> Generator:
        shard = plane.router.map.shard_of(key)
        table = plane.lock_table(shard)
        t0 = plane.sim.now
        try:
            yield from table.acquire(txn.handle, key, exclusive,
                                     plane.lock_delay(shard))
        finally:
            txn.lock_seconds += plane.sim.now - t0
        txn.locked_shards.add(shard)

    def read(self, plane, txn, key: bytes) -> Generator:
        hit, value = self._buffered(txn, key)
        if hit:
            return value
        yield from self._lock(plane, txn, key, exclusive=False)
        value = self._stale_read(plane, key)
        txn.reads.setdefault(key, value)
        return value

    def write(self, plane, txn, key: bytes, value: bytes) -> Generator:
        yield from self._lock(plane, txn, key, exclusive=True)
        txn.writes.append((W_PUT, key, value))

    def delete(self, plane, txn, key: bytes) -> Generator:
        yield from self._lock(plane, txn, key, exclusive=True)
        txn.writes.append((W_DELETE, key, b""))

    def validate(self, plane, txn) -> None:
        """Locks already guarantee isolation; only the wound flag can
        still abort the attempt here."""
        if txn.handle.wounded:
            raise TxnAborted(txn.txn_id, "wounded")

    def ordered_prepares(self, txn) -> bool:
        """Never: every key lock is held before the first prepare, so
        no other transaction's prepare can conflict with this one's."""
        return False

    def finish(self, plane, txn) -> None:
        for shard in txn.locked_shards:
            plane.lock_table(shard).release_all(txn.handle)
        txn.locked_shards.clear()


CC_PROTOCOLS = {
    OccControl.name: OccControl,
    TwoPhaseLocking.name: TwoPhaseLocking,
}


def resolve_cc(name: str) -> ConcurrencyControl:
    try:
        return CC_PROTOCOLS[name]()
    except KeyError:
        raise ValueError(
            f"unknown concurrency control {name!r}; "
            f"one of {sorted(CC_PROTOCOLS)}") from None

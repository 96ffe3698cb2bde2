"""Ring-buffer arithmetic and slot values for the SMC (paper §2.3).

Each sender in a subgroup owns ``w`` (window size) slot columns in its
SST row, used in ring-buffer order for consecutive messages. A slot
holds the message area plus a counter; an increase of the counter
signals a new message.

Terminology used throughout the multicast core:

* ``real_index`` — per-sender count of *application* messages; message
  ``real_index=k`` lives in slot ``k % w``. (The paper's slot counter is
  ``k // w``, the wrap count; carrying ``k`` itself is equivalent and
  makes assertions crisper.)
* ``round_index`` — the message's round in the round-robin delivery
  order, i.e. its index among *all* of this sender's messages including
  nulls. The global sequence number of a message from the sender with
  rank ``j`` is ``round_index * num_senders + j``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["SlotValue", "slot_position", "ring_spans", "contiguous_seq", "seq_of"]


class SlotValue(NamedTuple):
    """Contents of one SMC slot: counter metadata + message payload.

    ``payload`` is either ``bytes`` (content-faithful mode) or ``None``
    (timing-only mode used by the large benchmarks); ``size`` always
    carries the application payload size that drives transfer timing.
    A named tuple (one is built per send): immutable without a frozen
    dataclass's ``object.__setattr__`` per field.
    """

    real_index: int
    round_index: int
    size: int
    payload: Optional[bytes]
    queued_at: float


def slot_position(real_index: int, window: int) -> int:
    """Ring-buffer slot used by the message with ``real_index``."""
    return real_index % window


def ring_spans(lo: int, hi: int, window: int) -> List[Tuple[int, int]]:
    """Contiguous slot spans covering real indices ``[lo, hi)``.

    Returns at most two ``(first_slot, count)`` spans — the send batch
    wraps around the ring at most once because at most ``window``
    messages can be outstanding (paper §3.2: "if the queued sends have
    wrapped around the ring buffer, it issues two RDMA writes").
    """
    count = hi - lo
    if count < 0 or count > window:
        raise ValueError(f"span [{lo}, {hi}) exceeds window {window}")
    if count == 0:
        return []
    first = lo % window
    head = min(count, window - first)
    spans = [(first, head)]
    if count > head:
        spans.append((0, count - head))
    return spans


def contiguous_seq(covered: Sequence[int], num_senders: int) -> int:
    """Highest sequence number ``s`` such that all messages with
    ``seq <= s`` are covered, given per-sender covered-round counts.

    ``covered[j]`` is the number of rounds (real + null messages) from
    the sender with rank ``j`` that this node has accounted for. This is
    the computation behind ``received_num`` (paper §2.2).

    >>> contiguous_seq([2, 2], 2)   # both senders through round 1
    3
    >>> contiguous_seq([3, 2], 2)   # rank 0 ahead by one round
    4
    """
    if len(covered) != num_senders or num_senders == 0:
        raise ValueError("covered must have one entry per sender")
    full_rounds = min(covered)
    seq = full_rounds * num_senders - 1
    for j in range(num_senders):
        if covered[j] > full_rounds:
            seq = full_rounds * num_senders + j
        else:
            break
    return seq


def seq_of(round_index: int, sender_rank: int, num_senders: int) -> int:
    """Global sequence number of message ``M(sender_rank, round_index)``."""
    return round_index * num_senders + sender_rank

"""A lost slot write is a hole the receive scan stops at, end to end.

A sender's messages land in its ring slots in order, so a receiver's
arrived run from its cursor (``SMC.arrived``) ends at the first cell
that does not hold the next message — even when a later cell does.
Here one slot write from node 1 to node 2 is dropped by a
``fault_hook`` and node 1's next write lands: node 2 must take node 1's
first message only, leave the later one in its ring, and deliver
nothing at or past the hole's sequence number. A scan that stepped over
the hole would count the later message as received and let delivery
run past it.
"""

from repro.core.config import SpindleConfig
from repro.rdma.nic import DROP_INJECTED_LOSS, FaultDecision
from repro.sim.units import us
from repro.workloads import Cluster, continuous_sender

NODES = 3
SIZE = 128
COUNT = 3
HOLE_SENDER, RECEIVER = 1, 2


def test_the_receive_scan_stops_at_a_dropped_slot_write():
    # Every node sends the same count, so no null round is owed and a
    # dropped real cannot be mistaken for one.
    config = SpindleConfig.optimized().with_(null_sends=False)
    cluster = Cluster(NODES, config=config, seed=2)
    cluster.add_subgroup(message_size=SIZE, window=8)
    cluster.build()
    slot_writes = []

    def drop_second_slot_write(qp, size):
        # Slot spans carry a message; the control span is 24 bytes.
        if qp.dst.node_id == RECEIVER and size > SIZE:
            slot_writes.append(size)
            if len(slot_writes) == 2:
                return FaultDecision(drop_reason=DROP_INJECTED_LOSS)
        return None

    cluster.fabric.nodes[HOLE_SENDER].fault_hook = drop_second_slot_write
    delivered = []
    cluster.group(RECEIVER).on_delivery(
        0, lambda d: delivered.append((d.sender, d.payload)))
    for nid in cluster.node_ids:
        # One message per push (the gap outlasts a send), each carrying
        # its sender and index.
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=COUNT, size=SIZE, delay=us(20),
            payload_fn=lambda k, nid=nid: bytes([nid, k])))
    cluster.run_to_quiescence()

    assert len(slot_writes) == COUNT
    mc = cluster.mc(RECEIVER, 0)
    rank = mc.senders.index(HOLE_SENDER)
    ring = [mc.sst.read(HOLE_SENDER, mc.cols.first_slot + i)
            for i in range(COUNT)]
    # Message 1's slot is empty and message 2 sits past it.
    assert ring[1] is None
    assert ring[2] is not None and ring[2].real_index == 2
    # The scan took message 0 only and never reached message 2.
    assert mc.reals_received[rank] == 1
    assert [slot.real_index for slot in mc.pending[rank]] == []
    # Delivery stops right before the hole's sequence number: round 1
    # of node 1.
    hole_seq = 1 * mc.S + rank
    assert mc.delivered_seq == hole_seq - 1
    assert (HOLE_SENDER, bytes([HOLE_SENDER, 0])) in delivered
    assert all(payload[1] == 0 for sender, payload in delivered
               if sender == HOLE_SENDER)
    assert len(delivered) == hole_seq

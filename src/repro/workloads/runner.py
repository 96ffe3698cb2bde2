"""Experiment runner: the workload scenarios of the paper's evaluation.

Each function assembles a cluster, drives the workload of one evaluation
scenario, and returns an :class:`ExperimentResult` with the metrics the
paper reports. The benchmark harness (benchmarks/) calls these and
formats paper-style tables.

Message counts here are far below the paper's 1 M per sender, and every
throughput is :meth:`Cluster.node_throughput` in *simulated* time
(DESIGN.md §2 says what short counts cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import SpindleConfig, TimingModel
from ..rdma.latency import LatencyModel
from .cluster import Cluster
from .generators import continuous_sender, limited_sender

__all__ = [
    "ExperimentResult",
    "sender_set",
    "drive_to_completion",
    "single_subgroup",
    "multi_subgroup",
    "delayed_senders",
]


@dataclass
class ExperimentResult:
    """Metrics from one experiment run (one cluster, one workload)."""

    throughput: float                 # bytes/s, averaged over nodes (§4)
    latency: float                    # mean queue-to-delivery, seconds
    delivered_per_node: int           # messages delivered at node 0
    duration: float                   # simulated seconds to quiescence
    rdma_writes: int                  # total writes posted (§4.1.1)
    post_time: float                  # predicate-thread posting time, node 0
    busy_time: float                  # predicate-thread busy time, node 0
    sender_wait_fraction: float       # §4.1.1: sender time blocked on slots
    mean_batches: Tuple[float, float, float]  # send/receive/delivery (§4.1.3)
    nulls_sent: int                   # total nulls announced
    per_node_throughput: Dict[int, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_gbps(self) -> float:
        """Throughput in the paper's units (GB/s, decimal)."""
        return self.throughput / 1e9

    @property
    def latency_us(self) -> float:
        return self.latency * 1e6

    @property
    def post_fraction(self) -> float:
        """Fraction of predicate-thread busy time spent posting (§3.2)."""
        if self.busy_time == 0:
            return 0.0
        return self.post_time / self.busy_time

    @property
    def message_rate(self) -> float:
        """Messages delivered per second at one node (Fig. 4)."""
        if self.duration == 0:
            return 0.0
        return self.delivered_per_node / self.duration


def sender_set(n: int, pattern: str) -> List[int]:
    """The paper's three sending patterns (§4.1.1)."""
    if pattern == "all":
        return list(range(n))
    if pattern == "half":
        return list(range(max(1, n // 2)))
    if pattern == "one":
        return [0]
    raise ValueError(f"unknown sender pattern {pattern!r}")


def _collect(cluster: Cluster, subgroup_ids: Sequence[int] = (0,),
             until_fraction: float = 1.0) -> ExperimentResult:
    """The result of a finished run; throughput is measured over
    ``subgroup_ids`` and reported for the first one's other metrics."""
    subgroup_id = subgroup_ids[0]
    per_node = {
        nid: cluster.node_throughput(nid, subgroup_ids, until_fraction)
        for nid in cluster.members_of(subgroup_id)
    }
    group0 = cluster.group(cluster.members_of(subgroup_id)[0])
    stats0 = group0.stats(subgroup_id)
    spec = cluster.view.subgroups[subgroup_id]
    wait = 0.0
    duration = stats0.last_delivery_time or cluster.sim.now
    for nid in spec.senders:
        wait = max(wait, cluster.group(nid).stats(subgroup_id).sender_wait_time)
    # Predicate-thread timers exist only on the SST backend; quorum
    # backends report zero (their CPU story is per-message handlers).
    thread = getattr(group0, "thread", None)
    return ExperimentResult(
        throughput=sum(per_node.values()) / len(per_node),
        latency=cluster.mean_latency(subgroup_id),
        delivered_per_node=stats0.delivered,
        duration=duration,
        rdma_writes=cluster.fabric.total_writes_posted(),
        post_time=thread.post_time if thread is not None else 0.0,
        busy_time=thread.busy_time if thread is not None else 0.0,
        sender_wait_fraction=(wait / duration if duration else 0.0),
        mean_batches=stats0.mean_batches,
        nulls_sent=sum(cluster.group(nid).stats(subgroup_id).nulls_sent
                       for nid in spec.members),
        per_node_throughput=per_node,
    )


def drive_to_completion(cluster: Cluster, expectations: Dict[int, int],
                        max_time: float) -> None:
    """Run a cluster until its workload completes.

    ``expectations`` maps subgroup id -> total deliveries wanted (per
    sender count x senders x members). Backends whose protocol goes
    idle at workload end (Spindle) run to quiescence; backends with
    standing timers (Paxos heartbeats never stop) are polled in slices
    and stopped once every expectation is met. Raises if ``max_time``
    simulated seconds pass first.
    """
    if cluster.backend.quiesces:
        cluster.run_to_quiescence(max_time=max_time)
        return
    deadline = cluster.sim.now + max_time
    step = max_time / 256.0

    def done() -> bool:
        return all(cluster.total_delivered(sg) >= want
                   for sg, want in expectations.items())

    while not done():
        if cluster.sim.now >= deadline:
            raise RuntimeError(
                f"workload incomplete at {deadline}s: "
                f"{ {sg: cluster.total_delivered(sg) for sg in expectations} }"
                f" of {expectations}")
        cluster.run(until=min(deadline, cluster.sim.now + step))
    cluster.stop()


def single_subgroup(
    n: int,
    pattern: str = "all",
    config: Optional[SpindleConfig] = None,
    message_size: int = 10240,
    count: int = 200,
    window: int = 100,
    timing: Optional[TimingModel] = None,
    latency_model: Optional[LatencyModel] = None,
    max_time: float = 60.0,
    seed: int = 0,
    backend=None,
) -> ExperimentResult:
    """§4.1.1: one subgroup over all nodes, continuous senders.

    ``backend`` selects the ordering protocol (``"spindle"`` default,
    ``"paxos"`` for the baseline comparison — docs/ORDERING.md)."""
    config = config if config is not None else SpindleConfig.optimized()
    cluster = Cluster(n, config=config, timing=timing, latency=latency_model,
                      seed=seed, backend=backend)
    senders = sender_set(n, pattern)
    cluster.add_subgroup(senders=senders, window=window,
                         message_size=message_size)
    cluster.build()
    for nid in senders:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=message_size))
    drive_to_completion(cluster, {0: count * len(senders) * n},
                        max_time=max_time)
    cluster.assert_all_delivered(0, per_sender=count)
    return _collect(cluster)


def multi_subgroup(
    n: int,
    num_subgroups: int,
    active_subgroups: int = 1,
    config: Optional[SpindleConfig] = None,
    message_size: int = 10240,
    count: int = 150,
    window: int = 100,
    max_time: float = 120.0,
    seed: int = 0,
) -> ExperimentResult:
    """§4.1.3: all nodes in every subgroup; only some subgroups active.

    With ``active_subgroups == 1`` each node sends in subgroup 0 only
    (the single-active-subgroup test, Figs. 8/9); with more, node
    workloads round-robin across the active subgroups (Fig. 13).
    """
    config = config if config is not None else SpindleConfig.optimized()
    cluster = Cluster(n, config=config, seed=seed)
    for _ in range(num_subgroups):
        cluster.add_subgroup(window=window, message_size=message_size)
    cluster.build()
    for sg in range(active_subgroups):
        for nid in cluster.node_ids:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, sg), count=count, size=message_size))
    cluster.run_to_quiescence(max_time=max_time)
    for sg in range(active_subgroups):
        cluster.assert_all_delivered(sg, per_sender=count)
    result = _collect(cluster, range(active_subgroups))
    result.extras["active_fraction_node0"] = (
        sum(cluster.group(0).thread.subgroup_time_fraction(sg)
            for sg in range(active_subgroups))
    )
    return result


def delayed_senders(
    n: int,
    delayed: Sequence[int],
    delay: float,
    config: Optional[SpindleConfig] = None,
    message_size: int = 10240,
    count: int = 150,
    delayed_count: Optional[int] = None,
    window: int = 100,
    indefinite: bool = False,
    max_time: float = 120.0,
    seed: int = 0,
) -> ExperimentResult:
    """§4.2.1: all senders, but some are delayed (or go silent).

    ``indefinite=True`` makes the delayed senders send a token burst and
    then stop forever (the paper's "lengthy delay").
    """
    config = config if config is not None else SpindleConfig.batching_and_nulls()
    cluster = Cluster(n, config=config, seed=seed)
    cluster.add_subgroup(window=window, message_size=message_size)
    cluster.build()
    delayed_set = set(delayed)
    expected = 0
    for nid in cluster.node_ids:
        if nid in delayed_set:
            if indefinite:
                burst = delayed_count if delayed_count is not None else 2
                cluster.spawn_sender(limited_sender(
                    cluster.mc(nid, 0), count=burst, size=message_size))
                expected += burst
            else:
                slow_count = delayed_count if delayed_count is not None else count
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(nid, 0), count=slow_count, size=message_size,
                    delay=delay))
                expected += slow_count
        else:
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=count, size=message_size))
            expected += count
    cluster.run_to_quiescence(max_time=max_time)
    for nid in cluster.node_ids:
        got = cluster.group(nid).stats(0).delivered
        if got != expected:
            raise AssertionError(f"node {nid} delivered {got}/{expected}")
    # §4.2.1: bandwidth after a fixed number of deliveries.
    result = _collect(cluster, until_fraction=0.85)
    # Inter-delivery time of a continuous sender's messages (§4.2.1).
    continuous = [nid for nid in cluster.node_ids if nid not in delayed_set]
    if continuous:
        observer = cluster.group(continuous[0]).stats(0)
        rank = cluster.view.subgroups[0].senders.index(continuous[0])
        result.extras["interdelivery_continuous"] = (
            observer.mean_interdelivery(rank))
    return result

"""Property-based chaos: protocol invariants hold for *randomized* fault
schedules, not just the curated scenario catalog.

Three families (ISSUE satellite):

* null-send quiescence — under random jitter windows and thread stalls,
  a workload where only a random subset of nodes sends still drains to
  quiescence (§3.3: null-sends must terminate, not chatter forever);
* partition-then-heal convergence — any transient partition healing
  inside the confirmation grace leaves every node in the same (original)
  view with identical delivery logs;
* leader crash mid-view-change — crashing the leader while a view
  change is in progress still yields one consistent successor view at
  every survivor.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SpindleConfig
from repro.sim.units import ms, us
from repro.workloads import Cluster, continuous_sender


def build_cluster(n, seed=0, membership=None, window=8, size=256):
    cluster = Cluster(n, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_subgroup(message_size=size, window=window)
    if membership:
        cluster.enable_membership(**membership)
    cluster.build()
    logs = {nid: [] for nid in cluster.node_ids}
    views = {nid: [] for nid in cluster.node_ids}
    for nid in cluster.node_ids:
        cluster.group(nid).on_delivery(
            0, lambda d, nid=nid: logs[nid].append((d.seq, d.sender)))
        if membership:
            cluster.group(nid).membership.on_new_view.append(
                lambda v, nid=nid: views[nid].append(v))
    return cluster, logs, views


@settings(max_examples=14, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(3, 5),
    sender_mask=st.integers(0, 31),
    count=st.integers(20, 80),
    extra_us=st.floats(0.0, 5.0),
    jitter_us=st.floats(0.0, 8.0),
    stall_at_us=st.integers(50, 1500),
    stall_dur_us=st.integers(100, 600),
    stall_node_idx=st.integers(0, 4),
    seed=st.integers(0, 1000),
)
def test_quiescence_under_jitter_and_stalls(n, sender_mask, count, extra_us,
                                            jitter_us, stall_at_us,
                                            stall_dur_us, stall_node_idx,
                                            seed):
    """Null-send quiescence: whatever subset of nodes sends, and however
    the links jitter and threads stall, the run drains (no perpetual
    null chatter) and the senders' messages are delivered identically
    everywhere."""
    cluster, logs, _ = build_cluster(n, seed=seed)
    senders = [nid for i, nid in enumerate(cluster.node_ids)
               if sender_mask & (1 << i)]
    for nid in senders:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=256))
    # Guard on the converted values: a subnormal draw is truthy but
    # us() underflows it to 0.0, which JitterEvent rejects as a window
    # that injects nothing.
    extra, jitter = us(extra_us), us(jitter_us)
    if extra or jitter:
        cluster.faults.jitter(until=ms(30), extra_latency=extra,
                              jitter=jitter, at=0.0)
    cluster.faults.stall(stall_node_idx % n, duration=us(stall_dur_us),
                         at=us(stall_at_us))
    # The invariant: the run reaches quiescence (raises otherwise) ...
    cluster.run_to_quiescence(max_time=4.0)
    # ... with nothing lost and nothing reordered.
    expected = count * len(senders)
    assert all(len(log) == expected for log in logs.values())
    reference = logs[cluster.node_ids[0]]
    assert all(log == reference for log in logs.values())
    assert cluster.fabric.total_writes_dropped() == 0


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    split_mask=st.integers(1, 6),   # non-trivial bipartition of 4 nodes
    cut_at_us=st.integers(100, 2000),
    cut_len_us=st.integers(200, 900),
    count=st.integers(20, 70),
    seed=st.integers(0, 1000),
)
def test_partition_heal_converges_to_same_view(split_mask, cut_at_us,
                                               cut_len_us, count, seed):
    """A transient partition healing inside the confirmation grace never
    tears the view: every node stays in view 0, local suspicions are
    rescinded, and all delivery logs end identical."""
    cluster, logs, views = build_cluster(
        4, seed=seed,
        membership=dict(heartbeat_period=us(100), suspicion_timeout=us(500),
                        confirmation_grace=us(600)))
    side_a = [nid for i, nid in enumerate(cluster.node_ids)
              if split_mask & (1 << i)]
    side_b = [nid for nid in cluster.node_ids if nid not in side_a]
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=256))
    cluster.faults.partition([side_a, side_b], at=us(cut_at_us),
                             heal_at=us(cut_at_us + cut_len_us),
                             mode="buffer")
    cluster.run(until=ms(80))

    # Same view everywhere: nobody reconfigured, nobody is suspected.
    assert all(not v for v in views.values())
    for nid in cluster.node_ids:
        svc = cluster.group(nid).membership
        assert not svc.suspected_members()
        assert not svc.wedged
    # Identical delivery logs, nothing missing.
    expected = count * 4
    assert all(len(log) == expected for log in logs.values())
    reference = logs[cluster.node_ids[0]]
    assert all(log == reference for log in logs.values())


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    victim_idx=st.integers(1, 4),
    crash_at_us=st.integers(300, 1500),
    leader_delta_us=st.integers(0, 800),
    count=st.integers(40, 150),
    seed=st.integers(0, 1000),
)
def test_leader_crash_mid_view_change_consistent_view(victim_idx,
                                                      crash_at_us,
                                                      leader_delta_us,
                                                      count, seed):
    """Crash a member, then crash the *leader* while the resulting view
    change is still in its detection/wedging phase: the next live member
    takes over the reconfiguration and every survivor installs the same
    successor view with identical delivery logs.

    Five nodes, two crashes: the three survivors keep the strict
    majority the quorum gate demands (with four nodes the protocol
    would — correctly — stall at two-of-four)."""
    n = 5
    victim = 1 + (victim_idx % (n - 1))  # never the leader (node 0)
    cluster, logs, views = build_cluster(
        n, seed=seed, window=6,
        membership=dict(heartbeat_period=us(100),
                        suspicion_timeout=us(500)))
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=256))
    cluster.faults.crash(victim, at=us(crash_at_us))
    # The leader dies inside the suspicion window (timeout + grace =
    # 1 ms), i.e. before any proposal for the first crash can exist.
    cluster.faults.crash(0, at=us(crash_at_us + leader_delta_us))
    cluster.run(until=ms(150))

    survivors = [nid for nid in cluster.node_ids if nid not in (0, victim)]
    final = [views[nid][-1] for nid in survivors if views[nid]]
    assert len(final) == len(survivors), "a survivor missed the view change"
    assert all(v.members == final[0].members for v in final)
    assert 0 not in final[0].members and victim not in final[0].members
    assert final[0].leader == min(survivors)
    reference = logs[survivors[0]]
    assert all(logs[nid] == reference for nid in survivors)

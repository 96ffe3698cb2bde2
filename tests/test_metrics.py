"""Tests for the metrics plane (docs/METRICS.md).

Covers the registry (identity, scoping, the mirror-only metric kinds,
queries that collect first), the JSON/Prometheus exporters (golden
files), SubgroupStats mirrored under its labels, the §4.1.1 stage
profile partition invariant, the byte-identical determinism guarantee,
the metric catalog in docs/METRICS.md, and the benchmark table
plumbing (atomic, newline-normalized emit; quick-mode parameters).
"""

import json
import os
import re
from types import SimpleNamespace

import pytest

from repro.core.config import SpindleConfig
from repro.core.stats import SubgroupStats
from repro.faults.scenarios import SCENARIOS, Run
from repro.metrics import (
    MetricsRegistry,
    check_partition,
    stage_profile,
)
from repro.metrics.mirrors import mirror_view
from repro.sim.units import us
from repro.workloads import Cluster, continuous_sender

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_identity_and_monotonicity(self):
        reg = MetricsRegistry()
        c1 = reg.counter("requests_total", node=1, subgroup=0)
        c2 = reg.counter("requests_total", subgroup=0, node=1)  # reordered
        assert c1 is c2
        c1.set_to(5)
        assert c2.value == 5
        c1.set_to(9)
        with pytest.raises(ValueError):
            c1.set_to(3)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total")

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(7)
        g.set(5)  # last write wins, down as well as up
        assert g.value == 5

    def test_scoped_labels_stamp_and_nest(self):
        reg = MetricsRegistry()
        node = reg.scoped(node=3)
        sub = node.scoped(subgroup=1)
        c = sub.counter("spindle_messages_sent_total")
        assert dict(c.labels) == {"node": "3", "subgroup": "1"}
        c.set_to(10)
        # Filtered queries see through scopes.
        assert reg.value("spindle_messages_sent_total", node=3) == 10
        assert reg.value("spindle_messages_sent_total", node=4) == 0

    def test_histogram_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("batch", buckets=(1, 4, 16))
        # Per-bucket counts of 1, 2, 4, 5, 16, 17, 1000 under inclusive
        # upper edges: 1 | 2,4 | 5,16 | +Inf: 17,1000
        h.set_to([1, 2, 2, 2], 1045, 7)
        assert dict(h.cumulative()) == {"1": 1, "4": 3, "16": 5, "+Inf": 7}
        assert h.count == 7 and h.sum == 1045
        with pytest.raises(ValueError):
            h.set_to([1, 2, 2], 1045, 7)       # one bucket short
        with pytest.raises(ValueError):
            h.set_to([1, 2, 2, 1], 1000, 6)    # fewer observations
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(4, 1))

    def test_timer_mirrors_total_and_spans(self):
        reg = MetricsRegistry()
        t = reg.timer("stage", stage="x")
        assert (t.total, t.count) == (0.0, 0)
        t.set_to(0.5, 2)
        assert (t.total, t.count) == (0.5, 2)
        with pytest.raises(ValueError):
            t.set_to(0.25, 1)

    def test_collectors_run_at_snapshot_time(self):
        reg = MetricsRegistry()
        external = {"drops": 0}
        reg.add_collector(
            lambda: reg.counter("drops_total").set_to(external["drops"]))
        external["drops"] = 3
        snap = reg.snapshot()
        assert snap["metrics"]["drops_total"]["value"] == 3
        # Queries collect first, too.
        external["drops"] = 5
        assert reg.value("drops_total") == 5
        external["drops"] = 6
        assert [m.value for m in reg.metrics("drops_total")] == [6]


# ---------------------------------------------------------------------------
# Exporter golden files
# ---------------------------------------------------------------------------


def _golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("spindle_demo_total", "demo counter", node=0).set_to(3)
    reg.gauge("spindle_demo_gauge", node=0).set(1.5)
    # Observations 1, 2 and 9: one per bucket, +Inf included.
    reg.histogram("spindle_demo_batch", buckets=(1, 2), help="batches"
                  ).set_to([1, 1, 1], 12, 3)
    reg.timer("spindle_demo_time", stage="s").set_to(0.25, 4)
    return reg


GOLDEN_JSON = """\
{
  "metrics": {
    "spindle_demo_batch": {
      "buckets": {
        "+Inf": 3,
        "1": 1,
        "2": 2
      },
      "count": 3,
      "kind": "histogram",
      "sum": 12,
      "value": null
    },
    "spindle_demo_gauge{node=\\"0\\"}": {
      "kind": "gauge",
      "value": 1.5
    },
    "spindle_demo_time{stage=\\"s\\"}": {
      "count": 4,
      "kind": "timer",
      "total_seconds": 0.25
    },
    "spindle_demo_total{node=\\"0\\"}": {
      "kind": "counter",
      "value": 3
    }
  },
  "schema_version": 1
}"""

GOLDEN_PROM = """\
# HELP spindle_demo_batch batches
# TYPE spindle_demo_batch histogram
spindle_demo_batch_bucket{le="1"} 1
spindle_demo_batch_bucket{le="2"} 2
spindle_demo_batch_bucket{le="+Inf"} 3
spindle_demo_batch_sum 12
spindle_demo_batch_count 3
# TYPE spindle_demo_gauge gauge
spindle_demo_gauge{node="0"} 1.5
# TYPE spindle_demo_time_seconds_total counter
spindle_demo_time_seconds_total{stage="s"} 0.25
# TYPE spindle_demo_time_spans_total counter
spindle_demo_time_spans_total{stage="s"} 4
# HELP spindle_demo_total demo counter
# TYPE spindle_demo_total counter
spindle_demo_total{node="0"} 3
"""


class TestExporters:
    def test_json_golden(self):
        got = json.loads(_golden_registry().to_json())
        want = json.loads(GOLDEN_JSON)
        # "value": null placeholder in the golden marks absence; drop it.
        want["metrics"]["spindle_demo_batch"].pop("value")
        assert got == want

    def test_prometheus_golden(self):
        assert _golden_registry().to_prometheus() == GOLDEN_PROM


# ---------------------------------------------------------------------------
# SubgroupStats mirrored into the registry
# ---------------------------------------------------------------------------


class TestSubgroupStatsView:
    def test_records_flow_into_registry(self):
        reg = MetricsRegistry()
        stats = SubgroupStats()
        group = SimpleNamespace(multicasts={0: SimpleNamespace(stats=stats)})
        mirror_view(reg, 4, {2: group})
        for _ in range(3):
            stats.record_send(0.0)
        stats.received += 7
        stats.nulls_sent += 2
        stats.sends_blocked += 1
        stats.sender_wait_time += 0.5
        stats.sender_waits += 1
        stats.send_lock_wait_time += 0.25
        stats.send_lock_waits += 1
        stats.record_delivery(1.0, 0, 100, queued_at=0.5)
        # The mirror reads the plain counts, labelled, at query time.
        assert reg.value("spindle_messages_sent_total", node=2) == 3
        assert reg.value("spindle_messages_received_total",
                         node=2, subgroup=0, view=4) == 7
        assert reg.value("spindle_nulls_announced_total", node=2) == 2
        assert reg.value("spindle_sends_blocked_total", node=2) == 1
        assert reg.value("spindle_stage_time_seconds", node=2,
                         stage="send_slot_acquire") == 0.5
        assert reg.value("spindle_stage_time_seconds", node=2,
                         stage="send_lock_acquire") == 0.25
        (latency,) = reg.metrics("spindle_delivery_latency_seconds")
        assert (latency.count, latency.sum) == (1, 0.5)
        assert latency.counts[-1] == 1  # 0.5 s is past the last edge


# ---------------------------------------------------------------------------
# Cluster integration: profile partition + determinism
# ---------------------------------------------------------------------------


def _run_cluster(n=4, count=60, seed=0):
    cluster = Cluster(n, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_subgroup(window=20, message_size=2048)
    cluster.build()
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=count, size=2048))
    cluster.run_to_quiescence(max_time=30.0)
    cluster.assert_all_delivered(0, per_sender=count)
    return cluster


class TestClusterMetrics:
    def test_stage_partition_within_5pct_of_busy_time(self):
        cluster = _run_cluster()
        profile = stage_profile(cluster.metrics)
        ok, deviation = check_partition(profile, tolerance=0.05)
        assert ok, f"stage partition off by {deviation:.2%}"
        assert profile["predicate_busy"] > 0
        # The partition also matches the threads' own busy-time sums.
        busy = sum(cluster.group(nid).thread.busy_time
                   for nid in cluster.node_ids)
        assert profile["partition_total"] == pytest.approx(busy, rel=0.05)

    @pytest.mark.parametrize("early", [True, False],
                             ids=["postlock", "prelock"])
    def test_posting_is_posting_and_the_partition_is_exact(self, early):
        """With an application observing the subgroup, the delivery
        stage (upcalls included) is billed to the delivery predicate in
        either lock phase — the sst_post stage holds the pushes and
        nothing else — and the partition is exact, not within 5 %."""
        config = SpindleConfig.optimized().with_(early_lock_release=early)
        cluster = Cluster(4, config=config, seed=0)
        cluster.add_subgroup(window=20, message_size=2048)
        cluster.build()
        for nid in cluster.node_ids:
            cluster.group(nid).on_delivery(0, lambda _delivery: None)
            cluster.spawn_sender(continuous_sender(
                cluster.mc(nid, 0), count=60, size=2048))
        cluster.run_to_quiescence(max_time=30.0)
        cluster.assert_all_delivered(0, per_sender=60)
        reg = cluster.metrics
        post_overhead = cluster.fabric.latency.post_overhead
        phase = "postlock" if early else "prelock"
        for nid in cluster.node_ids:
            group = cluster.group(nid)
            posting = reg.value("spindle_stage_time_seconds", node=nid,
                                stage="sst_post", lock_phase=phase)
            assert posting == group.thread.post_time
            assert posting == pytest.approx(
                group.sst.pushes_posted * post_overhead, rel=1e-9)
            upcalls = reg.value("spindle_stage_time_seconds", node=nid,
                                stage="delivery_upcall")
            assert 0 < upcalls <= reg.value(
                "spindle_stage_time_seconds", node=nid,
                stage="delivery_predicate")
        profile = stage_profile(reg)
        assert profile["partition_total"] == pytest.approx(
            profile["predicate_busy"], rel=1e-9)

    def test_send_lock_wait_is_the_time_queued_for_the_lock(self):
        """A send queued behind a lock holder bills its wait to
        send_lock_acquire; an uncontended one bills nothing."""
        cluster = Cluster(2, config=SpindleConfig.optimized(), seed=0)
        cluster.add_subgroup(window=10, message_size=64)
        cluster.build()
        mc = cluster.mc(0, 0)
        lock = mc.thread.lock

        def holder():
            yield lock.acquire()
            yield us(5.0)
            lock.release()

        def sender():
            yield us(1.0)
            yield from mc.queue_message(64, None)  # queues until 5 us
            yield us(10.0)
            yield from mc.queue_message(64, None)  # uncontended

        cluster.spawn_sender(holder())
        cluster.spawn_sender(sender())
        cluster.run_to_quiescence()
        assert mc.stats.send_lock_waits == 1
        # The holder's remaining 4 us, plus any polling pass queued first.
        assert us(4.0) <= mc.stats.send_lock_wait_time < us(5.0)
        assert cluster.metrics.value(
            "spindle_stage_time_seconds", node=0,
            stage="send_lock_acquire") == mc.stats.send_lock_wait_time

    def test_snapshot_contains_expected_families(self):
        cluster = _run_cluster(count=30)
        snap = cluster.metrics_snapshot()
        names = {key.split("{")[0] for key in snap["metrics"]}
        for family in (
            "spindle_messages_sent_total",
            "spindle_messages_delivered_total",
            "spindle_smc_writes_total",
            "spindle_sst_pushes_total",
            "spindle_stage_time_seconds",
            "spindle_predicate_busy_seconds",
            "spindle_nic_writes_posted_total",
            "spindle_rdma_writes_posted_total",
            "spindle_batch_size",
            "spindle_delivery_latency_seconds",
        ):
            assert family in names, family
        # Fabric mirrors agree with the NIC-side ground truth.
        assert (snap["metrics"]["spindle_rdma_writes_posted_total"]["value"]
                == cluster.fabric.total_writes_posted())

    def test_same_seed_runs_export_byte_identical_json(self):
        json_a = _run_cluster(count=40, seed=7).metrics_json()
        json_b = _run_cluster(count=40, seed=7).metrics_json()
        assert json_a == json_b

    def test_different_seed_changes_nothing_structural(self):
        # Different seeds may reorder deliveries but keep schema valid.
        snap = json.loads(_run_cluster(count=30, seed=3).metrics_json())
        assert snap["schema_version"] == 1
        assert snap["metrics"]

    def test_nothing_exists_before_the_first_snapshot(self):
        cluster = _run_cluster(n=3, count=20)
        assert cluster.metrics._metrics == {}
        first = cluster.metrics_json()
        assert cluster.metrics._metrics
        assert cluster.metrics_json() == first

    def test_queries_read_fresh_mirrors(self):
        """value() reflects the run at the time of the query, with no
        snapshot before it and after more traffic."""
        cluster = Cluster(3, config=SpindleConfig.optimized())
        cluster.add_subgroup(window=10, message_size=1024)
        cluster.build()

        def load():
            for nid in cluster.node_ids:
                cluster.spawn_sender(continuous_sender(
                    cluster.mc(nid, 0), count=20, size=1024))
            cluster.run_to_quiescence(max_time=30.0)
            return cluster.metrics.value("spindle_rdma_writes_posted_total")

        first = load()
        assert first == cluster.fabric.total_writes_posted() > 0
        assert load() == cluster.fabric.total_writes_posted() > first


#: Scenarios whose runs between them drive every plane: shards, the
#: router, transactions, a fault schedule and crash recovery.
FULL_PLANE_SCENARIOS = ("txn-coordinator-crash", "crash-restart-rejoin")


def _catalog_names():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                        "METRICS.md")
    with open(path, encoding="utf-8") as f:
        doc = f.read()
    catalog = doc.split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in catalog.splitlines():
        if line.startswith("| `spindle_"):
            names.update(re.findall(r"`(spindle_[a-z_]+)", line.split("|")[1]))
    return names


def test_metric_catalog_lists_every_exported_family():
    exported = set()
    for name in FULL_PLANE_SCENARIOS:
        run = Run(SCENARIOS[name], 0)
        run.execute()
        exported |= {key.split("{")[0]
                     for key in run.cluster.metrics_snapshot()["metrics"]}
    assert {"spindle_router_requests_total", "spindle_txn_committed_total",
            "spindle_fault_events_armed_total",
            "spindle_recovery_stage_seconds"} <= exported
    assert sorted(exported - _catalog_names()) == []


# ---------------------------------------------------------------------------
# CLI subcommand
# ---------------------------------------------------------------------------


class TestMetricsCli:
    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_profile_partitions_busy_time(self, capsys):
        code, out = self.run(capsys, "metrics", "--nodes", "4",
                             "--count", "40", "--profile")
        assert code == 0
        assert "predicate busy" in out
        assert "partition check" in out and "ok" in out

    def test_json_format(self, capsys):
        code, out = self.run(capsys, "metrics", "--nodes", "2",
                             "--count", "20", "--format", "json")
        assert code == 0
        snap = json.loads(out)
        assert snap["schema_version"] == 1

    def test_prom_format(self, capsys):
        code, out = self.run(capsys, "metrics", "--nodes", "2",
                             "--count", "20", "--format", "prom")
        assert code == 0
        assert "# TYPE spindle_messages_sent_total counter" in out


# ---------------------------------------------------------------------------
# Benchmark table plumbing (benchmarks/_common.py)
# ---------------------------------------------------------------------------


@pytest.fixture()
def bench_common(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import _common

    return _common


class TestBenchArtifacts:
    def test_emit_is_atomic_and_newline_normalized(self, bench_common,
                                                   monkeypatch, tmp_path,
                                                   capsys):
        monkeypatch.setattr(bench_common, "RESULTS_DIR", str(tmp_path))
        bench_common.emit("demo", "line1\r\nline2\n\n\n")
        body = (tmp_path / "demo.txt").read_bytes()
        assert body == b"line1\nline2\n"
        assert not list(tmp_path.glob("*.tmp"))  # no temp litter

    def test_quick_mode_pick(self, bench_common, monkeypatch):
        monkeypatch.delenv("SPINDLE_BENCH_QUICK", raising=False)
        assert bench_common.pick("full", "quick") == "full"
        monkeypatch.setenv("SPINDLE_BENCH_QUICK", "1")
        assert bench_common.pick("full", "quick") == "quick"


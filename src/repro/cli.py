"""Command-line interface: run the paper's experiments without writing code.

Examples::

    python -m repro.cli single --nodes 8 --pattern all --config optimized
    python -m repro.cli single --nodes 16 --config baseline --count 60
    python -m repro.cli multi --nodes 8 --subgroups 10 --active 1
    python -m repro.cli delayed --nodes 8 --delayed 1 --delay-us 100
    python -m repro.cli rdmc --nodes 16 --size 8388608
    python -m repro.cli compare --nodes 8
    python -m repro.cli check src

Each experiment command prints the metrics the paper reports (GB/s
averaged over nodes, latency, batch sizes, RDMA write counts); ``check``
runs the spindle-check static invariant analyzer (docs/CHECK.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis import format_table, gbps, usec
from .core.config import SpindleConfig
from .sim.units import us

CONFIGS = {
    "baseline": SpindleConfig.baseline,
    "batching": SpindleConfig.batching_only,
    "nulls": SpindleConfig.batching_and_nulls,
    "optimized": SpindleConfig.optimized,
}


def _result_rows(result):
    return [
        ["throughput (GB/s)", gbps(result.throughput)],
        ["mean latency (us)", usec(result.latency)],
        ["message rate (msg/s)", f"{result.message_rate:,.0f}"],
        ["RDMA writes", f"{result.rdma_writes:,}"],
        ["post/busy fraction", f"{result.post_fraction * 100:.0f}%"],
        ["sender wait fraction", f"{result.sender_wait_fraction * 100:.0f}%"],
        ["mean batches s/r/d", "/".join(f"{b:.1f}" for b in result.mean_batches)],
        ["nulls sent", f"{result.nulls_sent}"],
        ["simulated duration", f"{result.duration * 1e3:.2f} ms"],
    ]


def cmd_single(args) -> int:
    from .workloads import single_subgroup

    result = single_subgroup(
        args.nodes, args.pattern, CONFIGS[args.config](),
        message_size=args.size, count=args.count, window=args.window,
        backend=args.backend,
    )
    print(format_table(["metric", "value"], _result_rows(result)))
    return 0


def cmd_multi(args) -> int:
    from .workloads import multi_subgroup

    result = multi_subgroup(
        args.nodes, num_subgroups=args.subgroups,
        active_subgroups=args.active, config=CONFIGS[args.config](),
        message_size=args.size, count=args.count, window=args.window,
    )
    print(format_table(["metric", "value"], _result_rows(result)))
    return 0


def cmd_delayed(args) -> int:
    from .workloads import delayed_senders

    result = delayed_senders(
        args.nodes, delayed=list(range(args.delayed)),
        delay=us(args.delay_us), config=CONFIGS[args.config](),
        message_size=args.size, count=args.count,
        indefinite=args.indefinite,
    )
    rows = _result_rows(result)
    inter = result.extras.get("interdelivery_continuous")
    if inter:
        rows.append(["interdelivery, continuous sender",
                     f"{inter * 1e6:.2f} us"])
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_rdmc(args) -> int:
    from .rdma import RdmaFabric
    from .rdmc import RdmcGroup, SCHEMES
    from .sim import Simulator

    rows = []
    for scheme in SCHEMES:
        sim = Simulator()
        fabric = RdmaFabric(sim)
        members = [fabric.add_node().node_id for _ in range(args.nodes)]
        group = RdmcGroup(fabric, members, block_size=args.block,
                          scheme=scheme)
        session = group.multicast(members[0], args.size)
        sim.run()
        worst = max(session.completion_time(m) for m in members)
        rows.append([scheme, f"{worst * 1e6:.0f}",
                     gbps(args.size / worst)])
    print(format_table(["scheme", "completion (us)", "eff. GB/s"], rows))
    return 0


def cmd_compare(args) -> int:
    from .workloads import single_subgroup

    rows = []
    for name, factory in CONFIGS.items():
        count = args.count if name != "baseline" else max(40, args.count // 3)
        result = single_subgroup(args.nodes, args.pattern, factory(),
                                 message_size=args.size, count=count,
                                 window=args.window)
        rows.append([name, gbps(result.throughput), usec(result.latency),
                     f"{result.rdma_writes:,}"])
    print(format_table(
        ["config", "GB/s", "latency (us)", "RDMA writes"], rows))
    return 0


def cmd_chaos(args) -> int:
    """Run named chaos scenarios (docs/FAULTS.md) across a seed sweep."""
    import json

    from .faults.scenarios import SCENARIOS, run_scenario

    if args.list:
        rows = [[name, spec.summary.strip().split("\n")[0]]
                for name, spec in SCENARIOS.items()]
        print(format_table(["scenario", "description"], rows))
        return 0

    if args.scenario:
        unknown = [s for s in args.scenario if s not in SCENARIOS]
        if unknown:
            print(f"chaos: unknown scenario(s): {', '.join(unknown)} "
                  f"(try --list)", file=sys.stderr)
            return 2
        names = args.scenario
    elif args.all:
        names = list(SCENARIOS)
    else:
        print("chaos: pick --scenario NAME (repeatable), --all, or --list",
              file=sys.stderr)
        return 2

    sanitize = (os.environ.get("SPINDLE_SANITIZE", "").strip().lower()
                in ("1", "true", "yes", "on")) or args.sanitize
    sanitizer = None
    if sanitize:
        from .analysis.lint.sanitizer import enable_global

        sanitizer = enable_global(strict=True)

    seeds = list(range(args.seed, args.seed + args.sweep))
    rows = []
    failures = []
    summary: "dict[str, dict]" = {}
    for name in names:
        for seed in seeds:
            runs = [run_scenario(name, seed)
                    for _ in range(max(1, args.repeat))]
            result = runs[0]
            replay_ok = all(
                r.log_digest == result.log_digest
                and r.trace_fingerprint == result.trace_fingerprint
                for r in runs[1:]
            )
            problems = list(result.problems)
            if not replay_ok:
                problems.append("replay diverged: same seed + schedule "
                                "produced different logs")
            ok = result.ok and replay_ok
            rows.append([
                name, str(seed), "ok" if ok else "FAIL",
                str(sum(result.delivered.values())),
                result.log_digest[:12],
                "; ".join(problems) if problems else "-",
            ])
            if not ok:
                failures.append((name, seed, result, problems))
            stats = summary.setdefault(name, {
                "pass": 0, "fail": 0, "delivered": 0,
                "lin": None, "first_problem": None})
            stats["pass" if ok else "fail"] += 1
            stats["delivered"] += sum(result.delivered.values())
            if result.linearizability is not None:
                lin_ok = (result.linearizability["ok"]
                          and stats["lin"] in (None, "ok"))
                stats["lin"] = "ok" if lin_ok else "VIOLATION"
            if problems and stats["first_problem"] is None:
                stats["first_problem"] = problems[0]
            if args.json:
                payload = result.to_dict()
                payload["replay_ok"] = replay_ok
                print(json.dumps(payload, sort_keys=True))

    if not args.json:
        print(format_table(
            ["scenario", "seed", "status", "delivered", "log digest",
             "problems"], rows))
        if len(names) > 1 or len(seeds) > 1:
            summary_rows = [[
                name,
                f"{st['pass']}/{st['pass'] + st['fail']}",
                str(st["delivered"]),
                st["lin"] or "-",
                st["first_problem"] or "-",
            ] for name, st in summary.items()]
            print()
            print(format_table(
                ["scenario", "passed", "delivered", "linearizable",
                 "first problem"], summary_rows))
        if sanitizer is not None:
            print(sanitizer.report().splitlines()[0])

    if failures and args.artifact_dir:
        os.makedirs(args.artifact_dir, exist_ok=True)
        for name, seed, result, problems in failures:
            path = os.path.join(args.artifact_dir,
                                f"chaos-{name}-seed{seed}.json")
            artifact = result.to_dict()
            artifact["problems"] = problems
            artifact["replay_cmd"] = (
                f"spindle-repro chaos --scenario {name} --seed {seed}")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(artifact, fh, indent=2, sort_keys=True)
            print(f"chaos: wrote failure artifact {path}", file=sys.stderr)

    if failures:
        print(f"chaos: {len(failures)} failing (scenario, seed) pair(s)",
              file=sys.stderr)
        return 1
    return 0


def cmd_recover(args) -> int:
    """Run a crash → replay → transfer → rejoin pipeline in-process and
    print the recovery audit: per-stage timers, chunked-transfer stats,
    the trim ledger, and the cross-view virtual-synchrony verifier
    verdict (docs/RECOVERY.md)."""
    import json
    from dataclasses import replace

    from .faults.scenarios import SCENARIOS, Run
    from .faults.schedule import CrashEvent, FaultSchedule
    from .sim.units import ms

    crash_node = (args.crash_node if args.crash_node is not None
                  else args.nodes - 1)
    if not 0 <= crash_node < args.nodes:
        print("recover: --crash-node out of range", file=sys.stderr)
        return 2

    # The crash-restart-rejoin scenario with the flags mapped onto its
    # spec; this command prints its own audit, so only the verifier is
    # armed and the scenario's verdict is not consulted.
    h = Run(replace(
        SCENARIOS["crash-restart-rejoin"], nodes=args.nodes,
        load=dict(puts=args.puts, pad=32, gap=us(40)),
        recovery=dict(chunk_size=args.chunk_size,
                      chunk_timeout=us(args.chunk_timeout_us),
                      drop_chunks=frozenset(args.drop_chunk or ())),
        faults=FaultSchedule(events=[CrashEvent(
            ms(args.crash_ms), crash_node, restart_at=ms(args.restart_ms))]),
        until=ms(args.until_ms), auditors=("vsync",), floors={}, expect=None),
        args.seed)
    h.execute()
    cluster = h.cluster

    report = cluster.recovery.reports.get(crash_node)
    vs = h.verifier.check()

    if args.json:
        print(json.dumps({
            "report": report.to_dict() if report is not None else None,
            "vsync": vs.to_dict(),
            "trim_ledger": cluster.trim_ledger.to_dict(),
            "final_view": {"view_id": cluster.view.view_id,
                           "members": list(cluster.view.members)},
        }, indent=2, sort_keys=True))
    else:
        if report is None:
            print(f"recover: node {crash_node} never restarted "
                  f"(no recovery report)", file=sys.stderr)
            return 1
        rows = [["state", report.state],
                ["started (ms)", f"{report.started_at * 1e3:.3f}"],
                ["finished (ms)", f"{report.finished_at * 1e3:.3f}"],
                ["rejoin view", str(report.rejoin_view_id)],
                ["cut retries", str(report.cut_retries)]]
        for stage, secs in report.stage_seconds.items():
            rows.append([f"stage {stage} (us)", f"{secs * 1e6:.1f}"])
        for sg_id in sorted(report.replayed):
            rows.append([f"sg{sg_id} replayed / fetched",
                         f"{report.replayed.get(sg_id, 0)} / "
                         f"{report.fetched.get(sg_id, 0)} entries"])
        for sg_id, xfer in sorted(report.transfers.items()):
            rows.append([f"sg{sg_id} transfer",
                         f"{xfer.bytes_transferred} B over {xfer.chunks} "
                         f"chunks from node {xfer.source} "
                         f"(sources tried: {xfer.sources_used})"])
            rows.append([f"sg{sg_id} retries",
                         f"{xfer.timeouts} timeouts "
                         f"({xfer.injected_timeouts} injected), "
                         f"{xfer.failovers} failovers, backoff "
                         f"{xfer.backoff_total * 1e6:.0f} us"])
        for sg_id, ok in sorted(report.checksum_ok.items()):
            rows.append([f"sg{sg_id} checksum vs source",
                         {True: "match", False: "MISMATCH",
                          None: "no hook"}[ok]])
        print(format_table(["recovery", "value"], rows))
        print()
        trims = [[str(d.prior_view_id), str(d.next_view_id), d.kind,
                  ", ".join(f"sg{sg}={t}"
                            for sg, t in sorted(d.trims.items()))]
                 for d in cluster.trim_ledger.committed.values()]
        if trims:
            print(format_table(
                ["ending view", "next view", "kind", "trims"], trims))
            print()
        print(f"final view: {cluster.view.view_id} "
              f"members={cluster.view.members}")
        print(f"vsync: {'ok' if vs.ok else 'FAIL'} — "
              f"{vs.deliveries_checked} deliveries over "
              f"{vs.epochs_checked} epochs"
              + ("" if vs.ok else f"; {vs.violations[:3]}"))
        for problem in report.problems:
            print(f"problem: {problem}", file=sys.stderr)

    ok = (report is not None and report.done and vs.ok
          and not report.problems)
    return 0 if ok else 1


def cmd_metrics(args) -> int:
    """Run a workload in-process and print the metrics registry
    (docs/METRICS.md): a snapshot in table/JSON/Prometheus form, and —
    with ``--profile`` — the per-stage pipeline time breakdown whose
    total must match the predicate-thread busy time."""
    from .metrics import (
        check_partition,
        format_stage_profile,
        stage_profile,
    )
    from .workloads.cluster import Cluster
    from .workloads.generators import continuous_sender
    from .workloads.runner import sender_set

    cluster = Cluster(args.nodes, config=CONFIGS[args.config](),
                      seed=args.seed)
    senders = sender_set(args.nodes, args.pattern)
    cluster.add_subgroup(senders=senders, window=args.window,
                         message_size=args.size)
    cluster.build()
    for nid in senders:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=args.count, size=args.size))

    if args.watch:
        interval = args.watch / 1e3  # ms of simulated time
        last = [-1, -1]

        def tick() -> None:
            stats0 = cluster.group(senders[0]).stats(0)
            now = [stats0.delivered, cluster.fabric.total_writes_posted()]
            if now == last:
                return  # quiescent: stop rescheduling so the run can end
            last[:] = now
            print(f"[watch t={cluster.sim.now * 1e3:8.3f} ms] "
                  f"delivered={now[0]:6d} rdma_writes={now[1]:7d}")
            cluster.sim.call_at(cluster.sim.now + interval, tick)

        cluster.sim.call_at(interval, tick)

    cluster.run_to_quiescence(max_time=args.max_time)

    if args.format == "json":
        print(cluster.metrics_json())
    elif args.format == "prom":
        print(cluster.metrics_prometheus())
    else:
        snap = cluster.metrics_snapshot()
        rows = []
        for key, sample in snap["metrics"].items():
            kind = sample["kind"]
            if kind in ("counter", "gauge"):
                rows.append([key, kind, f"{sample['value']:g}"])
            elif kind == "histogram":
                rows.append([key, kind,
                             f"count={sample['count']} sum={sample['sum']:g}"])
            else:  # timer
                rows.append([key, kind,
                             f"spans={sample['count']} "
                             f"total={sample['total_seconds'] * 1e6:.1f} us"])
        print(format_table(["metric", "kind", "value"], rows))

    if args.profile:
        profile = stage_profile(cluster.metrics)
        print()
        print(format_stage_profile(profile))
        ok, rel_err = check_partition(profile)
        print(f"partition check: stage total vs predicate busy time "
              f"differs by {rel_err * 100:.2f}% "
              f"({'ok' if ok else 'FAIL — over 5% tolerance'})")
        if not ok:
            return 1
    return 0


def cmd_shard(args) -> int:
    """Drive the sharded service plane (docs/SHARDING.md): N shards
    over subgroups of ``--replication`` members, M open-loop Poisson
    clients pushing rid-framed PUTs through the request router, then
    report router/admission counters, per-shard placement, SLO
    percentiles, and the cross-shard checksum audit."""
    import json as _json
    from random import Random

    from .shard.router import REJECT_REASONS
    from .workloads.cluster import Cluster
    from .workloads.generators import SloStats, open_loop_client

    cluster = Cluster(args.nodes, config=CONFIGS[args.config](),
                      seed=args.seed)
    cluster.add_shards(num_shards=args.shards, replication=args.replication,
                       window=args.window, message_size=args.size)
    cluster.build()
    router = cluster.router()

    stats = SloStats()
    value = b"v" * max(1, args.size // 4)
    deadline = args.slo_ms * 1e-3

    def factory(client: int):
        def make(k: int):
            key = b"c%d.k%d" % (client, k)
            return router.request("put", key, value,
                                  deadline=cluster.sim.now + deadline)
        return make

    for c in range(args.clients):
        cluster.spawn_sender(
            open_loop_client(cluster.sim, factory(c), rate=args.rate,
                             count=args.ops, rng=Random(args.seed * 7919 + c),
                             stats=stats, deadline=deadline,
                             name=f"client{c}"),
            name=f"client{c}")
    cluster.run_to_quiescence(max_time=args.max_time)

    audit = router.verifier.check()
    placement = router.map.placement()
    per_sg = {sg: cluster.total_delivered(sg)
              for sg in router.map.subgroup_ids}
    if args.json:
        print(_json.dumps({
            "shards": args.shards,
            "clients": args.clients,
            "placement": {str(k): v for k, v in placement.items()},
            "counters": router.counters.to_dict(),
            "slo": stats.to_dict(),
            "delivered_per_subgroup": {str(k): v for k, v in per_sg.items()},
            "audit": audit.to_dict(),
            "map_digest": router.map.digest(),
        }, indent=2, sort_keys=True))
        return 0 if audit.ok else 1

    rows = [[f"shard {s}", f"subgroup {sg}",
             f"queue={router.queue_depth(s)}"]
            for s, sg in sorted(placement.items())]
    print(format_table(["shard", "placement", "state"], rows))
    c = router.counters
    print(format_table(["router metric", "value"], [
        ["accepted", str(c.accepted)],
        ["completed", str(c.completed)],
        *([f"rejected ({reason})", str(c.rejected.get(reason, 0))]
          for reason in REJECT_REASONS),
        ["client gave up", str(c.client_gaveup)],
        ["queue timeouts", str(c.timeouts)],
        ["reroutes", str(c.reroutes)],
        ["epoch retries", str(c.epoch_retries)],
    ]))
    print(format_table(["SLO metric", "value"], [
        ["submitted", str(stats.submitted)],
        ["ok", str(stats.ok)],
        ["rejected", str(stats.rejected)],
        ["timeouts", str(stats.timeouts)],
        ["SLO misses", str(stats.slo_misses)],
        ["p50 latency (us)", f"{stats.p50() * 1e6:.1f}"],
        ["p99 latency (us)", f"{stats.p99() * 1e6:.1f}"],
    ]))
    print(f"delivered per subgroup: "
          + ", ".join(f"sg{sg}={n}" for sg, n in sorted(per_sg.items())))
    print(f"cross-shard audit: "
          f"{'ok' if audit.ok else 'FAIL'} "
          f"({audit.shards_checked} shards, {audit.keys_checked} keys"
          + (f", violations: {audit.violations[:3]}" if audit.violations
             else "") + ")")
    return 0 if audit.ok else 1


def cmd_txn(args) -> int:
    """Drive the cross-shard transaction plane (docs/TRANSACTIONS.md):
    seeded clients run multi-key read/write transactions under the
    chosen concurrency control ("occ" or "2pl"), then report commit and
    abort counters, the per-stage coordinator time split, lock-table
    traffic, and a txn-granular strict-serializability audit."""
    import json as _json
    from random import Random

    from .analysis.linearize import TxnHistoryRecorder, check_txn_recorder
    from .txn import TxnConfig, TxnOp
    from .workloads.cluster import Cluster

    cluster = Cluster(args.nodes, config=CONFIGS[args.config](),
                      seed=args.seed)
    cluster.add_shards(num_shards=args.shards, replication=args.replication,
                       window=args.window, message_size=args.size)
    cluster.build()
    plane = cluster.txn(TxnConfig(cc=args.cc))
    router = plane.router
    sim = cluster.sim

    recorder = TxnHistoryRecorder()
    latencies: List[float] = []
    outcomes: List[str] = []
    span = [0.0]  # time of the last txn completion (workload span)

    def client(c: int):
        rng = Random(args.seed * 6151 + c)
        for i in range(args.txns):
            keys = sorted({b"k%d" % rng.randrange(args.keys)
                           for _ in range(args.ops)})
            ops, writes = [], {}
            for key in keys:
                if rng.random() < args.read_ratio:
                    ops.append(TxnOp("get", key))
                else:
                    value = b"c%d.t%d" % (c, i)
                    ops.append(TxnOp("put", key, value))
                    writes[key] = value
            tid = recorder.invoke(c, sim.now)
            t0 = sim.now
            out = yield from plane.run_txn(ops, coordinator_node=0)
            outcomes.append(out.status)
            span[0] = max(span[0], sim.now)
            if out.status == "committed":
                latencies.append(sim.now - t0)
                reads = {op.key: value for op, value in
                         zip([o for o in ops if o.op == "get"], out.reads)}
                recorder.complete(tid, sim.now, reads=reads, writes=writes)
            else:
                recorder.drop(tid)
            yield us(args.gap_us)

    for c in range(args.clients):
        cluster.spawn_sender(client(c), name=f"txn-client-{c}")
    cluster.run_to_quiescence(max_time=args.max_time)

    c = plane.counters
    stages = plane.stage_seconds()
    locks = plane.lock_counters()
    audit = check_txn_recorder(recorder)
    shard_audit = router.verifier.check()
    duration = span[0]
    tps = c.committed / duration if duration > 0 else 0.0
    latencies.sort()

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1,
                             int(p * (len(latencies) - 1)))]

    ok = audit.ok and shard_audit.ok
    if args.json:
        print(_json.dumps({
            "cc": args.cc,
            "committed": c.committed,
            "aborted": c.aborted,
            "counters": c.to_dict(),
            "locks": locks,
            "stage_seconds": stages,
            "throughput_tps": tps,
            "p50_latency_us": pct(0.50) * 1e6,
            "p99_latency_us": pct(0.99) * 1e6,
            "serializability": audit.to_dict(),
            "shard_audit": shard_audit.to_dict(),
            "duration": duration,
        }, indent=2, sort_keys=True))
        return 0 if ok else 1

    print(format_table(["txn metric", "value"], [
        ["concurrency control", args.cc],
        ["committed", str(c.committed)],
        ["aborted", str(c.aborted)],
        ["attempts", str(c.attempts)],
        ["fastpath commits", str(c.fastpath_commits)],
        ["validation aborts", str(c.validation_aborts)],
        ["wound/wait aborts", str(c.wound_aborts)],
        ["prepare 'no' votes", str(c.prepare_aborts)],
        ["prepares / settles", f"{c.prepares_sent} / {c.settles_sent}"],
        ["WAL records", str(c.wal_records)],
        ["throughput (txn/s)", f"{tps:,.0f}"],
        ["p50 / p99 latency (us)",
         f"{pct(0.50) * 1e6:.1f} / {pct(0.99) * 1e6:.1f}"],
    ]))
    print(format_table(["stage", "coordinator seconds"], [
        [stage, f"{seconds * 1e3:.3f} ms"]
        for stage, seconds in sorted(stages.items())]))
    if args.cc == "2pl":
        print(f"locks: {locks['acquired']} acquired, {locks['wounds']} "
              f"wounds, {locks['waits']} waits, {locks['wait_aborts']} "
              f"wait aborts")
    print(f"strict serializability: {'ok' if audit.ok else 'FAIL'} "
          f"({audit.ops_checked} txns, {audit.keys_checked} keys)"
          + (f" violations: {audit.violations[:2]}" if audit.violations
             else ""))
    print(f"cross-shard audit: {'ok' if shard_audit.ok else 'FAIL'} "
          f"({shard_audit.shards_checked} shards)")
    return 0 if ok else 1


def cmd_check(args) -> int:
    import json

    from .analysis.lint.check import (
        DEFAULT_CHECK_BASELINE_NAME,
        check_paths,
        check_report_dict,
        check_report_sarif,
        format_check_report,
    )
    from .analysis.lint.findings import format_baseline

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        if os.path.exists(DEFAULT_CHECK_BASELINE_NAME):
            baseline_path = DEFAULT_CHECK_BASELINE_NAME
    if args.write_baseline:
        baseline_path = None  # writing: start from the raw findings
    select = args.passes.split(",") if args.passes else None
    try:
        report = check_paths(args.paths, select=select,
                             baseline_path=baseline_path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"spindle-check: error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = args.baseline or DEFAULT_CHECK_BASELINE_NAME
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(format_baseline(report.findings + report.baselined))
        print(f"spindle-check: wrote {target} "
              f"({len(report.findings) + len(report.baselined)} entries)")
        return 0

    if args.format == "json":
        print(json.dumps(check_report_dict(report), indent=2,
                         sort_keys=True))
    elif args.format == "sarif":
        print(json.dumps(check_report_sarif(report), indent=2,
                         sort_keys=True))
    else:
        print(format_check_report(report, verbose=args.verbose))
    return 0 if report.ok else 1


def _add_common(parser, count=200):
    parser.add_argument("--nodes", type=int, default=8,
                        help="cluster size (paper: 2..16)")
    parser.add_argument("--size", type=int, default=10240,
                        help="message size in bytes (default 10 KB)")
    parser.add_argument("--count", type=int, default=count,
                        help="messages per sender")
    parser.add_argument("--window", type=int, default=100,
                        help="SMC ring-buffer window size")
    parser.add_argument("--config", choices=sorted(CONFIGS),
                        default="optimized")


def build_parser() -> argparse.ArgumentParser:
    from .analysis.lint.check import ALL_PASSES

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("single", help="single-subgroup experiment (§4.1)")
    p.add_argument("--backend", choices=["spindle", "paxos"],
                   default="spindle",
                   help="ordering protocol (docs/ORDERING.md)")
    _add_common(p)
    p.add_argument("--pattern", choices=["all", "half", "one"], default="all")
    p.set_defaults(fn=cmd_single)

    p = sub.add_parser("multi", help="multiple-subgroup experiment (§4.1.3)")
    _add_common(p, count=120)
    p.add_argument("--subgroups", type=int, default=5)
    p.add_argument("--active", type=int, default=1)
    p.set_defaults(fn=cmd_multi)

    p = sub.add_parser("delayed", help="delayed-sender experiment (§4.2)")
    _add_common(p, count=150)
    p.add_argument("--delayed", type=int, default=1,
                   help="how many senders are delayed")
    p.add_argument("--delay-us", type=float, default=100.0)
    p.add_argument("--indefinite", action="store_true",
                   help="delayed senders go silent instead")
    p.set_defaults(fn=cmd_delayed)

    p = sub.add_parser("rdmc", help="large-message multicast schemes")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--size", type=int, default=8 << 20)
    p.add_argument("--block", type=int, default=256 * 1024)
    p.set_defaults(fn=cmd_rdmc)

    p = sub.add_parser("compare", help="all four configs side by side")
    _add_common(p)
    p.add_argument("--pattern", choices=["all", "half", "one"], default="all")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "chaos",
        help="run seeded chaos scenarios against the fault plane "
             "(docs/FAULTS.md)")
    p.add_argument("--scenario", action="append", default=None,
                   help="scenario name (repeatable; see --list)")
    p.add_argument("--all", action="store_true",
                   help="run the whole scenario catalog")
    p.add_argument("--list", action="store_true",
                   help="list known scenarios and exit")
    p.add_argument("--seed", type=int, default=0,
                   help="first seed of the sweep (default 0)")
    p.add_argument("--sweep", type=int, default=1,
                   help="how many consecutive seeds to run (default 1)")
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per (scenario, seed); >1 additionally "
                        "checks byte-identical replay")
    p.add_argument("--sanitize", action="store_true",
                   help="enable the runtime sanitizer (also via "
                        "SPINDLE_SANITIZE=1)")
    p.add_argument("--json", action="store_true",
                   help="print one JSON result object per run")
    p.add_argument("--artifact-dir", default=None,
                   help="write failing-run artifacts (seed + schedule "
                        "JSON) here for CI upload")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "recover",
        help="crash → replay → transfer → rejoin demo with the full "
             "recovery audit (docs/RECOVERY.md)")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crash-node", type=int, default=None,
                   help="node to crash + recover (default: last node)")
    p.add_argument("--crash-ms", type=float, default=1.0,
                   help="crash time in simulated ms (default 1)")
    p.add_argument("--restart-ms", type=float, default=8.0,
                   help="NIC revival time in simulated ms (default 8)")
    p.add_argument("--until-ms", type=float, default=30.0,
                   help="total simulated run time in ms (default 30)")
    p.add_argument("--puts", type=int, default=12,
                   help="KV PUTs per writer per epoch (default 12)")
    p.add_argument("--chunk-size", type=int, default=512,
                   help="state-transfer chunk payload bytes (default 512)")
    p.add_argument("--chunk-timeout-us", type=float, default=300.0,
                   help="per-chunk timeout in us (default 300)")
    p.add_argument("--drop-chunk", type=int, action="append", default=None,
                   metavar="IDX",
                   help="deterministically swallow this chunk's first "
                        "attempt (repeatable; forces timeout + backoff)")
    p.add_argument("--json", action="store_true",
                   help="print the full audit as JSON")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser(
        "metrics",
        help="run a workload and print the metrics registry "
             "(docs/METRICS.md)")
    _add_common(p, count=150)
    p.add_argument("--pattern", choices=["all", "half", "one"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-time", type=float, default=5.0,
                   help="simulated-time cap in seconds (default 5)")
    p.add_argument("--format", choices=["table", "json", "prom"],
                   default="table",
                   help="snapshot format (default: table)")
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage pipeline time breakdown and "
                        "check it partitions predicate-thread busy time")
    p.add_argument("--watch", type=float, default=None, metavar="MS",
                   help="print a progress line every MS of simulated time")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "shard",
        help="sharded service plane: open-loop clients through the "
             "request router (docs/SHARDING.md)")
    p.add_argument("--shards", type=int, default=4,
                   help="number of consistent-hash shards")
    p.add_argument("--clients", type=int, default=4,
                   help="open-loop Poisson client processes")
    p.add_argument("--nodes", type=int, default=8,
                   help="cluster size (default: 2 nodes per shard pair)")
    p.add_argument("--replication", type=int, default=2,
                   help="members per shard subgroup")
    p.add_argument("--rate", type=float, default=20000.0,
                   help="per-client arrival rate (requests/s, simulated)")
    p.add_argument("--ops", type=int, default=50,
                   help="requests per client")
    p.add_argument("--size", type=int, default=512,
                   help="multicast message size in bytes")
    p.add_argument("--window", type=int, default=16,
                   help="per-subgroup send window")
    p.add_argument("--slo-ms", type=float, default=5.0,
                   help="per-request deadline/SLO in milliseconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", choices=sorted(CONFIGS), default="optimized")
    p.add_argument("--max-time", type=float, default=5.0,
                   help="quiescence guard (simulated seconds)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(fn=cmd_shard)

    p = sub.add_parser(
        "txn",
        help="cross-shard transactions under OCC or 2PL "
             "(docs/TRANSACTIONS.md)")
    p.add_argument("--cc", choices=("occ", "2pl"), default="occ",
                   help="concurrency control protocol")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent transaction clients")
    p.add_argument("--txns", type=int, default=15,
                   help="transactions per client")
    p.add_argument("--ops", type=int, default=3,
                   help="operations per transaction")
    p.add_argument("--keys", type=int, default=64,
                   help="key-space size (smaller = more contention)")
    p.add_argument("--read-ratio", type=float, default=0.5,
                   help="probability an op is a read")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--nodes", type=int, default=6)
    p.add_argument("--replication", type=int, default=2)
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--size", type=int, default=512,
                   help="multicast message size in bytes")
    p.add_argument("--gap-us", type=float, default=50.0,
                   help="client think time between txns (us)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", choices=sorted(CONFIGS), default="optimized")
    p.add_argument("--max-time", type=float, default=5.0,
                   help="quiescence guard (simulated seconds)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(fn=cmd_txn)

    p = sub.add_parser(
        "check",
        help="static invariant checks: per-file passes + whole-program "
             "lockset / determinism analysis (docs/CHECK.md)")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to analyze (default: src)")
    p.add_argument("--baseline", default=None,
                   help="baseline file of known findings (default: "
                        "./.spindle-check-baseline if present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--write-baseline", action="store_true",
                   help="write current findings as the new baseline")
    pass_names = ",".join(check_pass.name for check_pass in ALL_PASSES)
    p.add_argument("--passes", default=None,
                   help=f"comma-separated pass subset ({pass_names})")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text", help="output format (default: text)")
    p.add_argument("--verbose", action="store_true",
                   help="also print baselined findings")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Engine speed: what one seeded load costs the scheduler, exactly, and
how fast the bare event loop turns.

Two measurements (docs/ENGINE.md):

* **sharded-KV load** — ``bench_sharded_kv``'s cluster and clients at
  the light rate that leaves the run scheduler-bound, driven to
  quiescence. Its trace fingerprint must equal the one recorded in the
  committed baseline (``fingerprint_match``: the same protocol run,
  byte for byte, as when the baseline was taken — the bench fails
  otherwise, after writing its artifact, so an intended change is
  adopted with ``check_regressions.py --update`` and a second run),
  and the work it took is gated exactly: scheduler events retired and
  predicate passes.
* **scheduler replay** — the bare event loop executing a pre-drawn
  callback schedule (a bench-derived mix of zero-delay posts,
  sub-microsecond sleeps, and far timers): events per host second.
  Machine-dependent, so reported and waived in ``baselines/OVERRIDES``;
  host time is measured properly by ``perf/`` (``host_wall_s`` over
  alternating parent/change pairs).

Both wall-clock times live in the JSON artifact's ``extra`` only; the
results table holds simulated values alone, so a stale committed table
shows up as a ``git diff`` after a quick run.
"""

import os
import time
from random import Random

from _common import emit, emit_bench_json, pick, run_once
from check_regressions import BASELINE_DIR, load_artifact

from repro.analysis import figure_banner, format_table
from repro.analysis.trace import Tracer
from repro.core.config import SpindleConfig
from repro.shard import RouterConfig
from repro.sim.engine import Simulator
from repro.workloads import Cluster, SloStats, open_loop_client

NODES = 8
SHARDS = 4
REPLICATION = 2


def run_load(*, clients, ops_per_client, rate_per_client, seed=3):
    """One end-to-end sharded-KV run."""
    cluster = Cluster(NODES, config=SpindleConfig.optimized(), seed=seed)
    cluster.add_shards(num_shards=SHARDS, replication=REPLICATION,
                       num_subgroups=SHARDS, window=16, message_size=512)
    cluster.build()
    router = cluster.router(RouterConfig(queue_depth=128,
                                         workers_per_shard=2))
    tracer = Tracer(cluster, capacity=1_000_000)
    tracer.attach()

    stats = SloStats()
    for c in range(clients):
        rng = Random(seed * 7919 + c)
        cluster.spawn_sender(
            open_loop_client(
                cluster.sim,
                lambda k, c=c: router.request(
                    "put", b"c%d.k%d" % (c, k), b"v" * 64),
                rate=rate_per_client, count=ops_per_client, rng=rng,
                stats=stats,
                name=f"client{c}"),
            name=f"client{c}")

    # Host wall-clock is reported, never fed back into the sim.
    start = time.perf_counter()  # spindle-lint: allow[nondet-wall-clock]
    cluster.run_to_quiescence(max_time=30.0)
    wall = time.perf_counter() - start  # spindle-lint: allow[nondet-wall-clock]

    threads = [group.thread for group in cluster.groups.values()]
    assert tracer.dropped == 0, "trace capacity exceeded: fingerprint void"
    assert stats.ok + stats.rejected == stats.submitted
    return {
        "wall": wall,
        "fingerprint": tracer.fingerprint(),
        "ok": stats.ok,
        "submitted": stats.submitted,
        "rejected": stats.rejected,
        "events_executed": cluster.sim.events_executed,
        "peak_pending": cluster.sim.peak_pending_events,
        "evals_total": sum(t.evals_total for t in threads),
        "sim_now": cluster.sim.now,
    }


def replay_schedule(total, seed=11):
    """Pre-draw the callback mix. It mirrors the sharded-KV load's
    shape: mostly zero-delay posts (predicate turns, lock hand-offs), a
    band of sub-microsecond sleeps (SST poll and RDMA hops), a tail of
    millisecond timers (client arrivals, quiescence guards)."""
    rng = Random(seed)
    return [rng.random() for _ in range(total)]


def run_replay(mix, chains=64):
    """Drive a bare Simulator through the pre-drawn schedule."""
    sim = Simulator(seed=0)
    total = len(mix)
    post = sim.post
    post_after = sim.post_after

    def schedule(i):
        r = mix[i]
        if r < 0.55:
            post(step, i)
        elif r < 0.95:
            post_after(1e-7 + 8e-7 * r, step, i)
        else:
            post_after(1e-3 * r, step, i)

    def step(i):
        j = i + chains
        if j < total:
            schedule(j)

    for c in range(min(chains, total)):
        schedule(c)
    start = time.perf_counter()  # spindle-lint: allow[nondet-wall-clock]
    sim.run()
    wall = time.perf_counter() - start  # spindle-lint: allow[nondet-wall-clock]
    assert sim.events_executed == total
    return {
        "wall": wall,
        "events": total,
        "events_per_sec": total / wall,
        "peak_pending": sim.peak_pending_events,
        "sim_now": sim.now,
    }


def best_of(repeats, run, same, **params):
    """Best-of-``repeats`` wall clock; every simulated value named in
    ``same`` must be bit-identical across repeats (same seed, same run)."""
    runs = [run(**params) for _ in range(repeats)]
    for r in runs[1:]:
        for key in same:
            assert r[key] == runs[0][key], f"{key} unstable across repeats"
    return min(runs, key=lambda r: r["wall"])


def recorded_fingerprint(params):
    """The fingerprint the committed baseline recorded for this load,
    or None when it was taken with other parameters (the baseline is a
    quick-mode run; a full-mode run has nothing to be held to)."""
    extra = load_artifact(
        os.path.join(BASELINE_DIR, "BENCH_engine_speed.json"))["extra"]
    if any(extra.get(key) != value for key, value in params.items()):
        return None
    return extra["fingerprint"]


def bench_engine_speed(benchmark):
    params = {"clients": pick(8, 4), "ops_per_client": pick(300, 80),
              "rate_per_client": pick(400_000.0, 200_000.0)}
    repeats = pick(3, 2)
    replay_events = pick(400_000, 120_000)

    def experiment():
        load = best_of(repeats, run_load,
                       ("fingerprint", "events_executed", "evals_total"),
                       **params)
        replay = best_of(repeats, run_replay, ("sim_now",),
                         mix=replay_schedule(replay_events))
        return load, replay

    load, replay = run_once(benchmark, experiment)
    recorded = recorded_fingerprint(params)
    verdict = ("no baseline for these parameters" if recorded is None
               else "matches the baseline" if recorded == load["fingerprint"]
               else f"DIFFERS from the baseline's {recorded[:12]}")

    text = figure_banner(
        "engine_speed",
        f"Sharded KV, {NODES} nodes, {params['clients']} clients "
        f"@ {params['rate_per_client']:,.0f}/s; replay of "
        f"{replay_events:,} scheduler events",
        "same trace and same scheduler work as the committed baseline",
    ) + "\n" + format_table(
        ["load", "sim events", "peak pending", "predicate evals",
         "fingerprint"],
        [["sharded KV", f'{load["events_executed"]:,}',
          f'{load["peak_pending"]:,}',
          f'{load["evals_total"]:,}',
          load["fingerprint"][:12]],
         ["replay", f'{replay["events"]:,}', f'{replay["peak_pending"]:,}',
          "-", "-"]],
    ) + (f"\n\nfingerprint {verdict}\n"
         "wall-clock times and replay events/s: BENCH_engine_speed.json "
         "(extra), so this table is the same on every run")
    emit("engine_speed", text)
    benchmark.extra_info["fingerprint"] = load["fingerprint"]

    scalars = {
        # Deterministic: identical on every machine, so any move is a
        # behaviour change (fewer is better for the two counts).
        "events_executed": (load["events_executed"], False),
        "evals_total": (load["evals_total"], False),
        # Machine-dependent (waived in OVERRIDES, kept for trend plots).
        "scheduler_replay_events_per_sec": replay["events_per_sec"],
    }
    if recorded is not None:
        # Hard determinism gate: any divergence drops this to 0.
        scalars["fingerprint_match"] = float(recorded == load["fingerprint"])
    emit_bench_json("engine_speed", scalars, extra={
        **params, "repeats": repeats, "replay_events": replay_events,
        "fingerprint": load["fingerprint"],
        "end_to_end": load, "scheduler_replay": replay,
    })
    assert recorded in (None, load["fingerprint"]), f"fingerprint {verdict}"

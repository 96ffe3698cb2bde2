"""The two-clock performance ledger (perf/README.md).

    python3 perf/run.py --seed 0                  # every workload, both modes
    python3 perf/run.py --check-repeat            # two sets of one checkout
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

Workloads run sequentially, each in fresh single-threaded subprocesses
of ``perf/worker.py``, never more than one at a time. Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. A failed
correctness check prints the errors instead of metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

from spec import END_TO_END, HOST_METRICS, PER_LAYER, WORKLOAD_WHY

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_OUT = os.path.join(_HERE, "out")

#: Host seconds one repetition takes at scale 1.0 on the reference
#: 2-core sandbox; ``--seconds`` is spent in repetitions of this size.
REP_SECONDS = 8
#: ``setup_s`` is the median over this many fresh processes.
SETUP_SAMPLES = 7
#: Variables that would change what the program does, unset for workers.
UNSET_ENV = ("SPINDLE_ENGINE", "SPINDLE_METRICS", "SPINDLE_BENCH_QUICK",
             "SPINDLE_BENCH_DIR")
PINNED_ENV = {"PYTHONHASHSEED": "0"}


class BenchmarkFailed(Exception):
    pass


def _worker(mode, workload, seed, scale, repeats):
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    cmd = [sys.executable, os.path.join(_HERE, "worker.py"), mode,
           "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--repeats", str(repeats),
           "--out", _OUT, "--spawned-at", repr(time.time())]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchmarkFailed(
            f"{workload}: worker exited {done.returncode} without a result")
    if result["errors"]:
        raise BenchmarkFailed(
            f"{workload}: " + "; ".join(result["errors"]))
    return result


def run_timed(workload, seed, scale, repeats):
    """End-to-end metrics: the process that runs the timed repetitions,
    with set-up-only processes before and after it (the host's speed
    shifts over tens of seconds, so the samples straddle the run)."""
    def setups(n):
        return [_worker("setup", workload, seed, scale, repeats)
                ["metrics"]["setup_s"] for _ in range(n)]

    before = setups(SETUP_SAMPLES // 2)
    result = _worker("timed", workload, seed, scale, repeats)
    samples = (before + [result["metrics"]["setup_s"]]
               + setups(SETUP_SAMPLES - 1 - len(before)))
    result["metrics"]["setup_s"] = median(samples)
    result["info"]["setup_s_samples"] = samples
    return result


def run_traced(workload, seed, scale):
    """Per-layer metrics: exact counts at full scale, host time per
    layer from a quarter-scale untraced + traced pair."""
    return _worker("traced", workload, seed, scale, 1)


def _fmt(value):
    return f"{value:,.6g}" if isinstance(value, float) else f"{value:,}"


def print_metrics(workload, result, spec):
    info = result["info"]
    notes = {
        "sim_latency_p50_us": f"n={info.get('latency_samples')} samples",
        "sim_latency_p99_us": f"n={info.get('latency_samples')} samples",
        "ok_ops_share": f"ops_attempted={info.get('ops_attempted')} "
                        f"ops_failed={info.get('ops_failed')}",
        "host_wall_s": f"repetitions={info.get('host_wall_s_per_repetition')}",
        "trace_overhead_x":
            f"traced {info.get('traced_host_us_per_op', 0):.1f} / untraced "
            f"{info.get('untraced_host_us_per_op', 0):.1f} host us per op",
    }
    for name, unit, *_ in spec:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:18s} {name:32s} "
              f"{_fmt(result['metrics'][name]):>16s} {unit}{note}")
    for name, row in sorted(info.get("spans", {}).items()):
        print(f"{workload:18s} span {name:27s} n={row['count']:<8d} "
              f"sim_s={row['sim_s']:.6f} self_sim_s={row['self_sim_s']:.6f}")


def result_line(result, spec):
    return json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit, *_ in spec},
    })


def _commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(_ROOT)})
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def meta(seed, scale, repeats):
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "env_unset": list(UNSET_ENV),
        "env_pinned": PINNED_ENV,
    }


def run_set(seed, scale, repeats, traced=True):
    """Every workload, one after the other; writes perf/out/<w>.json."""
    os.makedirs(_OUT, exist_ok=True)
    results = {}
    for workload in WORKLOAD_WHY:
        timed = run_timed(workload, seed, scale, repeats)
        print_metrics(workload, timed, END_TO_END)
        record = {"meta": meta(seed, scale, repeats), "workload": workload,
                  "why": WORKLOAD_WHY[workload], "end_to_end": timed}
        if traced:
            layers = run_traced(workload, seed, scale)
            print_metrics(workload, layers, PER_LAYER)
            record["per_layer"] = layers
        with open(os.path.join(_OUT, f"{workload}.json"), "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        results[workload] = timed
    return results


def check_repeat(seed, scale, repeats):
    """Two full sets of the same checkout: simulated metrics and the sim
    digest (every exact count) must be bit-identical, host metrics
    within their bounds. Returns the number of disagreements."""
    first = run_set(seed, scale, repeats, traced=False)
    second = run_set(seed, scale, repeats, traced=False)
    bad = 0
    print(f"{'workload':18s} {'metric':22s} {'first':>16s} {'second':>16s}  agree")
    for workload in WORKLOAD_WHY:
        a, b = first[workload], second[workload]
        rows = [(name, a["metrics"][name], b["metrics"][name], bound)
                for name, _unit, _better, bound in END_TO_END]
        rows.append(("sim_digest", a["info"]["sim_digest"][:12],
                     b["info"]["sim_digest"][:12], 0.0))
        for name, x, y, bound in rows:
            if name in HOST_METRICS:
                ok = abs(x - y) <= bound * min(x, y)
                rule = f"within {bound:.0%}"
            else:
                ok = x == y
                rule = "bit-identical"
            bad += not ok
            x, y = (_fmt(v) if not isinstance(v, str) else v for v in (x, y))
            print(f"{workload:18s} {name:22s} {x:>16s} {y:>16s}  "
                  f"{'yes' if ok else 'NO'} ({rule})")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_WHY),
                        help="run one workload (default: all, both modes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="host seconds to measure, spent in "
                             f"~{REP_SECONDS} s repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's op counts")
    parser.add_argument("--repeats", type=int,
                        help="timed repetitions (default 3, or from --seconds)")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print("perf/run.py: no src/repro beside perf/ — nothing to measure",
              file=sys.stderr)
        return 2
    repeats, scale = args.repeats, args.scale
    if repeats is None:
        repeats = (3 if args.seconds is None
                   else max(2, round(args.seconds / REP_SECONDS)))
    if repeats < 2:
        parser.error("--repeats must be at least 2 (determinism is checked "
                     "across repetitions)")
    if args.seconds is not None:
        scale *= args.seconds / (repeats * REP_SECONDS)

    try:
        if args.check_repeat:
            return 1 if check_repeat(args.seed, scale, repeats) else 0
        if args.workload is None:
            run_set(args.seed, scale, repeats)
            return 0
        if args.trace:
            result, spec = run_traced(args.workload, args.seed, scale), PER_LAYER
        else:
            result = run_timed(args.workload, args.seed, scale, repeats)
            spec = END_TO_END
        print_metrics(args.workload, result, spec)
        print(result_line(result, spec))
        return 0
    except BenchmarkFailed as exc:
        print(f"perf/run.py: FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

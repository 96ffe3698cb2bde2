"""One workload in one fresh, single-threaded process.

Started by ``perf/run.py`` (never more than one at a time) as::

    python perf/worker.py MODE --workload W --seed N --scale S \
        --repeats R --spawned-at T --out DIR

``MODE`` is ``setup`` (set up and exit: one ``setup_s`` sample),
``timed`` (set up, then R identical untraced repetitions: the
end-to-end metrics) or ``traced`` (one untraced repetition for the
exact counts, then an untraced and a traced one at a quarter of the
scale for the host time per layer: the per-layer metrics). The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import sys
import time
from array import array

_HERE = os.path.dirname(os.path.abspath(__file__))
# The program under test is the checkout's own src/, whatever else is
# installed; these imports are part of setup_s.
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from layers import exact_counts, host_rates, profile_by_layer  # noqa: E402
from spans import FIELDS, NO_SPANS, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402


def _set_up(args):
    """Inputs from the seed, then the first cluster; returns
    (workload class, inputs, built workload, setup_s)."""
    cls = WORKLOADS[args.workload]
    inputs = cls.make_inputs(args.seed, args.scale)
    workload = cls(inputs)
    return cls, inputs, workload, time.time() - args.spawned_at


def _run_once(workload, spans=NO_SPANS, profile=None):
    """The timed region: spawn the load and run to quiescence.

    Returns (host seconds per slice, outcome, exact counts, errors)."""
    gc.collect()
    token = spans.open("cluster.run", None, workload.cluster.sim.now)
    if profile is not None:
        profile.enable()
    slices = workload.drive(spans)
    if profile is not None:
        profile.disable()
    errors = workload.check()
    outcome = workload.outcome()
    # Closed at the last successful op: the last slice of cluster.run()
    # coasts the simulated clock on to the slice boundary.
    spans.close(token, outcome.last_success)
    counts, count_errors = exact_counts(workload, outcome)
    return slices, outcome, counts, errors + count_errors


def _digest(outcome, counts):
    """sha256 over every simulated end-to-end value and exact count."""
    h = hashlib.sha256()
    h.update(array("d", outcome.latencies).tobytes())
    h.update(repr((outcome.goodput, outcome.attempted, outcome.failed)).encode())
    h.update(json.dumps(counts, sort_keys=True).encode())
    return h.hexdigest()


def _timed(args):
    cls, inputs, workload, setup_s = _set_up(args)
    slices, digests, errors = [], [], []
    for rep in range(args.repeats):
        if workload is None:
            gc.collect()
            workload = cls(inputs)  # each repetition on a fresh cluster
        rep_slices, outcome, counts, rep_errors = _run_once(workload)
        slices.append(rep_slices)
        digests.append(_digest(outcome, counts))
        errors += [f"rep {rep}: {e}" for e in rep_errors]
        # Freed before the next is built: peak RSS is that of one cluster.
        workload = None
    if len(set(digests)) != 1:
        errors.append(f"sim digest differs across repetitions: {digests}")
    latencies = sorted(outcome.latencies)
    # Slice i is the same work in every repetition, so each slice takes
    # its fastest repetition: a neighbour on the host slows a slice in
    # one repetition, seldom in all of them.
    host_wall_s = sum(min(column) for column in zip(*slices))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "errors": errors,
        "attempted": outcome.attempted * args.repeats,
        "failed": outcome.failed * args.repeats,
        "metrics": {
            "setup_s": setup_s,
            "sim_goodput_ops_s": outcome.goodput,
            "sim_latency_p50_us": percentile(latencies, 50) * 1e6,
            "sim_latency_p99_us": percentile(latencies, 99) * 1e6,
            "host_wall_s": host_wall_s,
            "host_peak_rss_mb": rss_mb,
            "ok_ops_share":
                (outcome.attempted - outcome.failed) / outcome.attempted,
        },
        "info": {
            "latency_samples": len(latencies),
            "ops_attempted": outcome.attempted,
            "ops_failed": outcome.failed,
            "host_wall_s_per_repetition": [sum(rep) for rep in slices],
            "slices_per_repetition": len(slices[0]),
            "sim_digest": digests[0],
            "sim.events_executed": counts["sim.events_executed"],
            "sim.host_events_per_s":
                counts["sim.events_executed"] / host_wall_s,
        },
    }


def _traced(args):
    """Per-layer metrics. Exact counts and host rates come from one
    untraced repetition at full scale (the regime the end-to-end
    metrics describe); host time per layer comes from a repetition
    under cProfile at a quarter of the scale, checked against an
    untraced twin: same sim digest, so observation is inert."""
    cls, _inputs, workload, _setup_s = _set_up(args)
    slices, outcome, counts, errors = _run_once(workload)
    metrics = dict(counts)
    metrics.update(host_rates(counts, outcome, sum(slices)))

    inputs = cls.make_inputs(args.seed, args.scale / 4)
    slices_u, outcome_u, counts_u, errors_u = _run_once(cls(inputs))
    spans = SpanRecorder()
    token = spans.open("cluster.build", None, 0.0)
    workload = cls(inputs)
    spans.close(token, workload.cluster.sim.now)
    profile = cProfile.Profile()
    slices_t, outcome_t, counts_t, errors_t = _run_once(workload, spans,
                                                        profile)
    errors += errors_u + errors_t
    if _digest(outcome_t, counts_t) != _digest(outcome_u, counts_u):
        errors.append("sim digest differs between traced and untraced run")

    by_layer = profile_by_layer(profile)
    metrics.update(by_layer)
    ops = outcome_u.attempted - outcome_u.failed
    metrics["trace_overhead_x"] = sum(slices_t) / sum(slices_u)
    span_table = spans.summary()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{cls.name}.trace.json"), "w") as fh:
        json.dump({"fields": FIELDS, "summary": span_table,
                   "profile_by_layer": by_layer, "spans": spans.spans}, fh)
    return {
        "errors": errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "info": {
            "untraced_host_us_per_op": sum(slices_u) / ops * 1e6,
            "traced_host_us_per_op": sum(slices_t) / ops * 1e6,
            "sim_digest": _digest(outcome, counts),
            "spans": span_table,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", default=os.path.join(_HERE, "out"))
    args = parser.parse_args(argv)

    if args.mode == "setup":
        result = {"errors": [], "metrics": {"setup_s": _set_up(args)[3]}}
    elif args.mode == "timed":
        result = _timed(args)
    else:
        result = _traced(args)
    print(json.dumps(result))
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())

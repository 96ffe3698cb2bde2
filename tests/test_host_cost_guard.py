"""Deterministic host-cost guard for the span-granular data path.

Wall-clock benches are noisy; the number of Python function calls the
simulator makes is not. This counts ``call`` events (``sys.setprofile``)
inside ``src/repro/`` over a small closed-loop multicast and holds the
calls per delivered (message, node) under a budget, so a change that
brings back per-cell or per-message calls on the receive -> deliver ->
acknowledge -> push path fails here instead of in a noisy bench
(docs/ENGINE.md, "Above the scheduler").

The parent of the span-granular PR measured 43.1 calls per delivery on
this exact load; the span path measures 20.1. The budget is for the
plain program: the sanitizer and the happens-before tracker call back
into ``repro`` from their hooks, so the budget test is skipped while
either is installed (the count still has to repeat exactly).
"""

import os
import sys

import pytest

import repro
from repro.analysis.lint.hb import global_tracker
from repro.analysis.lint.sanitizer import global_sanitizer
from repro.core.config import SpindleConfig
from repro.workloads import Cluster, continuous_sender

NODES = 4
SIZE = 128
WINDOW = 100
PER_SENDER = 300

#: ~15 % above the measured post-change count (see module docstring).
BUDGET_CALLS_PER_DELIVERY = 23.1

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def count_calls(fn):
    """Python-level ``call`` events inside src/repro/ while ``fn`` runs
    (generator resumptions included)."""
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_SRC):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def run_load():
    cluster = Cluster(NODES, config=SpindleConfig.optimized(), seed=0)
    cluster.add_subgroup(message_size=SIZE, window=WINDOW)
    cluster.build()
    for nid in cluster.node_ids:
        cluster.spawn_sender(continuous_sender(
            cluster.mc(nid, 0), count=PER_SENDER, size=SIZE))
    calls = count_calls(cluster.run_to_quiescence)
    deliveries = cluster.total_delivered(0)
    assert deliveries == PER_SENDER * NODES * NODES
    return calls / deliveries


def test_calls_per_delivery_within_budget():
    if global_sanitizer() is not None or global_tracker() is not None:
        pytest.skip("observers add their own calls; the budget is for "
                    "the plain run")
    per_delivery = run_load()
    assert per_delivery <= BUDGET_CALLS_PER_DELIVERY, (
        f"{per_delivery:.1f} Python calls per delivered (message, node); "
        f"budget {BUDGET_CALLS_PER_DELIVERY}")


def test_call_count_repeats_exactly():
    assert run_load() == run_load()

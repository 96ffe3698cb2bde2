"""Smoke test of the benchmark itself (not part of tier-1):

    python -m pytest perf/tests -q

At ``--scale 0.02`` every workload finishes in seconds; the emitted
workload and metric names, units and directions must match
``BENCHMARK.json`` exactly.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

from spec import END_TO_END, PER_LAYER, WORKLOAD_WHY  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run(args, cwd=ROOT):
    return subprocess.run(
        BENCHMARK["command"] + args, cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)


def test_benchmark_json_matches_spec():
    assert BENCHMARK["paths"] == ["perf"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        list(WORKLOAD_WHY.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert len(PER_LAYER) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace,spec", [(0, END_TO_END), (1, PER_LAYER)])
@pytest.mark.parametrize("workload", list(WORKLOAD_WHY))
def test_workload_emits_exactly_the_declared_metrics(workload, trace, spec):
    done = run(["--workload", workload, "--seed", "1", "--scale", "0.02",
                "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, *_ in spec}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # Every metric is also printed by name with its unit.
    for name, unit, *_ in spec:
        assert any(line.split()[1:2] == [name] and unit in line.split()
                   for line in done.stdout.splitlines()[:-1]), name


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    done = run(["--workload", "mcast_small", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout

"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table/figure of the paper's evaluation:
it runs the corresponding experiment *once* inside pytest-benchmark
(wall-clock measured is the simulation cost; the scientific output is
the simulated metrics), asserts the paper's shape, prints a paper-style
table and archives it under ``benchmarks/results/``. The tables hold
simulated values only, so CI's bench-smoke job diffs them byte for byte
against the committed copies.

Quick mode: setting ``SPINDLE_BENCH_QUICK=1`` asks benchmarks to shrink
their parameter grids (fewer nodes/messages) so the whole suite
finishes in CI-friendly time; use :func:`quick_mode` / :func:`pick` to
honor it.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable, Dict

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def quick_mode() -> bool:
    """True when ``SPINDLE_BENCH_QUICK`` asks for reduced parameters."""
    return os.environ.get("SPINDLE_BENCH_QUICK", "").strip().lower() in (
        "1", "true", "yes", "on")


def pick(full: Any, quick: Any) -> Any:
    """Choose a benchmark parameter: ``full`` normally, ``quick`` when
    ``SPINDLE_BENCH_QUICK=1`` (CI smoke runs)."""
    return quick if quick_mode() else full


def run_once(benchmark, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    box: Dict[str, Any] = {}

    def wrapper():
        box["value"] = fn()

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    return box["value"]


def _atomic_write(path: str, body: str) -> None:
    """Write ``body`` to ``path`` atomically (tmp file + rename), so a
    crashed or parallel run never leaves a truncated table behind."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def emit(name: str, text: str) -> None:
    """Print a results table and archive it under benchmarks/results/.

    The archived copy is newline-normalized (exactly one trailing
    newline, ``\\n`` endings) and written atomically.
    """
    print(text)
    body = text.replace("\r\n", "\n").rstrip("\n") + "\n"
    _atomic_write(os.path.join(RESULTS_DIR, f"{name}.txt"), body)


"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table/figure of the paper's evaluation:
it runs the corresponding experiment *once* inside pytest-benchmark
(wall-clock measured is the simulation cost; the scientific output is
the simulated metrics), prints a paper-style table, archives it under
``benchmarks/results/``, and — via :func:`emit_bench_json` — writes a
schema-versioned machine-readable ``BENCH_<name>.json`` artifact at the
repository root for the CI perf-regression gate
(``benchmarks/check_regressions.py``). Root-level artifacts are
untracked run outputs; ``benchmarks/baselines/`` is the only committed
copy.

Quick mode: setting ``SPINDLE_BENCH_QUICK=1`` asks benchmarks to shrink
their parameter grids (fewer nodes/messages) so a smoke subset finishes
in CI-friendly time; use :func:`quick_mode` / :func:`pick` to honor it.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable, Dict, Mapping, Optional, Union

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Version of the BENCH_<name>.json artifact schema. Bump on breaking
#: changes; the CI gate refuses artifacts with a mismatched version.
BENCH_SCHEMA_VERSION = 1


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
    crashed or parallel run never leaves a truncated artifact behind."""
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


ScalarSpec = Union[int, float, Mapping[str, Any], tuple]


def _normalize_scalar(value: ScalarSpec) -> Dict[str, Any]:
    """Accept ``v``, ``(v, higher_is_better)`` or ``{"value": v, ...}``."""
    if isinstance(value, Mapping):
        return {"value": float(value["value"]),
                "higher_is_better": bool(value.get("higher_is_better", True))}
    if isinstance(value, tuple):
        v, higher = value
        return {"value": float(v), "higher_is_better": bool(higher)}
    return {"value": float(value), "higher_is_better": True}


def emit_bench_json(
    name: str,
    scalars: Mapping[str, ScalarSpec],
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """Write the machine-readable ``BENCH_<name>.json`` artifact.

    ``scalars`` maps metric name to either a bare number (assumed
    higher-is-better), a ``(value, higher_is_better)`` tuple, or a
    ``{"value": ..., "higher_is_better": ...}`` dict. Only scalars are
    gated by CI; ``extra`` carries free-form context (parameters,
    quick-mode flag) that the gate ignores.

    Artifacts land at the repository root (override the directory with
    ``SPINDLE_BENCH_DIR``). Returns the path written.
    """
    out_dir = os.environ.get("SPINDLE_BENCH_DIR", REPO_ROOT)
    payload: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "quick_mode": quick_mode(),
        "scalars": {k: _normalize_scalar(v) for k, v in sorted(scalars.items())},
    }
    if extra:
        payload["extra"] = {k: extra[k] for k in sorted(extra)}
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path

"""spindle-check: the one static analyzer (docs/CHECK.md).

``spindle-repro check`` parses every target file once into one
:class:`~repro.analysis.lint.callgraph.Program` and runs one table of
passes over it (:data:`ALL_PASSES`):

* the four *per-file* passes of :mod:`~repro.analysis.lint.passes` —
  SST monotonicity (§2.2), predicate purity (§2.4), the lexical §3.4
  lock-discipline shape, simulation hygiene;
* :class:`~repro.analysis.lint.lockset.LocksetPass` — infers which Lock
  guards writes to each shared attribute and flags writes reachable from
  concurrency roots with an empty or inconsistent lockset (paper §3.4);
* :class:`~repro.analysis.lint.determinism.DeterminismPass` — forbids
  wall-clock reads, unseeded randomness, ``id()``-keyed control flow,
  raw set iteration and order-sensitive float accumulation on any path
  reachable from simulation event handlers.

Every finding of every pass goes through one filter: an inline
``# spindle-lint: allow[rule]`` suppression is the one way to accept
a finding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .callgraph import build_program
from .determinism import DeterminismPass
from .findings import Finding, parse_suppressions
from .lockset import LocksetPass
from .passes import (
    LintPass,
    LockDisciplinePass,
    MonotonicityPass,
    PredicatePurityPass,
    SimHygienePass,
)

__all__ = [
    "ALL_PASSES",
    "CheckReport",
    "check_paths",
    "check_sources",
    "iter_python_files",
    "format_check_report",
    "check_report_dict",
]

#: The pass table: ``--passes`` / ``select=`` pick from it by name.
ALL_PASSES: Tuple[LintPass, ...] = (
    MonotonicityPass(),
    PredicatePurityPass(),
    LockDisciplinePass(),
    SimHygienePass(),
    LocksetPass(),
    DeterminismPass(),
)


@dataclass
class CheckReport:
    """Outcome of one ``spindle-repro check`` run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0                                     # inline allows
    files_scanned: int = 0
    modules_analyzed: int = 0
    functions_analyzed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


def _select_passes(select: Optional[Iterable[str]]) -> List[LintPass]:
    if select is None:
        return list(ALL_PASSES)
    wanted = set(select)
    unknown = wanted - {p.name for p in ALL_PASSES}
    if unknown:
        raise ValueError(
            f"unknown check pass(es): {sorted(unknown)}; "
            f"available: {[p.name for p in ALL_PASSES]}")
    return [p for p in ALL_PASSES if p.name in wanted]


def check_sources(
    sources: List[Tuple[str, str]],
    select: Optional[Iterable[str]] = None,
) -> CheckReport:
    """Run spindle-check over in-memory ``(display_path, source)`` pairs.

    Unit tests use this directly; :func:`check_paths` reads files and
    delegates here. ``select`` filters :data:`ALL_PASSES` by pass name.
    """
    passes = _select_passes(select)
    program = build_program(sources)
    report = CheckReport(files_scanned=len(sources),
                         modules_analyzed=len(program.modules),
                         functions_analyzed=len(program.functions),
                         errors=list(program.errors))
    suppressions: Dict[str, Dict[int, Set[str]]] = {
        mod.path: parse_suppressions(mod.source_lines)
        for mod in program.modules.values()
    }
    # Every pass reports raw findings; suppression happens once, here,
    # uniformly for all of them.
    for check_pass in passes:
        for finding in check_pass.run_program(program):
            allowed = suppressions[finding.path].get(finding.line, ())
            if finding.rule in allowed or "all" in allowed:
                report.suppressed += 1
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of .py files."""
    seen: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git", ".ruff_cache")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        if full not in seen:
                            seen.add(full)
                            yield full
        else:
            raise FileNotFoundError(f"check target not found: {path}")


def _display_path(path: str, root: Optional[str]) -> str:
    root = root or os.getcwd()
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # different drive (windows)
        rel = path
    if rel.startswith(".."):
        rel = path
    return rel.replace(os.sep, "/")


def check_paths(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    root: Optional[str] = None,
) -> CheckReport:
    """Run spindle-check over files and/or directory trees."""
    sources: List[Tuple[str, str]] = []
    errors: List[str] = []
    scanned = 0
    for path in iter_python_files(paths):
        scanned += 1
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            errors.append(f"{path}: {exc}")
            continue
        sources.append((_display_path(path, root), source))
    report = check_sources(sources, select=select)
    report.files_scanned = scanned
    report.errors = errors + report.errors
    return report


# ------------------------------------------------------------------ output


def format_check_report(report: CheckReport) -> str:
    """Compiler-style text output: one finding per line, then a summary."""
    lines = [finding.render() for finding in report.findings]
    lines.extend(f"error: {error}" for error in report.errors)
    lines.append(
        f"spindle-check: {len(report.findings)} finding(s), "
        f"{report.suppressed} suppressed | "
        f"{report.files_scanned} file(s), "
        f"{report.modules_analyzed} module(s), "
        f"{report.functions_analyzed} function(s)"
    )
    return "\n".join(lines)


def check_report_dict(report: CheckReport) -> Dict[str, object]:
    """JSON-ready form (``spindle-repro check --format json``)."""
    return {
        "tool": "spindle-check",
        "ok": report.ok,
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": report.suppressed,
        "errors": list(report.errors),
        "files_scanned": report.files_scanned,
        "modules_analyzed": report.modules_analyzed,
        "functions_analyzed": report.functions_analyzed,
    }

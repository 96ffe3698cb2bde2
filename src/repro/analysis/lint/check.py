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

Every finding of every pass goes through one filter: inline
``# spindle-lint: allow[rule]`` suppressions, then the checked-in
baseline of line-free fingerprints. *Stale* baseline entries —
fingerprints that no longer match any finding — are reported too, so
fixed findings cannot linger as silent holes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .callgraph import build_program
from .determinism import DeterminismPass
from .findings import RULES, Finding, load_baseline, parse_suppressions
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
    "check_report_sarif",
    "DEFAULT_CHECK_BASELINE_NAME",
]

#: Conventional checked-in baseline location (repo root).
DEFAULT_CHECK_BASELINE_NAME = ".spindle-check-baseline"

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

    findings: List[Finding] = field(default_factory=list)   # new findings
    baselined: List[Finding] = field(default_factory=list)  # known, ignored
    suppressed: int = 0                                     # inline allows
    #: Baseline fingerprints that matched no finding this run: the
    #: underlying issue was fixed (or the symbol moved) and the entry
    #: should be deleted. Reported, not fatal — a stale entry hides
    #: nothing by itself, but left to rot it can mask a regression that
    #: happens to land on the same fingerprint.
    stale_baseline: List[str] = field(default_factory=list)
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
    baseline: Optional[Set[str]] = None,
) -> CheckReport:
    """Run spindle-check over in-memory ``(display_path, source)`` pairs.

    Unit tests use this directly; :func:`check_paths` reads files and
    delegates here. ``select`` filters :data:`ALL_PASSES` by pass name.
    """
    passes = _select_passes(select)
    baseline = set(baseline or ())
    program = build_program(sources)
    report = CheckReport(files_scanned=len(sources),
                         modules_analyzed=len(program.modules),
                         functions_analyzed=len(program.functions),
                         errors=list(program.errors))
    suppressions: Dict[str, Dict[int, Set[str]]] = {
        mod.path: parse_suppressions(mod.source_lines)
        for mod in program.modules.values()
    }
    # Every pass reports raw findings; suppression and baseline
    # filtering happens once, here, uniformly for all of them.
    matched: Set[str] = set()
    for check_pass in passes:
        for finding in check_pass.run_program(program):
            allowed = suppressions[finding.path].get(finding.line, ())
            if finding.rule in allowed or "all" in allowed:
                report.suppressed += 1
            elif finding.fingerprint in baseline:
                matched.add(finding.fingerprint)
                report.baselined.append(finding)
            else:
                report.findings.append(finding)
    report.stale_baseline = sorted(baseline - matched)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.baselined.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
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
    baseline: Optional[Set[str]] = None,
    baseline_path: Optional[str] = None,
    root: Optional[str] = None,
) -> CheckReport:
    """Run spindle-check over files and/or directory trees.

    ``baseline`` wins over ``baseline_path``; if neither is given, no
    baseline is applied (callers decide whether to consult the
    conventional ``.spindle-check-baseline``).
    """
    if baseline is None and baseline_path is not None:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = load_baseline(fh.read())
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
    report = check_sources(sources, select=select, baseline=baseline)
    report.files_scanned = scanned
    report.errors = errors + report.errors
    return report


# ------------------------------------------------------------------ output


def format_check_report(report: CheckReport, verbose: bool = False) -> str:
    """Compiler-style text output: one finding per line, then a summary."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(finding.render())
    if verbose:
        for finding in report.baselined:
            lines.append(f"{finding.render()}  [baselined]")
    for error in report.errors:
        lines.append(f"error: {error}")
    for fingerprint in report.stale_baseline:
        lines.append(f"warning: stale baseline entry (no longer matches "
                     f"any finding): {fingerprint}")
    lines.append(
        f"spindle-check: {len(report.findings)} finding(s), "
        f"{len(report.baselined)} baselined, {report.suppressed} "
        f"suppressed, {len(report.stale_baseline)} stale baseline "
        f"entr(ies) | {report.files_scanned} file(s), "
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
        "baselined": [f.to_dict() for f in report.baselined],
        "suppressed": report.suppressed,
        "stale_baseline": list(report.stale_baseline),
        "errors": list(report.errors),
        "files_scanned": report.files_scanned,
        "modules_analyzed": report.modules_analyzed,
        "functions_analyzed": report.functions_analyzed,
    }


def check_report_sarif(report: CheckReport) -> Dict[str, object]:
    """Minimal SARIF 2.1.0 document (one run, one result per finding).

    Enough structure for code-scanning uploads and editor SARIF
    viewers: rule catalog with descriptions, physical locations with
    1-based columns, and the spindle fingerprint as a partial
    fingerprint so result matching survives line churn.
    """
    used = sorted({f.rule for f in report.findings}
                  | {f.rule for f in report.baselined})
    rules = [
        {
            "id": rule,
            "shortDescription": {"text": RULES[rule][1]},
            "properties": {"pass": RULES[rule][0]},
        }
        for rule in used if rule in RULES
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f"{f.message} (in {f.symbol})"},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {"startLine": f.line,
                               "startColumn": f.col + 1},
                },
            }],
            "partialFingerprints": {"spindleCheck/v1": f.fingerprint},
        }
        for f in report.findings
    ]
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "spindle-check",
                "informationUri": "docs/CHECK.md",
                "rules": rules,
            }},
            "results": results,
        }],
    }

"""Finding model, inline suppressions, and the checked-in baseline.

A :class:`Finding` is one rule violation at one source location. Its
*fingerprint* deliberately omits the line number so that unrelated edits
above a pre-existing finding do not churn the baseline file.

Suppressions: append ``# spindle-lint: allow[rule-name]`` (or a
comma-separated list of rule names) to the offending line, or place it
alone on the line directly above. Suppressing is a statement that a
human checked the invariant by hand — say why in a nearby comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set

__all__ = ["RULES", "Finding", "parse_suppressions", "load_baseline",
           "format_baseline"]

#: Catalog of rules: rule-name -> (pass name, one-line description).
RULES: Dict[str, tuple] = {
    "sst-monotonic-write": (
        "monotonicity",
        "raw write to SST cells bypasses the monotonic write point "
        "(SST.set); counters/flags may silently regress (paper §2.2)",
    ),
    "predicate-pure-eval": (
        "predicate-purity",
        "Predicate.evaluate must be side-effect free: no attribute "
        "mutation, no push/send/trigger calls (paper §2.4)",
    ),
    "predicate-eval-shape": (
        "predicate-purity",
        "Predicate.evaluate must return a (cpu_cost, value) 2-tuple",
    ),
    "trigger-deferred-posts": (
        "lock-discipline",
        "RDMA posts driven inside trigger() run under the shared lock; "
        "return the post generator instead so the thread can release "
        "first (paper §3.4)",
    ),
    "bare-except": (
        "sim-hygiene",
        "bare 'except:' swallows simulator-kernel errors (SimulationError, "
        "GeneratorExit) and hides protocol bugs",
    ),
    "mutable-default-arg": (
        "sim-hygiene",
        "mutable default argument is shared across calls — state leaks "
        "between simulated nodes/runs",
    ),
    "sync-wakeup": (
        "sim-hygiene",
        "waking a waiter synchronously bypasses the simulator queue and "
        "breaks same-time FIFO ordering; use sim.call_after(0.0, ...)",
    ),
    # ---- whole-program rules ---------------------------------------------
    "lockset-unprotected-write": (
        "lockset",
        "write to lock-protected shared state with an empty lockset on "
        "a path reachable from a concurrency root (paper §3.4)",
    ),
    "lockset-inconsistent": (
        "lockset",
        "write to shared state holding a lock disjoint from the "
        "attribute's inferred guard (paper §3.4)",
    ),
    "nondet-wall-clock": (
        "determinism",
        "wall-clock read (time.time/datetime.now/...) in simulation-"
        "reachable code breaks seeded bit-determinism; use sim.now",
    ),
    "nondet-unseeded-random": (
        "determinism",
        "module-level random.* or unseeded Random() in simulation-"
        "reachable code; all randomness must come from seeded RNGs",
    ),
    "nondet-id-order": (
        "determinism",
        "id() used as a key or ordering: object addresses are reused "
        "and vary across runs",
    ),
    "nondet-set-iteration": (
        "determinism",
        "set iteration order is salted by PYTHONHASHSEED; wrap in "
        "sorted(...) before it feeds scheduling or placement",
    ),
    "nondet-float-accumulation": (
        "determinism",
        "float '+=' accumulation inside an unordered loop: addition is "
        "not associative, so the result depends on iteration order",
    ),
}


@dataclass(frozen=True)
class Finding:
    """One violation of one rule at one location."""

    path: str          # repo-relative posix path
    line: int
    col: int
    rule: str
    message: str
    symbol: str        # enclosing `Class.method` scope, or "<module>"

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used for baseline matching."""
        return f"{self.path}::{self.symbol}::{self.rule}"

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"[{self.rule}] {self.message} (in {self.symbol})")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (``spindle-repro check --format json``)."""
        return {
            "path": self.path, "line": self.line, "col": self.col,
            "rule": self.rule, "message": self.message,
            "symbol": self.symbol, "fingerprint": self.fingerprint,
        }


_SUPPRESS_RE = re.compile(
    r"#\s*spindle-lint:\s*allow\[([A-Za-z0-9_,\- ]+)\]"
)


def parse_suppressions(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of suppressed rule names.

    A suppression on its own line also covers the *next* line, so the
    comment can sit above long statements.
    """
    out: Dict[int, Set[str]] = {}
    for i, line in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
        out.setdefault(i, set()).update(rules)
        if line.lstrip().startswith("#"):  # comment-only line: covers below
            out.setdefault(i + 1, set()).update(rules)
    return out


def load_baseline(text: str) -> Set[str]:
    """Parse a baseline file: one fingerprint per line, '#' comments."""
    out: Set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.add(line)
    return out


def format_baseline(findings: Iterable[Finding]) -> str:
    """Render findings as a baseline file body (sorted, deduplicated)."""
    lines: List[str] = [
        "# spindle-check baseline: known pre-existing findings.",
        "# One fingerprint (path::symbol::rule) per line; regenerate with",
        "#   spindle-repro check src --write-baseline",
        "# CI fails on any finding not listed here, and reports stale",
        "# entries so fixed findings cannot linger as suppression holes.",
    ]
    lines.extend(sorted({f.fingerprint for f in findings}))
    return "\n".join(lines) + "\n"

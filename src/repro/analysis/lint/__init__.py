"""spindle-check: static invariant checks + runtime sanitizer.

The Spindle stack rests on three invariants the paper states but code
can silently violate (see docs/CHECK.md):

* **SST monotonicity** (§2.2) — counter/flag columns never regress;
  batched acknowledgments (§3.2) and early lock release (§3.4) are
  unsound without it.
* **Predicate purity** (§2.4) — ``Predicate.evaluate`` is side-effect
  free and returns ``(cpu_cost, value)``.
* **Lock discipline** (§3.4) — when ``early_lock_release`` is on, RDMA
  posts happen *after* the shared predicate lock is released, via the
  deferred-posts generator returned by ``trigger``.

The *static half* (:mod:`check` runs the per-file :mod:`passes` plus
:mod:`lockset` and :mod:`determinism` over one parsed
:class:`~callgraph.Program`) checks these with stdlib-``ast`` analysis;
the *runtime half* (:mod:`sanitizer`, :mod:`hb`) asserts them on every
push during simulation. They are wired into the ``spindle-repro check``
CLI subcommand and the ``SPINDLE_SANITIZE=1`` / ``SPINDLE_HB=1`` pytest
fixtures.
"""

from .check import (
    ALL_PASSES,
    CheckReport,
    check_paths,
    check_sources,
    format_check_report,
)
from .findings import Finding, load_baseline, parse_suppressions
from .hb import HBTracker, disable_hb, enable_hb, global_tracker
from .passes import LintPass
from .sanitizer import (
    Sanitizer,
    SanitizerError,
    disable_global,
    enable_global,
    global_sanitizer,
)

__all__ = [
    "CheckReport",
    "check_paths",
    "check_sources",
    "format_check_report",
    "HBTracker",
    "enable_hb",
    "disable_hb",
    "global_tracker",
    "Finding",
    "load_baseline",
    "parse_suppressions",
    "ALL_PASSES",
    "LintPass",
    "Sanitizer",
    "SanitizerError",
    "enable_global",
    "disable_global",
    "global_sanitizer",
]

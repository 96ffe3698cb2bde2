"""Interprocedural lockset analysis (spindle-check pass 1).

The §3.4 lock discipline says: state shared between the predicate
thread and application sender threads (slot counters, round
assignments, in-flight queues) is mutated only under the node's shared
predicate lock.  PR 1's ``lock-discipline`` pass checks one lexical
shape of one violation; this pass checks the discipline itself, across
call boundaries:

1. every function gets a **local walk**: an abstract interpreter over
   its statements tracking which ``Lock``s are held (``yield
   x.acquire()`` adds, ``x.release()`` removes; a branch that releases
   and then raises does not poison the fall-through path);
2. locksets **propagate along the call graph** from the concurrency
   roots (predicate thread loop, router workers, recovery coordinator —
   all generators — plus address-taken callbacks), so a helper called
   only with the lock held is analyzed with ``{lock}`` as its entry
   lockset;
3. **guards are inferred per attribute** (Eraser-style): for each
   ``(class, attr)`` written by two or more functions, the candidate
   guard is the intersection of the locksets of all lock-holding
   writes.  A write reachable from a concurrency root whose lockset is
   empty (``lockset-unprotected-write``) or disjoint from the guard
   (``lockset-inconsistent``) is flagged.

Lock identity is the *name* of the lock attribute (``self.lock``,
``mc.thread.lock`` and ``self.thread.lock`` all canonicalize to
``lock``) — sound for this codebase, where each node has exactly one
shared predicate lock, and precise enough to tell two differently
named locks apart.  Soundness caveats: docs/CHECK.md.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .callgraph import FunctionInfo, Program
from .findings import Finding
from .passes import LintPass

__all__ = ["LocksetPass", "FunctionLocks", "analyze_function_locks"]

#: Container-mutator method names: ``self.x.append(...)`` counts as a
#: write to attribute ``x`` (the §3.4 shared state is largely deques).
_MUTATOR_CALLS = frozenset({
    "append", "appendleft", "extend", "add", "insert", "pop", "popleft",
    "remove", "discard", "clear", "update", "setdefault",
})

#: Writes in these methods are constructor/teardown-phase and exempt
#: (the object is not yet — or no longer — shared).
_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__new__",
                             "__del__", "__enter__", "__exit__"})

Lockset = FrozenSet[str]


@dataclass
class _Write:
    """One shared-attribute store observed during the local walk."""

    attr: str
    locks: Lockset          # locks held locally at the store
    node: ast.AST           # the storing statement / mutator call


@dataclass
class _CallObs:
    """One call site with the locally held locks at that point."""

    index: int              # index into FunctionInfo.calls
    locks: Lockset


@dataclass
class FunctionLocks:
    """Local (intraprocedural) lock summary of one function."""

    writes: List[_Write] = field(default_factory=list)
    calls: List[_CallObs] = field(default_factory=list)


def _lock_token(expr: ast.expr) -> Optional[str]:
    """Canonical name of a lock expression, or None if not lock-like."""
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    if name is not None and "lock" in name.lower():
        return name
    return None


def _acquired_release(node: ast.Call) -> Optional[Tuple[str, str]]:
    """('acquire'|'release', token) if ``node`` is a lock op, else None."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("acquire",
                                                         "release"):
        token = _lock_token(func.value)
        if token is not None:
            return func.attr, token
    return None


def analyze_function_locks(fi: FunctionInfo) -> FunctionLocks:
    """Run the local abstract interpreter over one function body."""
    summary = FunctionLocks()
    # Map call sites back to FunctionInfo.calls: _scan_body's traversal
    # order differs from ours, so match by (line, callee-name, nth
    # occurrence) instead of position.
    seen_calls: Dict[Tuple[int, str], int] = {}
    site_lookup: Dict[Tuple[int, str, int], int] = {}
    occurrence: Dict[Tuple[int, str], int] = {}
    for idx, site in enumerate(fi.calls):
        key = (site.line, site.name)
        site_lookup[(site.line, site.name,
                     occurrence.get(key, 0))] = idx
        occurrence[key] = occurrence.get(key, 0) + 1

    def note_call(node: ast.Call, held: Set[str]) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        key = (getattr(node, "lineno", 1), name)
        nth = seen_calls.get(key, 0)
        seen_calls[key] = nth + 1
        idx = site_lookup.get((key[0], key[1], nth))
        if idx is not None:
            summary.calls.append(_CallObs(idx, frozenset(held)))

    def note_writes(node: ast.stmt, held: Set[str]) -> None:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for attr in _self_attr_targets(target):
                summary.writes.append(_Write(attr, frozenset(held), node))
        # container mutation: self.x.append(...) and friends
        for sub in _exprs_of(node):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATOR_CALLS):
                recv = sub.func.value
                attr = _self_attr(recv)
                if attr is not None:
                    summary.writes.append(_Write(attr, frozenset(held), sub))

    def walk(stmts: List[ast.stmt],
             held: Set[str]) -> Tuple[Set[str], bool]:
        """Returns (held-at-exit, terminated) for a statement list."""
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # separate FunctionInfo / deferred context
            if isinstance(stmt, (ast.Return, ast.Raise, ast.Break,
                                 ast.Continue)):
                note_writes(stmt, held)
                self_ops(stmt, held)
                return held, True
            if isinstance(stmt, ast.If):
                header_calls(stmt.test, held)
                then_held, then_term = walk(list(stmt.body), set(held))
                else_held, else_term = walk(list(stmt.orelse), set(held))
                exits = [h for h, t in ((then_held, then_term),
                                        (else_held, else_term)) if not t]
                if not exits:
                    return held, True
                held = set.intersection(*map(set, exits))
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                header_calls(getattr(stmt, "iter", None)
                             or getattr(stmt, "test", None), held)
                body_held, _ = walk(list(stmt.body), set(held))
                walk(list(stmt.orelse), set(held))
                held = held & body_held  # loop may run zero times
                continue
            if isinstance(stmt, ast.Try):
                body_held, body_term = walk(list(stmt.body), set(held))
                for handler in stmt.handlers:
                    walk(list(handler.body), set(held))
                merged = held & body_held if not body_term else set(held)
                walk(list(stmt.orelse), set(merged))
                final_held, final_term = walk(list(stmt.finalbody),
                                              set(merged))
                if final_term or body_term:
                    return final_held, body_term or final_term
                held = final_held
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    header_calls(item.context_expr, held)
                inner, term = walk(list(stmt.body), set(held))
                if term:
                    return inner, True
                held = inner
                continue
            # simple statement (contains no nested statements): record
            # observations with the pre-state, then apply lock ops
            note_writes(stmt, held)
            self_ops(stmt, held)
        return held, False

    def self_ops(stmt: ast.stmt, held: Set[str]) -> None:
        for sub in _exprs_of(stmt):
            if isinstance(sub, ast.Call):
                note_call(sub, held)
                op = _acquired_release(sub)
                if op is not None:
                    kind, token = op
                    if kind == "acquire":
                        held.add(token)
                    else:
                        held.discard(token)

    def header_calls(expr: Optional[ast.expr], held: Set[str]) -> None:
        if expr is None:
            return
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                note_call(sub, held)

    walk(list(fi.node.body), set())  # type: ignore[arg-type]
    return summary


def _exprs_of(stmt: ast.stmt) -> Iterator[ast.expr]:
    """All expression nodes of one statement, not descending into
    nested definitions (there are none: walk() filters them)."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.expr):
            yield node


def _self_attr(expr: ast.expr) -> Optional[str]:
    """'x' if expr is exactly ``self.x``, else None."""
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return expr.attr
    return None


def _self_attr_targets(target: ast.expr) -> List[str]:
    """Attributes of ``self`` stored to by an assignment target
    (``self.x = ..``, ``self.x[i] = ..``, tuple targets)."""
    out: List[str] = []
    if isinstance(target, ast.Attribute):
        attr = _self_attr(target)
        if attr is not None:
            out.append(attr)
    elif isinstance(target, ast.Subscript):
        attr = _self_attr(target.value)
        if attr is not None:
            out.append(attr)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            out.extend(_self_attr_targets(elt))
    return out


# --------------------------------------------------------------------------
# Interprocedural propagation + guard inference
# --------------------------------------------------------------------------

#: Cap on distinct entry locksets tracked per function; additional
#: contexts are intersected into the smallest existing one (conservative
#: toward flagging, bounded toward termination).
_MAX_ENTRIES = 8

#: Module prefixes whose classes are exempt from guard inference.  These
#: layers *implement* the concurrency model rather than run inside it:
#: the sim kernel is the single-threaded scheduler that defines what a
#: lock even is; the RDMA layer models NIC hardware (one-sided remote
#: writes bypass host locks by design — that is the point of RDMA); the
#: metrics instruments and the analyzer itself run in kernel context.
DEFAULT_EXEMPT_MODULES = ("repro.sim.", "repro.rdma.", "repro.metrics.",
                          "repro.analysis.")


class LocksetPass(LintPass):
    """Whole-program pass; run via :meth:`run_program`."""

    name = "lockset"
    rules = ("lockset-unprotected-write", "lockset-inconsistent")

    def __init__(self, exempt_modules: Tuple[str, ...] =
                 DEFAULT_EXEMPT_MODULES):
        self.exempt_modules = tuple(exempt_modules)

    def _exempt(self, fi: FunctionInfo) -> bool:
        return any(fi.module == p.rstrip(".") or fi.module.startswith(p)
                   for p in self.exempt_modules)

    def run_program(self, program: Program) -> Iterator[Finding]:
        locals_: Dict[str, FunctionLocks] = {}
        for qual in sorted(program.functions):
            locals_[qual] = analyze_function_locks(
                program.functions[qual])

        roots = program.concurrency_roots()
        # Predicate evaluate/trigger bodies run entirely under the shared
        # predicate lock (PredicateThread._run releases only after the
        # trigger generator completes — §2.4/§3.4), so their entry
        # lockset is *pinned* to {lock}.  Pinning also keeps the
        # Event.trigger/Predicate.trigger name collision from leaking
        # callers' empty locksets into trigger bodies.
        pinned: Dict[str, Lockset] = {
            qual: frozenset({"lock"})
            for qual, why in roots.items() if why == "predicate"
        }
        entries: Dict[str, Set[Lockset]] = {}
        origins: Dict[str, Set[str]] = {}
        work: List[str] = []
        for qual in sorted(roots):
            entries[qual] = {pinned.get(qual, frozenset())}
            origins[qual] = {qual}
            work.append(qual)

        while work:
            qual = work.pop()
            fi = program.functions[qual]
            summary = locals_[qual]
            for obs in summary.calls:
                site = fi.calls[obs.index]
                for callee in program.resolve(fi, site):
                    changed = False
                    if callee in pinned:
                        entries.setdefault(callee, {pinned[callee]})
                        callee_origins = origins.setdefault(callee, set())
                        before = len(callee_origins)
                        callee_origins.update(origins.get(qual, ()))
                        if len(callee_origins) != before:
                            work.append(callee)
                        continue
                    callee_entries = entries.setdefault(callee, set())
                    for entry in entries[qual]:
                        eff = entry | obs.locks
                        if eff not in callee_entries:
                            if len(callee_entries) >= _MAX_ENTRIES:
                                smallest = min(callee_entries, key=len)
                                merged = smallest & eff
                                if merged not in callee_entries:
                                    callee_entries.add(merged)
                                    changed = True
                            else:
                                callee_entries.add(eff)
                                changed = True
                    callee_origins = origins.setdefault(callee, set())
                    before = len(callee_origins)
                    callee_origins.update(origins.get(qual, ()))
                    if changed or len(callee_origins) != before:
                        work.append(callee)

        # ---- collect write observations per (class, attr) ---------------
        # obs: (qual, write, effective locksets, reachable-roots)
        by_attr: Dict[Tuple[str, str], List[Tuple[str, _Write,
                                                  List[Lockset],
                                                  Set[str]]]] = {}
        for qual in sorted(program.functions):
            fi = program.functions[qual]
            if fi.cls is None or fi.name in _EXEMPT_METHODS:
                continue
            if self._exempt(fi):
                continue
            fentries = sorted(entries.get(qual, ()), key=sorted)
            if not fentries:
                continue  # not reachable from any concurrency root
            for write in locals_[qual].writes:
                eff = [frozenset(e | write.locks) for e in fentries]
                by_attr.setdefault((fi.cls, write.attr), []).append(
                    (qual, write, eff, origins.get(qual, set())))

        for (cls, attr) in sorted(by_attr):
            observations = by_attr[(cls, attr)]
            writers = {qual for qual, _, _, _ in observations}
            if len(writers) < 2:
                continue  # single-writer state: no interleaving to guard
            # Guard inference needs corroboration: one function writing
            # under an incidental caller's lock proves nothing, but two
            # distinct writers agreeing on a lock is a discipline.
            held_by_writer: Dict[str, List[Lockset]] = {}
            for qual, _, eff, _ in observations:
                held_by_writer.setdefault(qual, []).extend(
                    ls for ls in eff if ls)
            locked_writers = {qual for qual, sets in held_by_writer.items()
                              if sets}
            if len(locked_writers) < 2:
                continue
            held_sets = [ls for sets in held_by_writer.values()
                         for ls in sets]
            guard: Lockset = frozenset.intersection(*held_sets)
            reported: Set[Tuple[str, int]] = set()
            for qual, write, eff, origin in sorted(
                    observations, key=lambda o: (o[0], o[1].node.lineno)):
                key = (qual, write.node.lineno)
                if key in reported:
                    continue
                fi = program.functions[qual]
                via = ", ".join(sorted(origin)[:3]) or "?"
                if any(not ls for ls in eff):
                    reported.add(key)
                    yield self._finding(
                        fi.path, write.node, "lockset-unprotected-write",
                        f"write to {cls}.{attr} with empty lockset on a "
                        f"path reachable from {via}; other writes hold "
                        f"{_fmt(guard) or _fmt(held_sets[0])} (§3.4)",
                        fi.symbol,
                    )
                    continue
                # Inconsistency is judged leave-one-out: the guard the
                # *other* writers agree on (the global intersection would
                # include this writer's own locks, making disjointness
                # unsatisfiable by construction).
                others = [ls for other, sets in held_by_writer.items()
                          if other != qual for ls in sets]
                if not others:
                    continue
                guard_others = frozenset.intersection(*others)
                if guard_others and all(ls.isdisjoint(guard_others)
                                        for ls in eff):
                    reported.add(key)
                    yield self._finding(
                        fi.path, write.node, "lockset-inconsistent",
                        f"write to {cls}.{attr} holds "
                        f"{_fmt(frozenset.union(*eff))} but the other "
                        f"writers' guard is {_fmt(guard_others)} "
                        f"(reachable from {via})",
                        fi.symbol,
                    )


def _fmt(locks: Lockset) -> str:
    return "{" + ", ".join(sorted(locks)) + "}" if locks else ""

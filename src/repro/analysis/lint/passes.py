"""The four per-file AST passes of spindle-check.

Each pass walks the parsed modules of a :class:`Program` and yields
:class:`Finding` objects. They are heuristic by design (no type
inference — stdlib ``ast`` only): a finding means "this shape of code is
how the invariant gets violated", and a human can suppress it inline
after checking (see findings.py).

Passes
------
1. ``MonotonicityPass``   — raw writes to SST cells bypassing ``SST.set``
                            (§2.2: counters/flags must never regress).
2. ``PredicatePurityPass``— side effects or a wrong return shape in
                            ``Predicate.evaluate`` (§2.4 contract).
3. ``LockDisciplinePass`` — RDMA posts driven lexically inside
                            ``trigger()`` instead of being returned as a
                            deferred-post generator (§3.4).
4. ``SimHygienePass``     — bare ``except:``, mutable default args, and
                            synchronous wakeups bypassing the simulator
                            queue.

:class:`LintPass` is also the base of the two whole-program passes
(lockset.py, determinism.py), which override :meth:`run_program`; the
table of all six is ``check.ALL_PASSES``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from .callgraph import Program, _base_names, _scope_of
from .findings import Finding

__all__ = ["LintPass", "MonotonicityPass", "PredicatePurityPass",
           "LockDisciplinePass", "SimHygienePass"]


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


def _call_attr(node: ast.AST) -> Optional[str]:
    """Method name if ``node`` is a ``X.attr(...)`` call, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _walk_excluding_nested(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements but do not descend into nested function/class
    definitions (their bodies run in a different dynamic context)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue  # neither report nor descend: deferred context
        yield node
        stack.extend(ast.iter_child_nodes(node))


class LintPass:
    """Base class: one invariant, one or more rules, run over a Program."""

    name = "abstract"
    rules: Tuple[str, ...] = ()

    def run_program(self, program: Program) -> Iterator[Finding]:
        """Per-file passes inherit this: :meth:`run` on every module."""
        for mod in program.modules.values():
            yield from self.run(mod.tree, mod.path)

    def run(self, module: ast.Module, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, path: str, node: ast.AST, rule: str, message: str,
                 symbol: Optional[str] = None) -> Finding:
        """The one Finding builder: located at ``node``, in ``symbol``
        (default: the node's lexical ``Class.func`` scope)."""
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
            symbol=symbol or _scope_of(node),
        )


# --------------------------------------------------------------------------
# Pass 1: SST monotonicity
# --------------------------------------------------------------------------


class MonotonicityPass(LintPass):
    """Flag raw writes that bypass the SST monotonic write point.

    ``SST.set`` is the single place where counter/flag monotonicity
    (paper §2.2) is enforced; writing ``region.cells[...]``, assigning
    ``x.cells = ...``, or calling ``write_local`` anywhere else skips
    that check — exactly the bug class that makes batched acks (§3.2)
    and early lock release (§3.4) unsound.
    """

    name = "monotonicity"
    rules = ("sst-monotonic-write",)

    def run(self, module: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(module):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                hit = self._cells_store(target)
                if hit is not None:
                    yield self._finding(
                        path, node, "sst-monotonic-write",
                        f"direct store to {hit} bypasses SST.set "
                        f"monotonicity enforcement",
                    )
            attr = _call_attr(node)
            if attr == "write_local":
                yield self._finding(
                    path, node, "sst-monotonic-write",
                    "raw write_local() call bypasses SST.set "
                    "monotonicity enforcement",
                )

    @staticmethod
    def _cells_store(target: ast.expr) -> Optional[str]:
        # x.cells[...] = v   /  x.cells[a:b] = v
        if isinstance(target, ast.Subscript):
            value = target.value
            if isinstance(value, ast.Attribute) and value.attr == "cells":
                return ".cells[...]"
        # x.cells = v  (whole-list replacement)
        if isinstance(target, ast.Attribute) and target.attr == "cells":
            return ".cells"
        # tuple targets: (a.cells[i], b) = ...
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                hit = MonotonicityPass._cells_store(elt)
                if hit is not None:
                    return hit
        return None


# --------------------------------------------------------------------------
# Pass 2: predicate purity
# --------------------------------------------------------------------------

#: Method names that mutate state or emit I/O — forbidden in evaluate().
_IMPURE_CALLS = frozenset({
    "push", "push_col", "push_messages", "push_control", "send",
    "trigger", "ring", "set", "write_local", "post_write", "publish",
    "append", "appendleft", "extend", "add", "insert", "pop", "popleft",
    "remove", "discard", "clear", "update", "wedge", "spawn",
    "call_after", "call_at",
})


class PredicatePurityPass(LintPass):
    """Enforce the ``Predicate.evaluate`` contract (§2.4).

    evaluate() runs on every iteration of the predicate thread for every
    registered predicate — including inactive subgroups (§4.1.3). A side
    effect there runs under the shared lock at an unpredictable rate; the
    framework's accounting and the §3.4 optimization both assume there
    is none. It must return ``(cpu_cost, value)``.
    """

    name = "predicate-purity"
    rules = ("predicate-pure-eval", "predicate-eval-shape")

    def run(self, module: ast.Module, path: str) -> Iterator[Finding]:
        for cls in ast.walk(module):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not any(b.endswith("Predicate") for b in _base_names(cls)):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "evaluate":
                    yield from self._check_evaluate(item, path)

    def _check_evaluate(self, fn: ast.FunctionDef,
                        path: str) -> Iterator[Finding]:
        has_return_value = False
        for node in _walk_excluding_nested(fn.body):
            # --- side effects -------------------------------------------
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if self._mutates_shared(target):
                    yield self._finding(
                        path, node, "predicate-pure-eval",
                        "evaluate() mutates attribute/container state",
                    )
            attr = _call_attr(node)
            if attr in _IMPURE_CALLS:
                yield self._finding(
                    path, node, "predicate-pure-eval",
                    f"evaluate() calls mutating/IO method '{attr}()'",
                )
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yield self._finding(
                    path, node, "predicate-pure-eval",
                    "evaluate() must not be a generator; costs are "
                    "returned, not yielded",
                )
            # --- return shape -------------------------------------------
            if isinstance(node, ast.Return):
                has_return_value = has_return_value or node.value is not None
                yield from self._check_return(node, path)
        if not has_return_value:
            yield self._finding(
                path, fn, "predicate-eval-shape",
                "evaluate() never returns a (cpu_cost, value) tuple",
            )

    @staticmethod
    def _mutates_shared(target: ast.expr) -> bool:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            return True
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(PredicatePurityPass._mutates_shared(e)
                       for e in target.elts)
        return False

    def _check_return(self, node: ast.Return,
                      path: str) -> Iterator[Finding]:
        value = node.value
        if value is None:
            yield self._finding(
                path, node, "predicate-eval-shape",
                "bare return in evaluate(); must return (cpu_cost, value)",
            )
        elif isinstance(value, ast.Tuple):
            if len(value.elts) != 2:
                yield self._finding(
                    path, node, "predicate-eval-shape",
                    f"evaluate() returns a {len(value.elts)}-tuple; the "
                    f"contract is (cpu_cost, value)",
                )
        elif isinstance(value, ast.Constant):
            yield self._finding(
                path, node, "predicate-eval-shape",
                "evaluate() returns a bare constant; the contract is "
                "(cpu_cost, value)",
            )
        # Name / Call / conditional expressions: assume the author built
        # the tuple elsewhere — no type inference here.


# --------------------------------------------------------------------------
# Pass 3: §3.4 lock discipline
# --------------------------------------------------------------------------


class LockDisciplinePass(LintPass):
    """Flag RDMA posts *driven* inside ``trigger()`` bodies.

    ``trigger`` runs with the shared predicate lock held. Driving a push
    generator there (``yield from sst.push(...)``) posts every RDMA
    write inside the critical section — the exact anti-pattern §3.4
    removes. The sanctioned shape is to *return* the un-started
    generator and let the thread drive it after releasing the lock.
    """

    name = "lock-discipline"
    rules = ("trigger-deferred-posts",)

    _PUSH_PREFIXES = ("push",)

    def run(self, module: ast.Module, path: str) -> Iterator[Finding]:
        for cls in ast.walk(module):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not any(b.endswith("Predicate") for b in _base_names(cls)):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "trigger":
                    yield from self._check_trigger(item, path)

    def _check_trigger(self, fn: ast.FunctionDef,
                       path: str) -> Iterator[Finding]:
        for node in _walk_excluding_nested(fn.body):
            if isinstance(node, ast.YieldFrom):
                attr = _call_attr(node.value)
                if attr is not None and attr.startswith(self._PUSH_PREFIXES):
                    yield self._finding(
                        path, node, "trigger-deferred-posts",
                        f"'yield from ...{attr}(...)' drives RDMA posts "
                        f"under the shared lock; return the generator for "
                        f"deferred posting instead (§3.4)",
                    )
            # A push generator created and immediately discarded is dead
            # code at best and a missed post at worst.
            if isinstance(node, ast.Expr):
                attr = _call_attr(node.value)
                if attr is not None and attr.startswith(self._PUSH_PREFIXES):
                    yield self._finding(
                        path, node, "trigger-deferred-posts",
                        f"bare '{attr}(...)' creates a push generator and "
                        f"drops it: posts never happen",
                    )


# --------------------------------------------------------------------------
# Pass 4: simulation hygiene
# --------------------------------------------------------------------------

#: Names whose direct invocation looks like a stored continuation being
#: woken synchronously (bypassing the event queue and FIFO ordering).
_WAKEUP_NAMES = frozenset({"waiter", "continuation", "resume_fn"})


class SimHygienePass(LintPass):
    """Catch generic patterns that corrupt deterministic simulation."""

    name = "sim-hygiene"
    rules = ("bare-except", "mutable-default-arg", "sync-wakeup")

    def run(self, module: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(module):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self._finding(
                    path, node, "bare-except",
                    "bare 'except:' also catches GeneratorExit/"
                    "KeyboardInterrupt and hides kernel errors; name the "
                    "exception",
                )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(node, path)
            if isinstance(node, ast.Call):
                yield from self._check_wakeup(node, path)

    def _check_defaults(self, fn: ast.AST, path: str) -> Iterator[Finding]:
        args = fn.args  # type: ignore[attr-defined]
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                yield self._finding(
                    path, default, "mutable-default-arg",
                    "mutable default argument is shared across all calls",
                )
            elif isinstance(default, ast.Call) and isinstance(
                default.func, ast.Name
            ) and default.func.id in ("list", "dict", "set", "deque",
                                      "bytearray"):
                yield self._finding(
                    path, default, "mutable-default-arg",
                    f"mutable default '{default.func.id}()' is evaluated "
                    f"once and shared across all calls",
                )

    def _check_wakeup(self, node: ast.Call, path: str) -> Iterator[Finding]:
        func = node.func
        # waiter(value) — direct invocation of a stored continuation.
        if isinstance(func, ast.Name) and func.id in _WAKEUP_NAMES:
            yield self._finding(
                path, node, "sync-wakeup",
                f"direct call of stored continuation '{func.id}(...)' "
                f"bypasses the simulator queue; use "
                f"sim.call_after(0.0, {func.id}, ...)",
            )
        # waiters[i](value) — same, via the collection.
        if isinstance(func, ast.Subscript):
            base = func.value
            if isinstance(base, (ast.Name, ast.Attribute)):
                base_name = base.id if isinstance(base, ast.Name) else base.attr
                if base_name in ("waiters", "_waiters"):
                    yield self._finding(
                        path, node, "sync-wakeup",
                        "direct call into the waiter queue bypasses the "
                        "simulator queue; use sim.call_after(0.0, ...)",
                    )
        # proc._step(...) from outside the Process class itself.
        if (isinstance(func, ast.Attribute) and func.attr == "_step"
                and not (isinstance(func.value, ast.Name)
                         and func.value.id == "self")):
            yield self._finding(
                path, node, "sync-wakeup",
                "resuming a process via _step() bypasses scheduling; "
                "trigger an Event or use sim.call_after",
            )

"""Determinism analysis (spindle-check pass 2).

Every chaos replay, trace fingerprint and BENCH baseline in this repo
assumes the simulator is **bit-deterministic under a seed**: the same
seed and schedule must produce byte-identical logs.  This pass flags
the code shapes that break that promise, but only where they matter —
in code *reachable from simulation event handlers* (generator
processes, predicate ``evaluate``/``trigger`` bodies, and
address-taken callbacks, per
:meth:`~repro.analysis.lint.callgraph.Program.concurrency_roots`).
A benchmark's wall-clock measurement loop is fine; a wall-clock read
inside a delivery predicate is not.

Rules
-----
* ``nondet-wall-clock``        — ``time.time()``/``datetime.now()``/
                                 ``perf_counter()`` etc.: real time
                                 leaking into simulated control flow.
* ``nondet-unseeded-random``   — the module-level ``random.*`` API or a
                                 ``Random()`` with no seed; all
                                 randomness must come from seeded RNGs.
* ``nondet-id-order``          — ``id()`` used as a dict key, subscript
                                 key, or sort/min/max key: ids vary
                                 across runs (and CPython reuses them),
                                 so any order or identity derived from
                                 them is unstable.
* ``nondet-set-iteration``     — iterating a ``set``/``frozenset``
                                 without ``sorted()``: string hashing is
                                 salted per process, so iteration order
                                 feeds PYTHONHASHSEED into scheduling
                                 and placement decisions.
* ``nondet-float-accumulation``— ``+=`` accumulation inside such an
                                 unordered loop: float addition is not
                                 associative, so even a value-identical
                                 set produces run-dependent sums.

The reachability filter is an over-approximation in both directions
(docs/CHECK.md): name-based call resolution may mark dead code
reachable, and code invoked only reflectively may be missed.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from .callgraph import FunctionInfo, Program
from .findings import Finding
from .passes import LintPass

__all__ = ["DeterminismPass"]

#: Module-attribute calls that read the wall clock.
_CLOCK_ATTRS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "process_time"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}
#: Bare names that are unmistakably wall-clock reads when called
#: (``from time import perf_counter``).
_CLOCK_NAMES = frozenset({"perf_counter", "perf_counter_ns", "monotonic",
                          "monotonic_ns", "time_ns"})

#: Module-level ``random.*`` API (shared, unseeded-by-default RNG).
_RANDOM_ATTRS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "getrandbits", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate", "lognormvariate", "seed",
})

#: Calls whose result order matters for the id()-as-key rule.
_ORDER_CALLS = frozenset({"sorted", "min", "max"})

#: What the per-function checks yield: (node, rule, message).
_Hit = Tuple[ast.AST, str, str]


class DeterminismPass(LintPass):
    """Whole-program pass; run via :meth:`run_program`."""

    name = "determinism"
    rules = ("nondet-wall-clock", "nondet-unseeded-random",
             "nondet-id-order", "nondet-set-iteration",
             "nondet-float-accumulation")

    def run_program(self, program: Program) -> Iterator[Finding]:
        reachable = program.reachable(program.concurrency_roots())
        for qual in sorted(reachable):
            fi = program.functions[qual]
            for node, rule, message in self._check_function(fi):
                yield self._finding(fi.path, node, rule, message, fi.symbol)

    # ------------------------------------------------------------ per-func

    def _check_function(self, fi: FunctionInfo) -> Iterator[_Hit]:
        set_names = _set_typed_names(fi)
        body: List[ast.stmt] = list(fi.node.body)  # type: ignore
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested defs get their own FunctionInfo
            if isinstance(node, ast.Call):
                yield from self._check_call(node)
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and _is_id_call(key):
                        yield key, "nondet-id-order", (
                            "id() as a dict key: CPython reuses ids "
                            "after GC, and any ordering derived from "
                            "them varies across runs")
            if isinstance(node, ast.Subscript) and _is_id_call(
                    node.slice if not isinstance(node.slice, ast.Tuple)
                    else node.slice):
                yield node, "nondet-id-order", (
                    "id()-keyed subscript: ids are reused after GC and "
                    "are not stable across runs")
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_loop(node, set_names)
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_unordered(gen.iter, set_names):
                        yield gen.iter, "nondet-set-iteration", (
                            "comprehension over a set: iteration order "
                            "is salted by PYTHONHASHSEED; wrap in "
                            "sorted(...)")
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(self, node: ast.Call) -> Iterator[_Hit]:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            recv, attr = func.value.id, func.attr
            if attr in _CLOCK_ATTRS.get(recv, ()):
                yield node, "nondet-wall-clock", (
                    f"{recv}.{attr}() reads the wall clock inside "
                    f"simulation-reachable code; use sim.now")
            if recv == "random" and attr in _RANDOM_ATTRS:
                yield node, "nondet-unseeded-random", (
                    f"module-level random.{attr}() uses the shared "
                    f"unseeded RNG; draw from a seeded Random "
                    f"(e.g. sim.rng)")
        if isinstance(func, ast.Name):
            if func.id in _CLOCK_NAMES:
                yield node, "nondet-wall-clock", (
                    f"{func.id}() reads the wall clock inside "
                    f"simulation-reachable code; use sim.now")
            if func.id == "Random" and not node.args and not node.keywords:
                yield node, "nondet-unseeded-random", (
                    "Random() with no seed draws entropy from the OS; "
                    "pass an explicit seed")
            if func.id in _ORDER_CALLS:
                for arg in node.args:
                    if _is_id_call(arg):
                        yield arg, "nondet-id-order", (
                            f"{func.id}() over id() values: ids are "
                            f"not stable across runs")
                for kw in node.keywords:
                    if (kw.arg == "key" and isinstance(kw.value, ast.Name)
                            and kw.value.id == "id"):
                        yield kw.value, "nondet-id-order", (
                            f"{func.id}(key=id) orders by object "
                            f"address, which varies across runs")
        # x.sort(key=id)
        if (isinstance(func, ast.Attribute) and func.attr == "sort"):
            for kw in node.keywords:
                if (kw.arg == "key" and isinstance(kw.value, ast.Name)
                        and kw.value.id == "id"):
                    yield kw.value, "nondet-id-order", (
                        "sort(key=id) orders by object address, which "
                        "varies across runs")

    def _check_loop(self, node: ast.For,
                    set_names: Set[str]) -> Iterator[_Hit]:
        if not _is_unordered(node.iter, set_names):
            return
        yield node.iter, "nondet-set-iteration", (
            "iterating a set: order is salted by PYTHONHASHSEED and "
            "feeds control flow; wrap in sorted(...)")
        for sub in ast.walk(node):
            if isinstance(sub, ast.AugAssign) and isinstance(
                    sub.op, ast.Add):
                yield sub, "nondet-float-accumulation", (
                    "'+=' accumulation inside a set-ordered loop: float "
                    "addition is not associative, so the sum depends on "
                    "iteration order")


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "id" and len(node.args) == 1)


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically set-valued: a set display/comp, ``set(...)`` /
    ``frozenset(...)`` call, or a set-operator combination of such."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_unordered(node: ast.expr, set_names: Set[str]) -> bool:
    if _is_set_expr(node):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False


def _set_typed_names(fi: FunctionInfo) -> Set[str]:
    """Local names that are definitely sets: assigned only from set
    expressions (or annotated ``Set[...]``) within this function."""
    set_like: Set[str] = set()
    other: Set[str] = set()
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    (set_like if _is_set_expr(node.value)
                     else other).add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            ann = node.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            name = (base.id if isinstance(base, ast.Name)
                    else getattr(base, "attr", ""))
            if name in ("Set", "set", "FrozenSet", "frozenset",
                        "MutableSet"):
                set_like.add(node.target.id)
            elif isinstance(node.target, ast.Name):
                other.add(node.target.id)
    return set_like - other

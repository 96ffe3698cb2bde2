"""The one parsed program every spindle-check pass runs over.

Each target file is parsed once into a :class:`Program`. The four
per-file passes iterate ``program.modules``; the two whole-program
passes (lockset, determinism) also need *reachability* — "is this write
reachable from the predicate thread?", "does this wall-clock read sit
under a simulation event handler?" — which requires a (heuristic) view
of the whole program.

This module builds that view with stdlib ``ast`` only:

* **scope tags**: every node of every module carries its enclosing
  ``Class.func`` qualname (the ``symbol`` of per-file findings);
* a **symbol table**: every function/method in the scanned tree, keyed
  by ``module::Class.method`` qualname, with its AST, enclosing class,
  and generator-ness;
* a **call graph**: name-based resolution of every call site.  No type
  inference is attempted; ``self.foo()`` prefers methods of the same
  class, ``x.foo()`` resolves to *every* method named ``foo`` — a
  deliberate over-approximation (reachability must never miss a real
  path; extra edges only make downstream passes more conservative);
* **concurrency roots**: the entry points from which simulated threads
  of control run — generator functions (simulated processes are
  generators), ``evaluate``/``trigger`` methods of ``*Predicate``
  classes (run by the predicate thread), and *address-taken* functions
  (passed as callbacks to ``call_after``/``spawn``/hook lists, so the
  simulator can invoke them later).

Soundness caveats are documented in docs/CHECK.md: dynamic dispatch is
resolved by method *name*, so the graph over-approximates; code called
only through ``getattr``/``exec`` is invisible to root detection unless
it is a generator.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["CallSite", "FunctionInfo", "ModuleInfo", "Program",
           "build_program", "module_name_for"]


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``kind`` is how the callee was spelled:

    * ``"name"`` — ``foo(...)``;
    * ``"self"`` — ``self.foo(...)`` (method of the enclosing class);
    * ``"attr"`` — ``x.foo(...)`` on any other receiver.
    """

    kind: str
    name: str
    line: int


@dataclass
class FunctionInfo:
    """Symbol-table entry for one function or method."""

    qualname: str                  # "module::Class.method" / "module::func"
    module: str
    path: str
    name: str                      # bare function name
    cls: Optional[str]             # innermost enclosing class, if a method
    node: ast.AST                  # FunctionDef / AsyncFunctionDef
    is_generator: bool = False
    calls: List[CallSite] = field(default_factory=list)
    #: Function names referenced in *argument position* (address taken):
    #: ``sim.spawn(self._run())`` references nothing, but
    #: ``node.on_remote_write.append(self._landed)`` references
    #: ``_landed`` — the simulator may call it later.  A probe
    #: subscriber (``probe.subscribe(sanitizer)``) needs no such root: the
    #: kernel's sites call its methods by name.
    arg_refs: Set[str] = field(default_factory=set)

    @property
    def symbol(self) -> str:
        """``Class.name`` scope that whole-program findings report."""
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class ModuleInfo:
    """One parsed module of the scanned program."""

    name: str
    path: str                      # display (repo-relative) path
    tree: ast.Module
    source_lines: Sequence[str]
    #: class name -> list of base-class names (tail identifiers).
    classes: Dict[str, List[str]] = field(default_factory=dict)


def module_name_for(path: str) -> str:
    """Derive a dotted module name from a display path.

    ``src/repro/shard/router.py`` -> ``repro.shard.router``; paths
    outside a ``src`` root keep all components (``tests/foo.py`` ->
    ``tests.foo``).
    """
    parts = path.replace(os.sep, "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    while parts and parts[0] in ("src", ".", ""):
        parts = parts[1:]
    return ".".join(parts) or "<module>"


class Program:
    """The symbol table + call graph over a set of parsed modules."""

    def __init__(self) -> None:
        #: display path -> module, in the order the files were given.
        self.modules: Dict[str, ModuleInfo] = {}
        #: ``path: syntax error: ...`` for each file that did not parse.
        self.errors: List[str] = []
        self.functions: Dict[str, FunctionInfo] = {}
        # name-based resolution indexes (sorted at finalize time so that
        # traversal order — and therefore finding order — is stable).
        self._methods_by_name: Dict[str, List[str]] = {}
        self._methods_by_class: Dict[Tuple[str, str], List[str]] = {}
        self._funcs_by_name: Dict[str, List[str]] = {}
        self._funcs_by_module: Dict[Tuple[str, str], List[str]] = {}
        self._finalized = False

    # ------------------------------------------------------------- building

    def add_module(self, name: str, path: str, tree: ast.Module,
                   source_lines: Sequence[str]) -> None:
        info = ModuleInfo(name=name, path=path, tree=tree,
                          source_lines=source_lines)
        self.modules[path] = info
        self._collect(info)
        self._finalized = False

    def _collect(self, mod: ModuleInfo) -> None:
        """Fill the symbol table and tag every node with its enclosing
        ``Class.func`` qualname (read back by :func:`_scope_of`)."""

        def visit(node: ast.AST, scope: str, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                child._spindle_scope = inner  # type: ignore[attr-defined]
                if isinstance(child, ast.ClassDef):
                    mod.classes[child.name] = _base_names(child)
                    visit(child, inner, child.name)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    qual = f"{mod.name}::{inner}"
                    fi = FunctionInfo(
                        qualname=qual, module=mod.name, path=mod.path,
                        name=child.name, cls=cls, node=child,
                    )
                    _scan_body(fi, child)
                    self.functions[qual] = fi
                    # a nested def's own nested defs keep the outer class
                    visit(child, inner, cls)
                else:
                    visit(child, inner, cls)

        visit(mod.tree, "", None)

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._methods_by_name.clear()
        self._methods_by_class.clear()
        self._funcs_by_name.clear()
        self._funcs_by_module.clear()
        for qual in sorted(self.functions):
            fi = self.functions[qual]
            if fi.cls is not None:
                self._methods_by_name.setdefault(fi.name, []).append(qual)
                self._methods_by_class.setdefault(
                    (fi.cls, fi.name), []).append(qual)
            else:
                self._funcs_by_name.setdefault(fi.name, []).append(qual)
                self._funcs_by_module.setdefault(
                    (fi.module, fi.name), []).append(qual)
        self._finalized = True

    # ------------------------------------------------------------ resolution

    def resolve(self, caller: FunctionInfo, site: CallSite) -> List[str]:
        """Candidate callee qualnames for one call site (may be empty)."""
        self._finalize()
        if site.kind == "self" and caller.cls is not None:
            exact = self._methods_by_class.get((caller.cls, site.name))
            if exact:
                return list(exact)
            return list(self._methods_by_name.get(site.name, ()))
        if site.kind == "attr" or site.kind == "self":
            out = list(self._methods_by_name.get(site.name, ()))
            out.extend(self._funcs_by_name.get(site.name, ()))
            return out
        # bare name: same module first, else any module-level function
        exact = self._funcs_by_module.get((caller.module, site.name))
        if exact:
            return list(exact)
        return list(self._funcs_by_name.get(site.name, ()))

    def callees(self, qualname: str) -> List[str]:
        """Sorted, deduplicated callee set of one function."""
        fi = self.functions[qualname]
        out: Set[str] = set()
        for site in fi.calls:
            out.update(self.resolve(fi, site))
        return sorted(out)

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure of the call graph from ``roots``."""
        seen: Set[str] = set()
        stack = [r for r in sorted(set(roots)) if r in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            for callee in self.callees(qual):
                if callee not in seen:
                    stack.append(callee)
        return seen

    # ----------------------------------------------------------------- roots

    def concurrency_roots(self) -> Dict[str, str]:
        """Entry points of simulated threads of control.

        Returns ``{qualname: why}`` where ``why`` is one of
        ``"generator"``, ``"predicate"``, or ``"callback"``.  Sorted
        construction keeps downstream reports deterministic.
        """
        self._finalize()
        roots: Dict[str, str] = {}
        referenced: Set[str] = set()
        for qual in sorted(self.functions):
            referenced.update(self.functions[qual].arg_refs)
        for qual in sorted(self.functions):
            fi = self.functions[qual]
            if fi.cls is not None and fi.name in ("evaluate", "trigger"):
                bases = self.modules[fi.path].classes.get(fi.cls, [])
                if any(b.endswith("Predicate") for b in bases):
                    roots[qual] = "predicate"
                    continue
            if fi.is_generator:
                roots[qual] = "generator"
            elif fi.name in referenced:
                roots[qual] = "callback"
        return roots


# --------------------------------------------------------------------------
# AST scanning helpers
# --------------------------------------------------------------------------


def _scope_of(node: ast.AST) -> str:
    """Enclosing ``Class.func`` qualname of a node of a parsed module."""
    return getattr(node, "_spindle_scope", "") or "<module>"


def _base_names(cls: ast.ClassDef) -> List[str]:
    """Tail identifiers of a class's bases (``a.b.Base`` -> ``Base``)."""
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _scan_body(fi: FunctionInfo, fn: ast.AST) -> None:
    """Record call sites, generator-ness, and address-taken references,
    without descending into nested function/class definitions (they get
    their own FunctionInfo)."""
    body = fn.body  # type: ignore[attr-defined]
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            fi.is_generator = True
        if isinstance(node, ast.Call):
            line = getattr(node, "lineno", 1)
            func = node.func
            if isinstance(func, ast.Name):
                fi.calls.append(CallSite("name", func.id, line))
            elif isinstance(func, ast.Attribute):
                recv = func.value
                kind = ("self" if isinstance(recv, ast.Name)
                        and recv.id in ("self", "cls") else "attr")
                fi.calls.append(CallSite(kind, func.attr, line))
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                ref = _callable_ref(arg)
                if ref is not None:
                    fi.arg_refs.add(ref)
        stack.extend(ast.iter_child_nodes(node))


def _callable_ref(node: ast.expr) -> Optional[str]:
    """Name of a function referenced (not called) in argument position."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def build_program(sources: Iterable[Tuple[str, str]]) -> Program:
    """Build a :class:`Program` from ``(display_path, source)`` pairs.

    This is the one ``ast.parse`` per file of a run; a file that does
    not parse is recorded in ``program.errors`` and otherwise skipped.
    """
    program = Program()
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            program.errors.append(f"{path}: syntax error: {exc}")
            continue
        program.add_module(module_name_for(path), path, tree,
                           source.splitlines())
    return program

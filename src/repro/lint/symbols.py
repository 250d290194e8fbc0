"""Project-wide symbol table: per-module summaries for cross-module analysis.

The deep (``--deep``) tier analyses the project one module at a time but
reasons across modules: a ``parallel_map`` call in ``repro.data.generate``
may name a task function defined in ``repro.analysis.simulator`` through two
levels of aliased re-export.  The bridge is the :class:`ModuleSummary` — a
JSON-serializable digest of one module holding exactly the facts the
cross-module rule packs consume:

* the **import alias table** (``import numpy as np`` → ``np``,
  ``from ..obs import get_metrics`` → ``get_metrics``), with relative
  imports resolved against the module's dotted name;
* every **top-level function and method** with its parameter list, the
  dotted call targets it makes, its unseeded-RNG creation sites (the FLOW001
  sources), and its shape/dtype contract when annotated (SHAPE001/002);
* every **parallel_map call site** with the task-function expression.

Summaries are what the incremental cache persists: they are derived purely
from one module's source text, so a module's summary is valid exactly as
long as its content hash — cross-module *findings* are recomputed from
summaries instead (see :mod:`repro.lint.deep`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .shapes import ShapeContract, parse_contract

#: Call names (canonical, alias-resolved) that create an unseeded or
#: process-global NumPy generator — the FLOW001 taint sources.
UNSEEDED_RNG_CALLS = frozenset({
    "numpy.random.default_rng",  # only when called with no arguments
})

LEGACY_RNG_PREFIX = "numpy.random."
LEGACY_RNG_TAILS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "uniform", "normal", "standard_normal", "choice", "shuffle",
    "permutation", "get_state", "set_state"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class CallSite:
    """One call made inside a function body, by written dotted name."""

    name: str
    line: int
    col: int

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "CallSite":
        return cls(str(raw["name"]), int(raw["line"]), int(raw["col"]))


@dataclass
class RngSource:
    """One unseeded / process-global RNG creation site (FLOW001 source)."""

    line: int
    col: int
    what: str

    def as_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "col": self.col, "what": self.what}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RngSource":
        return cls(int(raw["line"]), int(raw["col"]), str(raw["what"]))


@dataclass
class ParallelMapSite:
    """One ``parallel_map(...)`` call with its task-function expression."""

    line: int
    col: int
    #: Dotted name of the task argument as written (``"run_task"``,
    #: ``"simulator.label_net"``) or ``"<lambda>"`` / ``"<expr>"``.
    task: str

    def as_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "col": self.col, "task": self.task}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ParallelMapSite":
        return cls(int(raw["line"]), int(raw["col"]), str(raw["task"]))


@dataclass
class FunctionSummary:
    """Cross-module-relevant facts of one function or method."""

    qualname: str
    line: int
    params: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    rng_sources: List[RngSource] = field(default_factory=list)
    parallel_maps: List[ParallelMapSite] = field(default_factory=list)
    contract: Optional[ShapeContract] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "params": list(self.params),
            "calls": [c.as_dict() for c in self.calls],
            "rng_sources": [r.as_dict() for r in self.rng_sources],
            "parallel_maps": [p.as_dict() for p in self.parallel_maps],
            "contract": self.contract.as_dict() if self.contract else None,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FunctionSummary":
        contract = raw.get("contract")
        return cls(
            qualname=str(raw["qualname"]), line=int(raw["line"]),
            params=[str(p) for p in raw.get("params", [])],
            calls=[CallSite.from_dict(c) for c in raw.get("calls", [])],
            rng_sources=[RngSource.from_dict(r)
                         for r in raw.get("rng_sources", [])],
            parallel_maps=[ParallelMapSite.from_dict(p)
                           for p in raw.get("parallel_maps", [])],
            contract=ShapeContract.from_dict(contract) if contract else None)


@dataclass
class ModuleSummary:
    """Serializable whole-module digest for the deep analysis tier."""

    module: str
    path: str
    is_package: bool = False
    #: alias → (target module, symbol or None).  ``import numpy as np``
    #: maps ``np`` to ``("numpy", None)``; ``from .pool import parallel_map``
    #: in ``repro.parallel`` maps ``parallel_map`` to
    #: ``("repro.parallel.pool", "parallel_map")``.
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    #: imported module names (the import-graph edges, pre-filter).
    imported_modules: List[str] = field(default_factory=list)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "is_package": self.is_package,
            "imports": {alias: [target, symbol]
                        for alias, (target, symbol)
                        in sorted(self.imports.items())},
            "imported_modules": sorted(set(self.imported_modules)),
            "functions": {name: fn.as_dict()
                          for name, fn in sorted(self.functions.items())},
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            module=str(raw["module"]), path=str(raw["path"]),
            is_package=bool(raw.get("is_package", False)),
            imports={alias: (str(pair[0]),
                             None if pair[1] is None else str(pair[1]))
                     for alias, pair in raw.get("imports", {}).items()},
            imported_modules=[str(m)
                              for m in raw.get("imported_modules", [])],
            functions={name: FunctionSummary.from_dict(fn)
                       for name, fn in raw.get("functions", {}).items()})


def resolve_relative(module: str, is_package: bool, level: int,
                     target: Optional[str]) -> Optional[str]:
    """Absolute module named by a ``from ...target import x`` statement."""
    if level == 0:
        return target
    parts = module.split(".") if module else []
    # level 1 is "this package": drop the module's own basename unless the
    # module *is* the package (__init__), then drop level-1 more.
    drop = level if not is_package else level - 1
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop] if drop else parts
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


def summarize_module(module: str, path: str, tree: ast.Module,
                     lines: List[str], is_package: bool = False
                     ) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module."""
    summary = ModuleSummary(module=module, path=path, is_package=is_package)
    _collect_imports(summary, tree)
    for qualname, node in _function_defs(tree):
        summary.functions[qualname] = _summarize_function(
            summary, qualname, node, lines)
    return summary


def _collect_imports(summary: ModuleSummary, tree: ast.AST) -> None:
    """Collect aliases and imported modules in source order.

    Aliases are collected everywhere: a deferred import still binds the
    name later call sites use.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                summary.imports[bound] = (target, None)
                summary.imported_modules.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            target = resolve_relative(summary.module, summary.is_package,
                                      node.level, node.module)
            if target is None:
                continue
            summary.imported_modules.append(target)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                summary.imports[bound] = (target, alias.name)
        else:
            _collect_imports(summary, node)


def _function_defs(tree: ast.Module
                   ) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Top-level functions and class methods with their local qualnames."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _summarize_function(summary: ModuleSummary, qualname: str,
                        node: ast.FunctionDef,
                        lines: List[str]) -> FunctionSummary:
    args = node.args
    params = [a.arg for a in (args.posonlyargs + args.args
                              + args.kwonlyargs)]
    fn = FunctionSummary(qualname=qualname, line=node.lineno, params=params,
                         contract=parse_contract(node, lines))
    for inner in ast.walk(node):
        if not isinstance(inner, ast.Call):
            continue
        written = dotted_name(inner.func)
        if written is None:
            continue
        fn.calls.append(CallSite(written, inner.lineno, inner.col_offset))
        canonical = canonical_name(summary, written)
        if _is_unseeded_rng(canonical, inner):
            fn.rng_sources.append(RngSource(
                inner.lineno, inner.col_offset, canonical))
        if canonical.split(".")[-1] == "parallel_map":
            fn.parallel_maps.append(ParallelMapSite(
                inner.lineno, inner.col_offset, _task_expr(inner)))
    return fn


def _task_expr(call: ast.Call) -> str:
    expr: Optional[ast.expr] = call.args[0] if call.args else None
    for keyword in call.keywords:
        if keyword.arg == "fn":
            expr = keyword.value
    if expr is None:
        return "<missing>"
    if isinstance(expr, ast.Lambda):
        return "<lambda>"
    written = dotted_name(expr)
    return written if written is not None else "<expr>"


def _is_unseeded_rng(canonical: str, call: ast.Call) -> bool:
    if canonical in UNSEEDED_RNG_CALLS:
        return not call.args and not call.keywords
    if canonical.startswith(LEGACY_RNG_PREFIX) \
            and canonical[len(LEGACY_RNG_PREFIX):] in LEGACY_RNG_TAILS:
        return True
    return False


def canonical_name(summary: ModuleSummary, written: str) -> str:
    """Alias-expand a written dotted name against one module's imports.

    ``np.random.default_rng`` becomes ``numpy.random.default_rng`` under
    ``import numpy as np``; names with no matching alias come back
    unchanged.  Only the first segment is an alias candidate — Python
    resolves attribute chains left to right.
    """
    head, _, rest = written.partition(".")
    target = summary.imports.get(head)
    if target is None:
        return written
    module, symbol = target
    base = f"{module}.{symbol}" if symbol else module
    return f"{base}.{rest}" if rest else base


class SymbolTable:
    """All module summaries plus cross-module name resolution.

    Resolution chases re-exports: ``repro.parallel.parallel_map`` (the
    package ``__init__`` alias) resolves to the defining
    ``repro.parallel.pool.parallel_map`` as long as each hop is a
    ``from X import y`` binding recorded in a summary.
    """

    #: Re-export chains longer than this are abandoned (cycle guard).
    MAX_HOPS = 8

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        self.summaries = summaries

    def module(self, name: str) -> Optional[ModuleSummary]:
        return self.summaries.get(name)

    # ------------------------------------------------------------------
    def resolve(self, module: str, written: str
                ) -> Optional[Tuple[str, str]]:
        """``(defining module, symbol)`` for a written name, if findable.

        ``module`` is where the name appears; ``written`` is the dotted
        text at the call site.  Returns ``None`` when the chain leaves the
        summarized project or never lands on a known definition.
        """
        summary = self.summaries.get(module)
        if summary is None:
            return None
        if written in summary.functions:
            return module, written  # plain same-module call
        canonical = canonical_name(summary, written)
        return self._chase(canonical)

    def _chase(self, canonical: str) -> Optional[Tuple[str, str]]:
        for _ in range(self.MAX_HOPS):
            split = self._split_known(canonical)
            if split is None:
                return None
            target_module, symbol = split
            summary = self.summaries[target_module]
            if symbol in summary.functions:
                return target_module, symbol
            via = summary.imports.get(symbol)
            if via is None:
                return None
            module, inner = via
            canonical = f"{module}.{inner}" if inner else module
        return None

    def _split_known(self, canonical: str) -> Optional[Tuple[str, str]]:
        """Split ``a.b.c.f`` into (longest known module prefix, remainder)."""
        parts = canonical.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.summaries:
                remainder = ".".join(parts[cut:])
                return module, remainder
        return None

    def function(self, module: str, symbol: str
                 ) -> Optional[FunctionSummary]:
        summary = self.summaries.get(module)
        if summary is None:
            return None
        return summary.functions.get(symbol)

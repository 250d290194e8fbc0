"""Project-wide symbol table: per-module summaries for cross-module analysis.

The deep (``--deep``) tier analyses the project one module at a time but
reasons across modules: a call in one module may name a function defined
in another through aliased imports and package re-exports, and the CONC
pack follows such calls into the lock-order graph.  The bridge is the
:class:`ModuleSummary` — a digest of one module holding exactly the facts
cross-module resolution consumes:

* the **import alias table** (``import numpy as np`` → ``np``,
  ``from ..obs import get_metrics`` → ``get_metrics``), with relative
  imports resolved against the module's dotted name;
* the qualnames of its **top-level functions and methods**.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple


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
class ModuleSummary:
    """Whole-module digest for the deep analysis tier."""

    module: str
    path: str
    is_package: bool = False
    #: alias → (target module, symbol or None).  ``import numpy as np``
    #: maps ``np`` to ``("numpy", None)``; ``from .ceff import
    #: effective_capacitance`` in ``repro.liberty`` maps
    #: ``effective_capacitance`` to ``("repro.liberty.ceff",
    #: "effective_capacitance")``.
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    #: qualnames of top-level functions and methods (``Class.method``).
    functions: Set[str] = field(default_factory=set)


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
                     is_package: bool = False) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module."""
    summary = ModuleSummary(module=module, path=path, is_package=is_package)
    _collect_imports(summary, tree)
    summary.functions.update(_function_qualnames(tree))
    return summary


def _collect_imports(summary: ModuleSummary, tree: ast.AST) -> None:
    """Collect import aliases in source order.

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
        elif isinstance(node, ast.ImportFrom):
            target = resolve_relative(summary.module, summary.is_package,
                                      node.level, node.module)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                summary.imports[bound] = (target, alias.name)
        else:
            _collect_imports(summary, node)


def _function_qualnames(tree: ast.Module) -> Iterator[str]:
    """Top-level functions and class methods, as local qualnames."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}"


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

    Resolution chases re-exports: ``repro.liberty.effective_capacitance``
    (the package ``__init__`` alias) resolves to the defining
    ``repro.liberty.ceff.effective_capacitance`` as long as each hop is a
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

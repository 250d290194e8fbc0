"""The import-time layer graph of ``src/repro`` is pinned.

Each top-level package under ``repro`` is a layer (``repro.cli`` is layer
``cli``; the ``repro`` facade itself belongs to none).  An import that runs
when its module is imported (module body, ``if``/``try`` blocks, class
bodies) from one layer into another is an edge.  Imports inside functions
are deferred and create no import-time coupling, so they are the way to
reach across layers without an edge.  The observed graph must equal
``LAYERS`` exactly, so a new edge, a stale edge and a new layer all fail:
edit the literal in the change that moves the import.  The repo
self-check (``test_selfcheck.py``) names the offending imports' edges.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: layer -> the layers its modules import at module scope.
LAYERS = {
    "analysis": {"obs", "rcnet", "robustness"},
    "baselines": {"core", "design", "features", "nn", "rcnet", "robustness"},
    "bench": {"baselines", "core", "data", "nn"},
    "cli": {"core"},
    "core": {"design", "features", "nn", "obs", "parallel", "rcnet",
             "robustness"},
    "data": {"analysis", "design", "features", "liberty", "obs", "parallel",
             "robustness"},
    "design": {"analysis", "features", "liberty", "obs", "parallel", "rcnet",
               "robustness"},
    "features": {"analysis", "liberty", "obs", "rcnet", "robustness"},
    "liberty": {"analysis", "rcnet", "robustness"},
    "lint": set(),
    "nn": {"obs", "robustness"},
    "obs": set(),
    "parallel": {"obs", "robustness"},
    "rcnet": {"robustness"},
    "robustness": {"design", "features", "obs", "rcnet"},
    "serve": {"design", "features", "obs", "rcnet", "robustness"},
}


def _module_scope_imports(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _module_scope_imports(child)


def _imported_modules(parts, is_package, node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    base = parts[:len(parts) - node.level + is_package]
    return [".".join(base + ([node.module] if node.module else []))]


def observed_layer_graph():
    graph = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        if len(parts) < 2:
            continue
        layer = parts[1]
        edges = graph.setdefault(layer, set())
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _module_scope_imports(tree):
            for target in _imported_modules(parts, is_package, node):
                segments = target.split(".")
                if segments[0] == "repro" and len(segments) > 1 \
                        and segments[1] != layer:
                    edges.add(segments[1])
    return graph


def test_repo_layer_graph_matches_golden():
    assert observed_layer_graph() == LAYERS

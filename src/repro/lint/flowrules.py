"""FLOW rule pack: dataflow findings over the deep tier.

Two rules, built on the CFG (:mod:`.cfg`), the dataflow engine
(:mod:`.dataflow`) and the module summaries (:mod:`.symbols`):

**FLOW002 — resource with a close-skipping path.**  A ``Span``/pool/file
object bound to a local has a CFG path from its creation to a *normal*
function exit with no ``close()``/``with`` on that path.  A value that
escapes — returned, yielded, or stored into an attribute, subscript or
container — transfers ownership and is not reported.  Passing it to a
call does not: ``json.dump(obj, handle)`` writes through the handle and
leaves it open.  Pure exception paths are ignored — ``with`` is still
better, but the rule only claims what the CFG proves.

**FLOW003 — taxonomy error raised without provenance.**  A
:mod:`repro.robustness.errors` exception is raised with no ``net=``,
``design=``, ``sink=``, ``stage=`` or ``tier=`` keyword reaching the raise
site — including when the error object was constructed earlier and raised
later (resolved through reaching definitions).  Re-raising a caught
exception is exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .cfg import CFG, Block, EDGE_NORMAL, function_cfgs
from .dataflow import Env, ReachingDefinitions, run_forward
from .engine import Finding, SEVERITY_ERROR, SEVERITY_WARNING
from .symbols import ModuleSummary, canonical_name, dotted_name

FLOW_RESOURCE_RULE = "FLOW002"
FLOW_PROVENANCE_RULE = "FLOW003"

#: Taxonomy exceptions whose raise sites must carry provenance keywords.
PROVENANCE_ERRORS = frozenset({
    "EstimationError", "InputError", "NumericalError", "ModelError"})

PROVENANCE_KEYS = frozenset({"net", "design", "sink", "stage", "tier"})

#: Callable tails treated as resource constructors by FLOW002.
RESOURCE_TAILS = frozenset({
    "open", "span", "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool",
    "Popen", "popen"})

#: Method tails that release a resource.
CLOSE_TAILS = frozenset({"close", "shutdown", "terminate", "release",
                         "join", "__exit__"})


def _snippet(lines: Sequence[str], lineno: int) -> str:
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()
    return ""


# ----------------------------------------------------------------------
# FLOW002
# ----------------------------------------------------------------------
class _ResourceAnalysis:
    """May-analysis: which open resources a local may hold at each point."""

    def __init__(self, summary: ModuleSummary, cfg: CFG) -> None:
        self.summary = summary
        self.cfg = cfg
        self.states = run_forward(cfg, self.transfer)

    def _is_resource_call(self, call: ast.Call) -> bool:
        written = dotted_name(call.func)
        if written is None:
            return False
        canonical = canonical_name(self.summary, written)
        return canonical.split(".")[-1] in RESOURCE_TAILS

    def transfer(self, stmt: ast.stmt, env: Env) -> Env:
        out = dict(env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            # `with open(...) as f` manages the resource; `with x:` closes
            # a previously opened one.
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name):
                    out.pop(expr.id, None)
            return out
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                for name in _names_in(stmt.value):
                    out.pop(name, None)
            return out
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Call) \
                and self._is_resource_call(stmt.value):
            out[stmt.targets[0].id] = frozenset(
                {("open", stmt.value.lineno, stmt.value.col_offset)})
            return out
        # Escapes and closes inside arbitrary statements.
        closed, escaped = self._closes_and_escapes(stmt)
        for name in closed | escaped:
            out.pop(name, None)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out.pop(target.id, None)
        return out

    @staticmethod
    def _closes_and_escapes(stmt: ast.stmt) -> Tuple[Set[str], Set[str]]:
        closed: Set[str] = set()
        escaped: Set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.attr in CLOSE_TAILS:
                    closed.add(node.func.value.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        escaped.update(_names_in(node.value))
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    escaped.update(_names_in(node.value))
        return closed, escaped


def _names_in(expr: ast.expr) -> Set[str]:
    return {node.id for node in ast.walk(expr)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def check_resource_paths(summary: ModuleSummary, tree: ast.Module,
                         lines: Sequence[str]) -> Iterator[Finding]:
    """FLOW002 findings of one module."""
    for name, cfg in function_cfgs(tree):
        analysis = _ResourceAnalysis(summary, cfg)
        preds = cfg.predecessors()
        leaked: Dict[Tuple[int, int], Set[str]] = {}
        reachable = cfg.reachable()
        for pred, kind in preds[cfg.exit]:
            if kind != EDGE_NORMAL or pred not in reachable:
                continue
            _, env_out = analysis.states.get(pred, ({}, {}))
            for var, facts in env_out.items():
                for fact in facts:
                    if isinstance(fact, tuple) and fact[0] == "open":
                        leaked.setdefault((fact[1], fact[2]),
                                          set()).add(var)
        for (line, col), variables in sorted(leaked.items()):
            names = ", ".join(sorted(variables))
            yield Finding(
                rule=FLOW_RESOURCE_RULE, severity=SEVERITY_WARNING,
                path=summary.path, line=line, col=col,
                message=(f"resource bound to {names!r} in {name}() has a "
                         f"path to function exit that never closes it; use "
                         f"a with block (or close on every path)"),
                snippet=_snippet(lines, line))


# ----------------------------------------------------------------------
# FLOW003
# ----------------------------------------------------------------------
def check_raise_provenance(summary: ModuleSummary, tree: ast.Module,
                           lines: Sequence[str]) -> Iterator[Finding]:
    """FLOW003 findings of one module."""
    for name, cfg in function_cfgs(tree):
        rd: Optional[ReachingDefinitions] = None
        for block in cfg.blocks:
            for stmt in block.stmts:
                if not isinstance(stmt, ast.Raise) or stmt.exc is None:
                    continue
                calls: List[ast.Call] = []
                via = ""
                if isinstance(stmt.exc, ast.Call):
                    calls = [stmt.exc]
                elif isinstance(stmt.exc, ast.Name):
                    if rd is None:
                        rd = ReachingDefinitions(cfg)
                    env = _env_at(rd, block, stmt)
                    for site in sorted(env.get(stmt.exc.id, frozenset()),
                                       key=str):
                        value = rd.value_at(stmt.exc.id, site)
                        if isinstance(value, ast.Call):
                            calls.append(value)
                    via = f" (constructed earlier, raised as " \
                          f"{stmt.exc.id!r})"
                for call in calls:
                    problem = _provenance_problem(summary, call)
                    if problem is None:
                        continue
                    yield Finding(
                        rule=FLOW_PROVENANCE_RULE, severity=SEVERITY_ERROR,
                        path=summary.path, line=stmt.lineno,
                        col=stmt.col_offset,
                        message=(f"{problem} raised without provenance"
                                 f"{via}; pass at least one of net=, "
                                 f"design=, sink=, stage=, tier= so the "
                                 f"failure stays traceable"),
                        snippet=_snippet(lines, stmt.lineno))


def _env_at(rd: ReachingDefinitions, block: Block,
            target: ast.stmt) -> Env:
    env: Env = rd.states.get(block.index, ({}, {}))[0]
    for stmt in block.stmts:
        if stmt is target:
            return env
        env = rd._transfer(stmt, env)
    return env


def _provenance_problem(summary: ModuleSummary,
                        call: ast.Call) -> Optional[str]:
    written = dotted_name(call.func)
    if written is None:
        return None
    canonical = canonical_name(summary, written)
    tail = canonical.split(".")[-1]
    if tail not in PROVENANCE_ERRORS:
        return None
    for keyword in call.keywords:
        if keyword.arg is None or keyword.arg in PROVENANCE_KEYS:
            return None
    return f"{tail}(...)"

"""Forward dataflow over :mod:`.cfg` graphs: engine plus one analysis.

The engine (:func:`run_forward`) is a classic worklist fixpoint for *may*
analyses: states are ``var -> frozenset(facts)`` environments, the join is
key-wise union, and a client supplies the per-statement transfer function.
Union joins converge because transfer functions here are monotone and the
fact sets are finite (bounded by the function's def sites).

:class:`ReachingDefinitions` — which textual definitions of each name can
reach each program point — ships with the engine.  FLOW003 uses it to find
the constructor call behind ``raise err`` when the error object was built
earlier.  It deliberately ignores attribute stores, containers and
aliasing: a definition lost to a dict or an object attribute simply stops
propagating, which for lint-tier findings is the right bias — silence over
noise.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .cfg import CFG

#: One dataflow environment: variable name -> set of opaque facts.
Env = Dict[str, FrozenSet[object]]

#: Per-statement transfer: ``(stmt, env) -> env`` (must not mutate input).
Transfer = Callable[[ast.stmt, Env], Env]


def join_envs(envs: List[Env]) -> Env:
    """Key-wise union of environments (the may-analysis join)."""
    merged: Dict[str, FrozenSet[object]] = {}
    for env in envs:
        for name, facts in env.items():
            existing = merged.get(name)
            merged[name] = facts if existing is None else existing | facts
    return merged


def run_forward(cfg: CFG, transfer: Transfer,
                initial: Optional[Env] = None) -> Dict[int, Tuple[Env, Env]]:
    """Fixpoint of a forward may-analysis; block index -> (in, out) envs."""
    preds = cfg.predecessors()
    states: Dict[int, Tuple[Env, Env]] = {}
    order = [b.index for b in cfg.blocks]
    worklist: List[int] = list(order)
    entry_env: Env = dict(initial or {})
    guard = 0
    limit = max(64, len(cfg.blocks) * len(cfg.blocks) * 4)
    while worklist:
        guard += 1
        if guard > limit * 8:
            break  # defensive: malformed graphs must not hang the linter
        index = worklist.pop(0)
        incoming = [states[p][1] for p, _ in preds[index] if p in states]
        env_in = join_envs(incoming)
        if index == cfg.entry:
            env_in = join_envs([entry_env, env_in])
        env_out = env_in
        for stmt in cfg.blocks[index].stmts:
            env_out = transfer(stmt, env_out)
        previous = states.get(index)
        states[index] = (env_in, env_out)
        if previous is None or previous[1] != env_out:
            for succ, _ in cfg.blocks[index].succs:
                if succ not in worklist:
                    worklist.append(succ)
    return states


# ----------------------------------------------------------------------
# Reaching definitions
# ----------------------------------------------------------------------
class ReachingDefinitions:
    """Which ``(line, col)`` definition sites of each name reach each point.

    ``value_at(var, site)`` recovers the assigned AST expression of a def
    site, letting clients reason about *what* a name held — e.g. FLOW003
    resolving ``raise err`` back to ``err = NumericalError(...)``.
    """

    PARAM = ("param", 0, 0)

    def __init__(self, cfg: CFG, params: Optional[List[str]] = None) -> None:
        self.cfg = cfg
        self._values: Dict[Tuple[str, int, int], Optional[ast.expr]] = {}
        initial: Env = {name: frozenset({self.PARAM})
                        for name in (params or [])}
        self.states = run_forward(cfg, self._transfer, initial)

    # -- queries --------------------------------------------------------
    def defs_in(self, block: int, var: str) -> FrozenSet[object]:
        env_in, _ = self.states.get(block, ({}, {}))
        return env_in.get(var, frozenset())

    def value_at(self, var: str, site: object) -> Optional[ast.expr]:
        if not isinstance(site, tuple) or len(site) != 3:
            return None
        return self._values.get((var, site[1], site[2]))  # type: ignore

    def reaching_values(self, block: int, var: str) -> List[ast.expr]:
        """Assigned expressions of every def of ``var`` reaching ``block``."""
        values = []
        for site in sorted(self.defs_in(block, var),
                           key=lambda s: (str(s),)):
            value = self.value_at(var, site)
            if value is not None:
                values.append(value)
        return values

    # -- transfer -------------------------------------------------------
    def _transfer(self, stmt: ast.stmt, env: Env) -> Env:
        out = dict(env)
        for name, value, line, col in _definitions(stmt):
            key = ("def", line, col)
            self._values[(name, line, col)] = value
            out[name] = frozenset({key})
        return out


def _definitions(stmt: ast.stmt
                 ) -> Iterator[Tuple[str, Optional[ast.expr], int, int]]:
    """(name, assigned value or None, line, col) defined by one statement."""
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for name in _target_names(target):
                yield name, stmt.value, stmt.lineno, stmt.col_offset
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        for name in _target_names(stmt.target):
            yield name, stmt.value, stmt.lineno, stmt.col_offset
    elif isinstance(stmt, ast.AugAssign):
        for name in _target_names(stmt.target):
            yield name, None, stmt.lineno, stmt.col_offset
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in _target_names(stmt.target):
            yield name, None, stmt.lineno, stmt.col_offset
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    yield name, item.context_expr, stmt.lineno, \
                        stmt.col_offset


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)

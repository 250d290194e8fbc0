"""Per-function control-flow graphs for the deep analysis tier.

:func:`build_cfg` lowers one function body to basic blocks connected by
control edges — the substrate the dataflow engine (:mod:`.dataflow`) runs
its fixpoint over.  The construction is deliberately statement-granular
and approximate where Python's dynamism makes precision expensive:

* ``if``/``while``/``for`` produce the usual diamond/loop shapes, with the
  control statement itself kept as the last statement of its block (its
  *test*/*iter* expressions evaluate there; bodies live in successor
  blocks, so a transfer function must not ``ast.walk`` a control
  statement).
* ``try`` adds an edge from every block of the ``try`` body to every
  handler — any statement may raise — plus the usual ``else`` path.
  ``finally`` bodies are appended on the join path; early exits (return
  inside ``try``) conservatively bypass them, which over-approximates
  paths and is the safe direction for may-analyses like leak detection.
* ``return``/``raise`` edge to the synthetic exit block.  ``raise`` edges
  are marked so path-sensitive clients (FLOW002 skips leak reports on
  pure exception paths) can tell normal from exceptional exit.
* ``break``/``continue`` edge to the innermost loop's exit/header.

:func:`dump_cfg` renders a stable text form used by the golden tests —
one line per block with its statements (``NodeType@line``) and successor
list, so structural regressions show up as readable diffs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Edge kinds: plain control flow vs. exceptional flow into exit/handlers.
EDGE_NORMAL = "normal"
EDGE_EXCEPT = "except"


@dataclass
class Block:
    """One basic block: straight-line statements plus outgoing edges."""

    index: int
    stmts: List[ast.stmt] = field(default_factory=list)
    #: (successor block index, edge kind) pairs, in creation order.
    succs: List[Tuple[int, str]] = field(default_factory=list)
    label: str = ""

    def successor_indices(self) -> List[int]:
        return [index for index, _ in self.succs]


@dataclass
class CFG:
    """Control-flow graph of one function."""

    name: str
    blocks: List[Block]
    entry: int = 0
    exit: int = 1

    def block(self, index: int) -> Block:
        return self.blocks[index]

    def predecessors(self) -> Dict[int, List[Tuple[int, str]]]:
        """Block index -> list of (predecessor index, edge kind)."""
        preds: Dict[int, List[Tuple[int, str]]] = {
            b.index: [] for b in self.blocks}
        for block in self.blocks:
            for succ, kind in block.succs:
                preds[succ].append((block.index, kind))
        return preds

    def reachable(self) -> Set[int]:
        """Indices of blocks reachable from the entry."""
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            stack.extend(s for s, _ in self.blocks[index].succs)
        return seen


class _Builder:
    def __init__(self, name: str) -> None:
        self.blocks: List[Block] = []
        self.cfg = CFG(name=name, blocks=self.blocks)
        self._new_block(label="entry")   # index 0
        self._new_block(label="exit")    # index 1
        self.current: Optional[int] = 0
        #: (header index, exit-join placeholder) per open loop.
        self.loops: List[Tuple[int, Block]] = []

    # -- low-level ------------------------------------------------------
    def _new_block(self, label: str = "") -> Block:
        block = Block(index=len(self.blocks), label=label)
        self.blocks.append(block)
        return block

    def _edge(self, src: int, dst: int, kind: str = EDGE_NORMAL) -> None:
        pair = (dst, kind)
        block = self.blocks[src]
        if pair not in block.succs:
            block.succs.append(pair)

    def _append(self, stmt: ast.stmt) -> None:
        if self.current is None:
            # Dead code after return/raise/break: park it in a fresh
            # unreachable block so its statements still exist for dumps.
            self.current = self._new_block().index
        self.blocks[self.current].stmts.append(stmt)

    def _terminate(self, *targets: Tuple[int, str]) -> None:
        assert self.current is not None
        for dst, kind in targets:
            self._edge(self.current, dst, kind)
        self.current = None

    def _resume(self) -> int:
        block = self._new_block()
        self.current = block.index
        return block.index

    # -- statement dispatch ----------------------------------------------
    def body(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._loop(stmt)
        elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            self._try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
        elif isinstance(stmt, ast.Return):
            self._append(stmt)
            self._terminate((self.cfg.exit, EDGE_NORMAL))
        elif isinstance(stmt, ast.Raise):
            self._append(stmt)
            self._terminate((self.cfg.exit, EDGE_EXCEPT))
        elif isinstance(stmt, ast.Break):
            self._append(stmt)
            if self.loops:
                _, join = self.loops[-1]
                self._terminate((join.index, EDGE_NORMAL))
            else:
                self._terminate((self.cfg.exit, EDGE_NORMAL))
        elif isinstance(stmt, ast.Continue):
            self._append(stmt)
            if self.loops:
                header, _ = self.loops[-1]
                self._terminate((header, EDGE_NORMAL))
            else:
                self._terminate((self.cfg.exit, EDGE_NORMAL))
        else:
            self._append(stmt)

    def _if(self, stmt: ast.If) -> None:
        self._append(stmt)
        assert self.current is not None
        cond = self.current
        join = self._new_block()
        then = self._new_block()
        self._edge(cond, then.index)
        self.current = then.index
        self.body(stmt.body)
        if self.current is not None:
            self._terminate((join.index, EDGE_NORMAL))
        if stmt.orelse:
            orelse = self._new_block()
            self._edge(cond, orelse.index)
            self.current = orelse.index
            self.body(stmt.orelse)
            if self.current is not None:
                self._terminate((join.index, EDGE_NORMAL))
        else:
            self._edge(cond, join.index)
        self.current = join.index

    def _loop(self, stmt: ast.stmt) -> None:
        if self.current is None:
            self._resume()
        assert self.current is not None
        header = self._new_block()
        self._edge(self.current, header.index)
        header.stmts.append(stmt)
        join = self._new_block()
        body = self._new_block()
        self._edge(header.index, body.index)
        self._edge(header.index, join.index)
        self.loops.append((header.index, join))
        self.current = body.index
        self.body(getattr(stmt, "body", []))
        if self.current is not None:
            self._terminate((header.index, EDGE_NORMAL))
        self.loops.pop()
        orelse = getattr(stmt, "orelse", [])
        if orelse:
            self.current = join.index
            self.body(orelse)
        else:
            self.current = join.index

    def _try(self, stmt: ast.Try) -> None:
        if self.current is None:
            self._resume()
        assert self.current is not None
        before = self.current
        body_entry = self._new_block()
        self._edge(before, body_entry.index)
        join = self._new_block()

        body_blocks_start = len(self.blocks)
        self.current = body_entry.index
        self.body(stmt.body)
        body_end = self.current
        body_blocks = [body_entry.index] + [
            b.index for b in self.blocks[body_blocks_start:]]

        handler_entries: List[int] = []
        for handler in stmt.handlers:
            entry = self._new_block()
            handler_entries.append(entry.index)
            self.current = entry.index
            self.body(handler.body)
            if self.current is not None:
                self._terminate((join.index, EDGE_NORMAL))
        # Any statement of the try body may raise into any handler.
        for index in body_blocks:
            for entry in handler_entries:
                self._edge(index, entry, EDGE_EXCEPT)
        self.current = body_end
        if self.current is not None:
            if stmt.orelse:
                self.body(stmt.orelse)
            if self.current is not None:
                self._terminate((join.index, EDGE_NORMAL))
        if stmt.finalbody:
            self.current = join.index
            self.body(stmt.finalbody)
        else:
            self.current = join.index

    def _with(self, stmt: ast.stmt) -> None:
        self._append(stmt)
        self.body(getattr(stmt, "body", []))


def build_cfg(fn: ast.FunctionDef) -> CFG:
    """The control-flow graph of one function definition."""
    builder = _Builder(fn.name)
    builder.body(fn.body)
    if builder.current is not None:
        builder._terminate((builder.cfg.exit, EDGE_NORMAL))
    return builder.cfg


def dump_cfg(cfg: CFG) -> str:
    """Stable text rendering for golden tests and debugging."""
    lines = [f"cfg {cfg.name} entry=B{cfg.entry} exit=B{cfg.exit}"]
    for block in cfg.blocks:
        stmts = " ".join(f"{type(s).__name__}@{s.lineno}"
                         for s in block.stmts) or "-"
        succs = ", ".join(
            f"B{index}" + ("!" if kind == EDGE_EXCEPT else "")
            for index, kind in block.succs) or "-"
        label = f" ({block.label})" if block.label else ""
        lines.append(f"B{block.index}{label}: {stmts} -> {succs}")
    return "\n".join(lines)


def function_cfgs(tree: ast.Module) -> Iterator[Tuple[str, CFG]]:
    """CFGs of every top-level function and method of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, build_cfg(node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", build_cfg(item)

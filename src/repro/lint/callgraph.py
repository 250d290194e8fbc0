"""Project call graph over module summaries.

Nodes are ``(module, qualname)`` pairs of summarized functions; edges are
the call sites each function makes, resolved through the
:class:`~repro.lint.symbols.SymbolTable` (so aliased imports and package
re-exports become real edges instead of dead ends).  The graph is built
once per deep run from the summary set and answers the reachability
questions the FLOW pack asks — most importantly FLOW001's "does this task
function transitively reach an unseeded RNG creation site?".

Unresolvable calls (stdlib, third-party, dynamic dispatch) simply produce
no edge: the graph under-approximates the true call relation, which for
"find a path to a bad site" queries is the conservative, low-noise side.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from .symbols import FunctionSummary, SymbolTable

#: One graph node: (defining module, function qualname).
Node = Tuple[str, str]


class CallGraph:
    """Resolved call edges plus bounded path queries."""

    #: Paths longer than this are abandoned (defensive recursion bound).
    MAX_DEPTH = 24

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.edges: Dict[Node, List[Node]] = {}
        for module, summary in table.summaries.items():
            for qualname, fn in summary.functions.items():
                node = (module, qualname)
                targets: List[Node] = []
                seen: Set[Node] = set()
                for call in fn.calls:
                    resolved = table.resolve(module, call.name)
                    if resolved is None or resolved in seen:
                        continue
                    seen.add(resolved)
                    targets.append(resolved)
                self.edges[node] = targets

    def function(self, node: Node) -> Optional[FunctionSummary]:
        return self.table.function(*node)

    def successors(self, node: Node) -> List[Node]:
        return self.edges.get(node, [])

    def find_path(self, start: Node,
                  predicate: Callable[[Node, FunctionSummary], bool]
                  ) -> Optional[List[Node]]:
        """Call chain from ``start`` to the first node satisfying
        ``predicate``, or ``None``.

        Depth-first with a visited set; chains are capped at
        :attr:`MAX_DEPTH` hops, deep enough for any real chain in this
        repo and shallow enough that pathological graphs stay cheap.
        """
        stack: List[Tuple[Node, List[Node]]] = [(start, [start])]
        visited: Set[Node] = set()
        while stack:
            node, chain = stack.pop()
            if node in visited or len(chain) > self.MAX_DEPTH:
                continue
            visited.add(node)
            fn = self.function(node)
            if fn is None:
                continue
            if predicate(node, fn):
                return chain
            for succ in self.successors(node):
                if succ not in visited:
                    stack.append((succ, chain + [succ]))
        return None


def display_chain(chain: List[Node]) -> str:
    """``mod.fn -> mod.fn`` rendering with short module basenames."""
    return " -> ".join(f"{module.split('.')[-1]}.{symbol}"
                       for module, symbol in chain)

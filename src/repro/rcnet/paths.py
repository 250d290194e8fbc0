"""Wire-path extraction.

Definition 1 of the paper: a *wire path* runs from the net source to one
target sink, so a net with ``k`` sinks has exactly ``k`` wire paths.  On a
tree the path is unique; on a non-tree net the paper defines the wire path
as the *shortest* path from source to sink (Section II-B), with remaining
nodes/edges regarded as branches.  We use resistance as the edge length for
the shortest-path computation, which matches the electrical notion of the
dominant signal route.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import RCNet, RCNetError
from ..robustness.errors import InputError


@dataclass(frozen=True)
class WirePath:
    """One source-to-sink route through an RC net.

    Attributes
    ----------
    net_name:
        Name of the owning net.
    sink:
        Target sink node index.
    nodes:
        Node indices visited, source first, sink last.
    edges:
        Edge indices traversed, aligned with consecutive node pairs
        (``len(edges) == len(nodes) - 1``).
    resistance:
        Total resistance along the path in ohms.
    """

    net_name: str
    sink: int
    nodes: Tuple[int, ...]
    edges: Tuple[int, ...]
    resistance: float

    @property
    def num_stages(self) -> int:
        """Number of RC stages: one per traversed edge (Section II-B)."""
        return len(self.edges)

    def __len__(self) -> int:
        return len(self.nodes)


#: ``(distance, parent_node, parent_edge)``, each indexed by node.
ShortestPathTree = Tuple[Tuple[float, ...], Tuple[int, ...],
                         Tuple[Optional[int], ...]]


def shortest_path_tree(net: RCNet, weight: str = "resistance"
                       ) -> ShortestPathTree:
    """Single-source Dijkstra over the net from its source node.

    Returns ``(distance, parent_node, parent_edge)`` tuples indexed by node.
    ``weight`` selects the edge length: ``"resistance"`` (default) or
    ``"hops"`` for unweighted BFS-style distances.  The resistance tree,
    which ceff, node features, downstream caps and wire paths all read,
    is computed once per net and memoized on it; a net never changes, and
    :meth:`RCNet.scaled` and the ECO edits build new ones.
    """
    if weight not in ("resistance", "hops"):
        raise InputError(f"unknown weight {weight!r}",
                         net=net.name, stage="paths")
    if weight == "hops":
        return _dijkstra(net, hops=True)
    if net._shortest_paths is None:
        net._shortest_paths = _dijkstra(net, hops=False)
    return net._shortest_paths


def _dijkstra(net: RCNet, hops: bool) -> ShortestPathTree:
    n = net.num_nodes
    dist = [float("inf")] * n
    parent: List[int] = [-1] * n
    parent_edge: List[Optional[int]] = [None] * n
    dist[net.source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, net.source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbor, edge_index in net.adjacency[node]:
            step = 1.0 if hops else net.edges[edge_index].resistance
            nd = d + step
            if nd < dist[neighbor]:
                dist[neighbor] = nd
                parent[neighbor] = node
                parent_edge[neighbor] = edge_index
                heapq.heappush(heap, (nd, neighbor))
    return tuple(dist), tuple(parent), tuple(parent_edge)


def extract_wire_paths(net: RCNet) -> List[WirePath]:
    """Return the wire path of every sink of ``net``.

    For a tree net each path is the unique route; for a non-tree net it is
    the minimum-resistance route, as defined in Section II-B of the paper.
    """
    dist, parent, parent_edge = shortest_path_tree(net)
    paths: List[WirePath] = []
    for sink in net.sinks:
        if dist[sink] == float("inf"):
            raise RCNetError(f"net {net.name!r}: sink {sink} unreachable")
        node_seq: List[int] = []
        edge_seq: List[int] = []
        node = sink
        while node != net.source:
            node_seq.append(node)
            edge = parent_edge[node]
            assert edge is not None
            edge_seq.append(edge)
            node = parent[node]
        node_seq.append(net.source)
        node_seq.reverse()
        edge_seq.reverse()
        paths.append(WirePath(
            net_name=net.name,
            sink=sink,
            nodes=tuple(node_seq),
            edges=tuple(edge_seq),
            resistance=dist[sink],
        ))
    return paths


def branch_nodes(net: RCNet, path: WirePath) -> List[int]:
    """Nodes of ``net`` that are *not* on ``path`` (the path's branches)."""
    on_path = set(path.nodes)
    return [node.index for node in net.nodes if node.index not in on_path]


def count_wire_paths(net: RCNet) -> int:
    """Number of wire paths of a net — one per sink (Definition 1)."""
    return net.num_sinks

"""Elmore delay analysis.

Two flavours are provided:

* :func:`elmore_delays` — the exact first-moment computation valid on *any*
  net (tree or non-tree): the Elmore delay to node ``k`` equals
  ``sum_j R_kj * C_j`` with ``R_kj`` the transfer resistance, obtained by one
  linear solve against the reduced conductance matrix.
* :func:`downstream_caps` and :func:`stage_delays` — the path-oriented
  quantities of Table I ("downstream cap" and "stage delay"), computed on
  the shortest-path spanning tree so they are well-defined on non-tree nets
  exactly as the paper's feature extraction requires.

``sink_loads`` arguments are ``(num_sinks,)`` farads, aligned with
``net.sinks``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..rcnet.graph import RCNet
from ..rcnet.paths import WirePath, shortest_path_tree
from .mna import capacitance_vector, reduce_source

__all__ = ["elmore_delays", "elmore_delay_to_sink", "downstream_caps",
           "stage_delays", "path_elmore_delay"]


def elmore_delays(net: RCNet, miller_factor: Optional[float] = None,
                  sink_loads: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact Elmore delay (first moment) from the source to every node.

    Solves ``G_red x = C_red`` once; ``x[k]`` is the Elmore delay of node
    ``k`` in seconds.  The returned vector is indexed by *original* node
    index, with 0 at the source.
    """
    system = reduce_source(net, miller_factor, sink_loads)
    x = np.linalg.solve(system.g, system.caps)
    delays = np.zeros(net.num_nodes, dtype=np.float64)
    delays[system.nodes] = x
    return delays


def elmore_delay_to_sink(net: RCNet, sink: int,
                         miller_factor: Optional[float] = None,
                         sink_loads: Optional[np.ndarray] = None) -> float:
    """Elmore delay from the source to one sink, in seconds."""
    return float(elmore_delays(net, miller_factor, sink_loads)[sink])


def downstream_caps(net: RCNet,
                    sink_loads: Optional[np.ndarray] = None) -> np.ndarray:
    """Downstream capacitance of each node, in farads.

    Defined (as in the paper's Table I) as the total capacitance reachable
    *through* a node when walking away from the source.  On a tree this is
    the classic subtree capacitance; on a non-tree net we use the
    minimum-resistance spanning tree rooted at the source — consistent with
    the paper's shortest-path definition of wire paths.
    """
    _, parent, _ = shortest_path_tree(net)
    caps = capacitance_vector(net, miller_factor=None, sink_loads=sink_loads)
    downstream = caps.copy()
    # Accumulate child capacitance into parents in reverse-BFS order.
    order = _topological_from_parents(net, parent)
    for node in reversed(order):
        p = parent[node]
        if p >= 0:
            downstream[p] += downstream[node]
    return downstream


def stage_delays(net: RCNet, path: WirePath,
                 sink_loads: Optional[np.ndarray] = None,
                 downstream: Optional[np.ndarray] = None) -> np.ndarray:
    """Elmore stage delay of each stage (edge) along ``path``, in seconds.

    A stage is an edge plus its downstream node (Section II-B); its delay is
    the edge resistance times the capacitance downstream of the edge's far
    node.  Summing stage delays over a tree path recovers the path Elmore
    delay when the path is the whole route to the capacitances it shields.

    ``downstream`` optionally supplies a precomputed
    :func:`downstream_caps` vector — callers iterating many paths of one
    net (feature extraction) hoist the spanning-tree walk out of the loop.
    """
    if downstream is None:
        downstream = downstream_caps(net, sink_loads)
    delays = np.empty(len(path.edges), dtype=np.float64)
    for i, (edge_index, node) in enumerate(zip(path.edges, path.nodes[1:])):
        delays[i] = net.edges[edge_index].resistance * downstream[node]
    return delays


def path_elmore_delay(net: RCNet, path: WirePath,
                      sink_loads: Optional[np.ndarray] = None) -> float:
    """Sum of stage delays along a path — the "Elmore delay" path feature."""
    return float(stage_delays(net, path, sink_loads).sum())


def _topological_from_parents(net: RCNet, parent: Sequence[int]) -> List[int]:
    """Order nodes so every node appears after its spanning-tree parent."""
    children: Dict[int, List[int]] = {i: [] for i in range(net.num_nodes)}
    for node in range(net.num_nodes):
        p = parent[node]
        if p >= 0:
            children[p].append(node)
    order: List[int] = []
    stack = [net.source]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    return order

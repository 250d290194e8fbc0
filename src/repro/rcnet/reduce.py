"""RC network reduction (TICER-style node elimination).

Extracted SPEF nets carry many electrically redundant internal nodes;
timers reduce them before analysis.  This module implements the classic
first-moment-preserving elimination of internal nodes:

* eliminating node ``m`` replaces its star of resistances by the
  equivalent mesh — for every neighbor pair (a, b):
  ``G_ab += G_am * G_mb / G_m``  with ``G_m = sum of m's conductances``
  (exact Y-Δ / Kron reduction of the conductance matrix);
* node ``m``'s capacitance is redistributed onto its neighbors in
  proportion to their conductance to ``m`` — the TICER rule, which
  preserves the network's total capacitance and every node's first moment
  (Elmore delay) exactly for the eliminated-node star.

Sources, sinks and coupling-cap victims are never eliminated.  Reduction
order targets lowest-degree nodes first, which keeps fill-in small on
tree-like nets (degree-1 and degree-2 chains collapse without any
fill-in at all).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from .builder import RCNetBuilder
from .graph import RCNet


def reduce_net(net: RCNet, max_degree: int = 3,
               keep: Optional[Set[int]] = None) -> RCNet:
    """Eliminate internal nodes of degree <= ``max_degree``.

    Parameters
    ----------
    net:
        The net to reduce.
    max_degree:
        Only nodes with at most this many neighbors are eliminated
        (higher degrees cause quadratic fill-in; 2-3 is the sweet spot).
    keep:
        Extra node indices to protect (besides source, sinks and coupling
        victims).

    Returns
    -------
    RCNet
        A new net over the surviving nodes.  Total capacitance is
        preserved exactly; Elmore delays of surviving nodes are preserved
        exactly (Kron reduction is exact for the conductance matrix, and
        the TICER capacitance split preserves first moments).
    """
    protected = {net.source, *net.sinks}
    protected.update(c.victim for c in net.couplings)
    if keep:
        protected.update(keep)

    # Working state: conductance maps and capacitances, by original index.
    conductance: Dict[int, Dict[int, float]] = {
        i: {} for i in range(net.num_nodes)}
    for edge in net.edges:
        g = 1.0 / edge.resistance
        conductance[edge.u][edge.v] = conductance[edge.u].get(edge.v, 0.0) + g
        conductance[edge.v][edge.u] = conductance[edge.v].get(edge.u, 0.0) + g
    caps = {i: net.nodes[i].cap for i in range(net.num_nodes)}
    alive = set(range(net.num_nodes))

    heap: List[Tuple[int, int]] = [
        (len(conductance[i]), i) for i in alive if i not in protected]
    heapq.heapify(heap)
    while heap:
        degree, node = heapq.heappop(heap)
        if node not in alive or len(conductance[node]) != degree:
            continue  # stale entry
        if degree > max_degree:
            continue
        neighbors = list(conductance[node].items())
        total_g = sum(g for _, g in neighbors)
        if total_g <= 0.0:
            continue
        # Kron reduction: mesh between neighbor pairs.
        for i, (a, g_am) in enumerate(neighbors):
            for b, g_bm in neighbors[i + 1:]:
                g_new = g_am * g_bm / total_g
                conductance[a][b] = conductance[a].get(b, 0.0) + g_new
                conductance[b][a] = conductance[b].get(a, 0.0) + g_new
        # TICER capacitance split.
        for a, g_am in neighbors:
            caps[a] += caps[node] * g_am / total_g
        # Remove the node.
        for a, _ in neighbors:
            del conductance[a][node]
        del conductance[node]
        del caps[node]
        alive.discard(node)
        for a, _ in neighbors:
            if a not in protected:
                heapq.heappush(heap, (len(conductance[a]), a))

    return _rebuild(net, alive, conductance, caps)


def _rebuild(net: RCNet, alive: Set[int],
             conductance: Dict[int, Dict[int, float]],
             caps: Dict[int, float]) -> RCNet:
    builder = RCNetBuilder(net.name)
    ordered = sorted(alive)
    for index in ordered:
        builder.add_node(net.nodes[index].name, cap=caps[index])
    emitted = set()
    for u in ordered:
        for v, g in conductance[u].items():
            key = (min(u, v), max(u, v))
            if key in emitted or g <= 0.0:
                continue
            emitted.add(key)
            builder.add_edge(net.nodes[u].name, net.nodes[v].name, 1.0 / g)
    builder.set_source(net.nodes[net.source].name)
    for sink in net.sinks:
        builder.add_sink(net.nodes[sink].name)
    for coupling in net.couplings:
        builder.add_coupling(net.nodes[coupling.victim].name,
                             coupling.aggressor_name, coupling.cap,
                             coupling.activity)
    return builder.build()


def reduction_stats(original: RCNet, reduced: RCNet) -> Dict[str, float]:
    """Summary of a reduction: node/edge ratios and cap conservation."""
    return {
        "nodes_before": original.num_nodes,
        "nodes_after": reduced.num_nodes,
        "edges_before": original.num_edges,
        "edges_after": reduced.num_edges,
        "node_ratio": reduced.num_nodes / original.num_nodes,
        "cap_error": abs(reduced.total_cap - original.total_cap)
        / max(original.total_cap, 1e-30),
    }

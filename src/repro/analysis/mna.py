"""Modified nodal analysis (MNA) matrix assembly for RC nets.

Everything downstream — Elmore delays, higher-order moments and the golden
transient simulator — consumes the matrices built here:

* ``G``: the conductance (Laplacian) matrix over net nodes;
* ``C``: the diagonal capacitance matrix (optionally including coupling
  capacitance mapped to ground, with a Miller factor for SI analysis);
* reduced versions with the source node eliminated, used when the source is
  driven by an ideal voltage (wire-only delay) or a Thevenin driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from ..obs import get_metrics
from ..rcnet.graph import RCNet
from ..robustness.errors import InputError, NumericalError
from ..robustness.guards import MAX_CONDITION, check_conditioning

__all__ = ["conductance_matrix", "capacitance_vector", "ReducedSystem",
           "reduce_source", "transfer_resistance_matrix"]

# Always-on health counters; MNA assembly sits under every analysis engine,
# so these stay counter-cheap (see repro.obs.metrics).
_ASSEMBLIES = get_metrics().counter("mna.assemblies")
_REDUCTIONS = get_metrics().counter("mna.reductions")
_INVERSIONS = get_metrics().counter("mna.inversions")
_SOLVE_SIZE = get_metrics().histogram("mna.solve_size")


def conductance_matrix(net: RCNet) -> np.ndarray:
    """Full ``n x n`` Laplacian of edge conductances.

    Symmetric positive semi-definite with zero row sums; singular until a
    reference (the driven source) is eliminated.  Raises
    :class:`~repro.robustness.errors.InputError` on corrupt (non-finite or
    non-positive) resistance values, which would otherwise poison every
    downstream engine silently.
    """
    _ASSEMBLIES.inc()
    n = net.num_nodes
    g = np.zeros((n, n), dtype=np.float64)
    for edge in net.edges:
        if not (math.isfinite(edge.resistance) and edge.resistance > 0.0):
            raise InputError(
                f"edge ({edge.u}, {edge.v}) has invalid resistance "
                f"{edge.resistance!r}", net=net.name, stage="mna-assembly")
        conductance = 1.0 / edge.resistance
        g[edge.u, edge.u] += conductance
        g[edge.v, edge.v] += conductance
        g[edge.u, edge.v] -= conductance
        g[edge.v, edge.u] -= conductance
    return g


def capacitance_vector(net: RCNet, miller_factor: Optional[float] = None,
                       sink_loads: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-node total capacitance to ground: ``(n,)`` farads.

    Parameters
    ----------
    net:
        The RC net.
    miller_factor:
        When ``None``, coupling caps are grounded quietly (factor 1).  When
        given, each coupling cap is scaled by ``1 + miller_factor * activity``
        — the standard Miller approximation of a switching aggressor used by
        sign-off SI analysis.
    sink_loads:
        Optional ``(num_sinks,)`` extra load capacitance per sink (e.g.
        receiver pin caps), aligned with ``net.sinks``.

    The quiet vector (``miller_factor=None``, no sink loads) is built once
    per net and memoized on it; each call adds its sink loads to a copy.
    """
    if miller_factor is None:
        caps = _quiet_caps(net).copy()
    else:
        caps = net.cap_vector()
        for coupling in net.couplings:
            caps[coupling.victim] += coupling.cap * (
                1.0 + miller_factor * coupling.activity)
    if sink_loads is not None:
        sink_loads = np.asarray(sink_loads, dtype=np.float64)
        if sink_loads.shape != (net.num_sinks,):
            raise InputError(
                f"sink_loads must have shape ({net.num_sinks},), "
                f"got {sink_loads.shape}",
                net=net.name, stage="mna-assembly")
        for sink, load in zip(net.sinks, sink_loads):
            caps[sink] += load
    if not np.all(np.isfinite(caps)):
        raise InputError("net has non-finite capacitance", net=net.name,
                         stage="mna-assembly")
    return caps


def _quiet_caps(net: RCNet) -> np.ndarray:
    """Grounded plus quietly grounded coupling capacitance per node,
    memoized read-only on ``net``: a net never changes, and
    :meth:`RCNet.scaled` and the ECO edits build new ones."""
    if net._quiet_caps is None:
        caps = net.cap_vector()
        for coupling in net.couplings:
            caps[coupling.victim] += coupling.cap
        caps.flags.writeable = False
        net._quiet_caps = caps
    return net._quiet_caps


@dataclass
class ReducedSystem:
    """MNA system with the source node eliminated (held at the input voltage).

    The state equation is ``C dv/dt = -G v + g_src * u(t)`` where ``v`` holds
    the non-source node voltages, ``u`` is the source-node voltage and
    ``g_src[i]`` is the direct conductance from node ``i`` to the source.

    Attributes
    ----------
    g:
        Reduced conductance matrix (symmetric positive definite).
    caps:
        Per-node capacitance vector (diagonal of the C matrix).
    source_conductance:
        Coupling vector from the source voltage into each retained node.
    index_map:
        ``index_map[original_node] = reduced_index`` (source maps to -1).
    nodes:
        Original indices of the retained nodes, in reduced order.
    """

    g: np.ndarray
    caps: np.ndarray
    source_conductance: np.ndarray
    index_map: np.ndarray
    nodes: np.ndarray

    def reduced_index(self, node: int) -> int:
        """Reduced index of an original node (raises for the source)."""
        idx = int(self.index_map[node])
        if idx < 0:
            raise ValueError(f"node {node} is the eliminated source")
        return idx


def reduce_source(net: RCNet, miller_factor: Optional[float] = None,
                  sink_loads: Optional[np.ndarray] = None) -> ReducedSystem:
    """Eliminate the source node from the full MNA system.

    With the source voltage treated as a known input, the remaining system
    is non-singular; its inverse's entries are the transfer resistances used
    by Elmore/moment analysis.
    """
    n = net.num_nodes
    if n < 2:
        raise InputError("cannot reduce a single-node net", net=net.name,
                         stage="mna-reduce")
    _REDUCTIONS.inc()
    full_g = conductance_matrix(net)
    caps = capacitance_vector(net, miller_factor, sink_loads)
    keep = np.array([i for i in range(n) if i != net.source], dtype=np.intp)
    index_map = np.full(n, -1, dtype=np.intp)
    index_map[keep] = np.arange(n - 1)
    g = full_g[np.ix_(keep, keep)]
    source_conductance = -full_g[keep, net.source]
    return ReducedSystem(
        g=g,
        caps=caps[keep],
        source_conductance=source_conductance,
        index_map=index_map,
        nodes=keep,
    )


def transfer_resistance_matrix(system: ReducedSystem,
                               max_condition: float = MAX_CONDITION
                               ) -> np.ndarray:
    """Dense ``(m, m)`` inverse of the reduced conductance matrix.

    Entry ``(i, j)`` is the voltage at node ``i`` per unit current injected
    at node ``j`` with the source grounded — the *transfer resistance* that
    generalizes "shared path resistance" to non-tree nets.

    The reduced matrix is symmetric positive definite on healthy nets; a
    condition number beyond ``max_condition`` means the inverse carries no
    usable precision and raises a typed
    :class:`~repro.robustness.errors.NumericalError` instead of returning
    garbage.
    """
    _INVERSIONS.inc()
    _SOLVE_SIZE.observe(system.g.shape[0])
    check_conditioning(system.g, what="reduced conductance matrix",
                       stage="mna-solve", limit=max_condition)
    try:
        return np.linalg.inv(system.g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced conductance matrix is singular: {exc}",
                             stage="mna-solve", cause=exc) from exc

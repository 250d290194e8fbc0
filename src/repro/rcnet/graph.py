"""Core RC-network data structure.

An RC net is the parasitic model of one routed wire: grounded capacitances at
electrical nodes, resistances between nodes, a single driver (*source*) and
one or more receivers (*sinks*).  Following Section II-B of the paper, the
net is viewed as a graph ``G = (V, E, P)`` whose nodes are capacitances,
whose edges are resistances, and whose wire paths ``P`` connect the source to
each sink.

Units are SI throughout the library: ohms, farads, seconds.  Helper
constants :data:`OHM`, :data:`KOHM`, :data:`FF`, :data:`PF`, :data:`PS` and
:data:`NS` make literals readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# Readable unit constants (SI multipliers).
OHM = 1.0
KOHM = 1e3
FF = 1e-15
PF = 1e-12
PS = 1e-12
NS = 1e-9


class RCNetError(ValueError):
    """Raised when an RC net is structurally invalid."""


@dataclass(frozen=True)
class RCNode:
    """One electrical node of the net: a grounded parasitic capacitance.

    Attributes
    ----------
    index:
        Position in the net's node list; stable identifier used everywhere.
    name:
        Human-readable name (SPEF-style, e.g. ``"net42:3"``).
    cap:
        Grounded capacitance in farads.  May be zero for pure junction
        nodes, never negative.
    """

    index: int
    name: str
    cap: float

    def __post_init__(self) -> None:
        if self.cap < 0.0:
            raise RCNetError(f"node {self.name!r} has negative capacitance {self.cap}")


@dataclass(frozen=True)
class RCEdge:
    """A resistance connecting two nodes of the net."""

    u: int
    v: int
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0.0:
            raise RCNetError(
                f"edge ({self.u}, {self.v}) has non-positive resistance {self.resistance}")
        if self.u == self.v:
            raise RCNetError(f"self-loop resistance at node {self.u}")

    def other(self, node: int) -> int:
        """Return the endpoint that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of edge ({self.u}, {self.v})")


@dataclass(frozen=True)
class CouplingCap:
    """A coupling capacitance from one node to an aggressor net.

    Sign-off SI analysis injects aggressor switching noise through these.
    ``victim`` indexes a node of this net; the aggressor side is abstracted
    to a name plus an activity factor in [0, 1] describing how often the
    aggressor switches against the victim.
    """

    victim: int
    aggressor_name: str
    cap: float
    activity: float = 0.5

    def __post_init__(self) -> None:
        if self.cap < 0.0:
            raise RCNetError(f"coupling cap at node {self.victim} is negative")
        if not 0.0 <= self.activity <= 1.0:
            raise RCNetError(f"activity must be in [0, 1], got {self.activity}")


class RCNet:
    """An immutable parasitic RC network with one source and N sinks.

    Use :class:`repro.rcnet.builder.RCNetBuilder` (or the topology
    generators) rather than constructing directly, unless the inputs are
    already validated.

    Parameters
    ----------
    name:
        Net name.
    nodes, edges:
        Node and edge lists; node indices must be ``0..len(nodes)-1`` in
        order.
    source:
        Index of the driver node.
    sinks:
        Indices of receiver nodes (at least one, none equal to the source).
    couplings:
        Optional coupling capacitances for SI analysis.
    """

    def __init__(self, name: str, nodes: Sequence[RCNode], edges: Sequence[RCEdge],
                 source: int, sinks: Sequence[int],
                 couplings: Sequence[CouplingCap] = ()) -> None:
        self.name = name
        self.nodes: Tuple[RCNode, ...] = tuple(nodes)
        self.edges: Tuple[RCEdge, ...] = tuple(edges)
        self.source = int(source)
        self.sinks: Tuple[int, ...] = tuple(int(s) for s in sinks)
        self.couplings: Tuple[CouplingCap, ...] = tuple(couplings)
        self._validate()
        self._adjacency: Optional[List[List[Tuple[int, int]]]] = None
        # Memo of repro.rcnet.paths.shortest_path_tree's resistance tree.
        self._shortest_paths: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = len(self.nodes)
        if n == 0:
            raise RCNetError(f"net {self.name!r} has no nodes")
        for i, node in enumerate(self.nodes):
            if node.index != i:
                raise RCNetError(
                    f"net {self.name!r}: node at position {i} has index {node.index}")
        for edge in self.edges:
            if not (0 <= edge.u < n and 0 <= edge.v < n):
                raise RCNetError(
                    f"net {self.name!r}: edge ({edge.u}, {edge.v}) out of range")
        if not 0 <= self.source < n:
            raise RCNetError(f"net {self.name!r}: source {self.source} out of range")
        if not self.sinks:
            raise RCNetError(f"net {self.name!r} has no sinks")
        for sink in self.sinks:
            if not 0 <= sink < n:
                raise RCNetError(f"net {self.name!r}: sink {sink} out of range")
            if sink == self.source:
                raise RCNetError(f"net {self.name!r}: sink equals source")
        if len(set(self.sinks)) != len(self.sinks):
            raise RCNetError(f"net {self.name!r} has duplicate sinks")
        for coupling in self.couplings:
            if not 0 <= coupling.victim < n:
                raise RCNetError(
                    f"net {self.name!r}: coupling victim {coupling.victim} out of range")
        self._check_connected()

    def _check_connected(self) -> None:
        n = len(self.nodes)
        if n == 1:
            if self.edges:
                return
            raise RCNetError(f"net {self.name!r}: single node net cannot have sinks")
        seen = [False] * n
        stack = [self.source]
        seen[self.source] = True
        adjacency = self._build_adjacency()
        while stack:
            node = stack.pop()
            for neighbor, _ in adjacency[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    stack.append(neighbor)
        unreachable = [i for i, s in enumerate(seen) if not s]
        if unreachable:
            raise RCNetError(
                f"net {self.name!r}: nodes {unreachable} unreachable from source")

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> List[List[Tuple[int, int]]]:
        adjacency: List[List[Tuple[int, int]]] = [[] for _ in self.nodes]
        for edge_index, edge in enumerate(self.edges):
            adjacency[edge.u].append((edge.v, edge_index))
            adjacency[edge.v].append((edge.u, edge_index))
        return adjacency

    @property
    def adjacency(self) -> List[List[Tuple[int, int]]]:
        """``adjacency[i]`` is a list of ``(neighbor, edge_index)`` pairs."""
        if self._adjacency is None:
            self._adjacency = self._build_adjacency()
        return self._adjacency

    def neighbors(self, node: int) -> List[int]:
        """Indices of the nodes directly connected to ``node``."""
        return [v for v, _ in self.adjacency[node]]

    def degree(self, node: int) -> int:
        """Number of resistances incident to ``node``."""
        return len(self.adjacency[node])

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_sinks(self) -> int:
        return len(self.sinks)

    def is_tree(self) -> bool:
        """True when the net has no resistive loops.

        A connected graph is a tree iff ``|E| = |V| - 1``; connectivity is
        guaranteed by construction.
        """
        return self.num_edges == self.num_nodes - 1

    @property
    def total_cap(self) -> float:
        """Sum of all grounded capacitances (farads)."""
        return sum(node.cap for node in self.nodes)

    @property
    def total_coupling_cap(self) -> float:
        """Sum of all coupling capacitances (farads)."""
        return sum(c.cap for c in self.couplings)

    @property
    def total_resistance(self) -> float:
        """Sum of all segment resistances (ohms)."""
        return sum(edge.resistance for edge in self.edges)

    def cap_vector(self) -> np.ndarray:
        """Grounded capacitance of each node as a vector, in farads."""
        return np.array([node.cap for node in self.nodes], dtype=np.float64)

    def coupling_cap_vector(self) -> np.ndarray:
        """Total coupling capacitance attached to each node, in farads."""
        caps = np.zeros(self.num_nodes, dtype=np.float64)
        for coupling in self.couplings:
            caps[coupling.victim] += coupling.cap
        return caps

    def weighted_adjacency(self) -> np.ndarray:
        """Dense symmetric matrix of resistance values (Section III-B).

        ``A[i, j]`` is the resistance between nodes i and j (0 when not
        directly connected).  Parallel resistors are combined.
        """
        matrix = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        for edge in self.edges:
            if matrix[edge.u, edge.v] > 0.0:
                # Parallel combination.
                existing = matrix[edge.u, edge.v]
                combined = existing * edge.resistance / (existing + edge.resistance)
                matrix[edge.u, edge.v] = matrix[edge.v, edge.u] = combined
            else:
                matrix[edge.u, edge.v] = matrix[edge.v, edge.u] = edge.resistance
        return matrix

    def scaled(self, r_factor: float = 1.0, c_factor: float = 1.0,
               name: Optional[str] = None) -> "RCNet":
        """A copy with every resistance and capacitance scaled uniformly.

        The standard ECO primitive for layer re-assignment and width
        changes: ``r_factor`` multiplies each segment resistance,
        ``c_factor`` each grounded and coupling capacitance.  Topology,
        source, sinks and node names are unchanged, so the scaled net
        drops into the same :class:`~repro.design.netlist.DesignNet` slot.
        Both factors must be positive (``RCEdge`` forbids non-positive
        resistance and negative caps are rejected by :class:`RCNode`).
        """
        if r_factor <= 0.0 or c_factor <= 0.0:
            raise RCNetError(
                f"net {self.name!r}: scale factors must be positive, got "
                f"r_factor={r_factor}, c_factor={c_factor}")
        nodes = [RCNode(n.index, n.name, n.cap * c_factor) for n in self.nodes]
        edges = [RCEdge(e.u, e.v, e.resistance * r_factor) for e in self.edges]
        couplings = [CouplingCap(c.victim, c.aggressor_name,
                                 c.cap * c_factor, c.activity)
                     for c in self.couplings]
        return RCNet(name or self.name, nodes, edges, self.source,
                     self.sinks, couplings)

    def to_networkx(self):
        """Export to a ``networkx.Graph`` (node attr ``cap``, edge attr ``resistance``)."""
        import networkx as nx

        graph = nx.Graph(name=self.name)
        for node in self.nodes:
            graph.add_node(node.index, cap=node.cap, name=node.name)
        for edge in self.edges:
            graph.add_edge(edge.u, edge.v, resistance=edge.resistance)
        return graph

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        kind = "tree" if self.is_tree() else "non-tree"
        return (f"RCNet({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}, "
                f"sinks={self.num_sinks}, {kind})")

    def __iter__(self) -> Iterator[RCNode]:
        return iter(self.nodes)

"""Incremental construction of :class:`~repro.rcnet.graph.RCNet` objects.

The builder keeps a mutable staging area (named nodes, edges, couplings) and
produces an immutable, validated net on :meth:`RCNetBuilder.build`.  It is
the programmatic counterpart of parsing a ``*D_NET`` block out of a SPEF
file, and the SPEF parser is implemented on top of it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .graph import CouplingCap, RCEdge, RCNet, RCNetError, RCNode


class RCNetBuilder:
    """Builds an :class:`RCNet` one node/edge at a time.

    Example
    -------
    >>> builder = RCNetBuilder("n1")
    >>> builder.add_node("drv", cap=1e-15)
    0
    >>> builder.add_node("load", cap=2e-15)
    1
    >>> builder.add_edge("drv", "load", resistance=100.0)
    >>> builder.set_source("drv")
    >>> builder.add_sink("load")
    >>> net = builder.build()
    >>> net.num_nodes, net.num_edges
    (2, 1)
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._names: List[str] = []
        self._caps: List[float] = []
        self._index: Dict[str, int] = {}
        self._edges: List[RCEdge] = []
        self._couplings: List[CouplingCap] = []
        self._source: Optional[int] = None
        self._sinks: List[int] = []

    # ------------------------------------------------------------------
    def add_node(self, name: str, cap: float = 0.0) -> int:
        """Register a node; returns its index.  Re-adding a name is an error."""
        if name in self._index:
            raise RCNetError(f"net {self.name!r}: duplicate node name {name!r}")
        index = len(self._names)
        self._index[name] = index
        self._names.append(name)
        self._caps.append(float(cap))
        return index

    def get_or_add_node(self, name: str, cap: float = 0.0) -> int:
        """Return the index of ``name``, creating the node if needed.

        When the node already exists, ``cap`` is *added* to its capacitance —
        matching SPEF semantics where ``*CAP`` entries accumulate onto
        connection points introduced earlier by ``*CONN`` or ``*RES``.
        """
        if name in self._index:
            index = self._index[name]
            self._caps[index] += float(cap)
            return index
        return self.add_node(name, cap)

    def add_cap(self, name: str, cap: float) -> None:
        """Add grounded capacitance to an existing or new node."""
        self.get_or_add_node(name, cap)

    def add_edge(self, u_name: str, v_name: str, resistance: float) -> None:
        """Connect two nodes (created on demand) with a resistance."""
        u = self.get_or_add_node(u_name)
        v = self.get_or_add_node(v_name)
        self._edges.append(RCEdge(u, v, float(resistance)))

    def add_coupling(self, victim_name: str, aggressor_name: str, cap: float,
                     activity: float = 0.5) -> None:
        """Attach a coupling capacitance to ``victim_name``."""
        victim = self.get_or_add_node(victim_name)
        self._couplings.append(
            CouplingCap(victim, aggressor_name, float(cap), activity))

    def set_source(self, name: str) -> None:
        """Mark the driver node."""
        self._source = self.get_or_add_node(name)

    def add_sink(self, name: str) -> None:
        """Mark a receiver node."""
        self._sinks.append(self.get_or_add_node(name))

    # ------------------------------------------------------------------
    def node_index(self, name: str) -> int:
        """Index of an already-registered node."""
        try:
            return self._index[name]
        except KeyError:
            raise RCNetError(f"net {self.name!r}: unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------
    def build(self) -> RCNet:
        """Validate and freeze into an :class:`RCNet`."""
        if self._source is None:
            raise RCNetError(f"net {self.name!r}: no source set")
        nodes = [RCNode(i, name, cap)
                 for i, (name, cap) in enumerate(zip(self._names, self._caps))]
        return RCNet(self.name, nodes, self._edges, self._source, self._sinks,
                     self._couplings)

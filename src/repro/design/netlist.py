"""Gate-level netlist structure.

A design is a layered DAG of gates connected by *design nets*; each design
net owns an extracted :class:`~repro.rcnet.graph.RCNet` whose source is the
driving gate's output pin and whose sinks map one-to-one onto the load pins.
This is the object the benchmark generator produces and the STA engine
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..liberty.cell import Cell
from ..rcnet.builder import RCNetBuilder
from ..rcnet.graph import RCNet
from ..robustness.errors import InputError


@dataclass(frozen=True)
class Gate:
    """One instantiated cell."""

    name: str
    cell: Cell

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential


@dataclass(frozen=True)
class LoadPin:
    """A (gate, input pin) pair receiving a net."""

    gate: str
    pin: str


@dataclass
class DesignNet:
    """A routed net: driver gate output to one or more load pins.

    ``rcnet.sinks[i]`` is the RC node where ``loads[i]`` connects, so sink
    loads for timing analysis are the input capacitances of the load cells
    in the same order.
    """

    name: str
    driver: str
    loads: List[LoadPin]
    rcnet: RCNet

    def __post_init__(self) -> None:
        if len(self.loads) != self.rcnet.num_sinks:
            raise ValueError(
                f"net {self.name!r}: {len(self.loads)} loads but RC net has "
                f"{self.rcnet.num_sinks} sinks")

    @property
    def fanout(self) -> int:
        return len(self.loads)


@dataclass(frozen=True)
class PathStage:
    """One gate-plus-wire hop of a timing path.

    The signal enters ``gate`` at ``input_pin``, propagates through the gate,
    then travels along ``net`` to the sink indexed ``sink_index`` (which is
    the input pin of the next stage's gate).
    """

    gate: str
    input_pin: str
    net: str
    sink_index: int


@dataclass
class TimingPath:
    """A launch-to-capture timing path: an ordered list of stages."""

    name: str
    stages: List[PathStage]

    def __len__(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class NetEdit:
    """Typed record of one applied netlist mutation (an ECO edit).

    Returned by every :class:`Netlist` edit method so incremental timing
    engines know exactly what to invalidate and what to leave warm:

    ``dirty_nets``
        nets whose cached stage timings (gate delay + wire delay at a
        given input slew) are stale after this edit;
    ``rewritten_paths``
        indices into :attr:`Netlist.paths` whose stage lists were changed
        in place (pin reconnects, buffer insertions) — these must be
        re-timed even when no cache entry went stale;
    ``old_rcnet``
        the pre-edit parasitics when the edit replaced a net's RC network,
        so content-addressed solver caches can drop the now-dead entries.
    """

    kind: str
    target: str
    dirty_nets: Tuple[str, ...]
    rewritten_paths: Tuple[int, ...] = ()
    details: Dict[str, object] = field(default_factory=dict)
    old_rcnet: Optional[RCNet] = None

    def summary(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        body = f"{self.kind} {self.target}"
        return f"{body} ({extras})" if extras else body


class Netlist:
    """A complete synthetic design."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self.nets: Dict[str, DesignNet] = {}
        self.paths: List[TimingPath] = []
        # net driven by each gate (gate name -> net name)
        self._driven_net: Dict[str, str] = {}
        # reverse load index: gate name -> names of nets it loads.  Kept
        # in sync by add_net and every edit method, so invalidating a
        # gate's fanin is O(degree) instead of a scan over all nets.
        self._loading_nets: Dict[str, Set[str]] = {}

    # -- construction ----------------------------------------------------
    def add_gate(self, gate: Gate) -> None:
        if gate.name in self.gates:
            raise ValueError(f"duplicate gate {gate.name!r}")
        self.gates[gate.name] = gate

    def add_net(self, net: DesignNet) -> None:
        if net.name in self.nets:
            raise InputError(f"duplicate net {net.name!r}",
                             net=net.name, stage="netlist")
        if net.driver not in self.gates:
            raise InputError(f"net {net.name!r}: unknown driver "
                             f"{net.driver!r}", net=net.name, stage="netlist")
        for load in net.loads:
            if load.gate not in self.gates:
                raise InputError(f"net {net.name!r}: unknown load gate "
                                 f"{load.gate!r}", net=net.name,
                                 stage="netlist")
        if net.driver in self._driven_net:
            raise InputError(f"gate {net.driver!r} already drives a net",
                             net=net.name, stage="netlist")
        self.nets[net.name] = net
        self._driven_net[net.driver] = net.name
        for load in net.loads:
            self._loading_nets.setdefault(load.gate, set()).add(net.name)

    def add_path(self, path: TimingPath) -> None:
        for stage in path.stages:
            if stage.gate not in self.gates:
                raise ValueError(f"path {path.name!r}: unknown gate {stage.gate!r}")
            if stage.net not in self.nets:
                raise ValueError(f"path {path.name!r}: unknown net {stage.net!r}")
            net = self.nets[stage.net]
            if not 0 <= stage.sink_index < net.fanout:
                raise ValueError(
                    f"path {path.name!r}: sink index {stage.sink_index} out of "
                    f"range for net {stage.net!r}")
        self.paths.append(path)

    # -- queries -----------------------------------------------------------
    def net_driven_by(self, gate_name: str) -> Optional[DesignNet]:
        """The net this gate's output drives, if any."""
        net_name = self._driven_net.get(gate_name)
        return self.nets[net_name] if net_name is not None else None

    def nets_loaded_by(self, gate_name: str) -> List[str]:
        """Names of the nets this gate's input pins load (sorted).

        Served from the reverse load index, so the cost is O(degree)
        rather than a scan over every net's load list.
        """
        return sorted(self._loading_nets.get(gate_name, ()))

    def sink_loads(self, net: DesignNet) -> np.ndarray:
        """Receiver pin capacitances of a net, aligned with its sinks."""
        return np.array(
            [self.gates[load.gate].cell.input_cap for load in net.loads])

    # -- ECO edits ---------------------------------------------------------
    #
    # Each edit mutates the netlist *and its recorded paths* in place, so a
    # cold full STA pass on the edited netlist is always well defined, then
    # returns a NetEdit describing exactly what went stale.  Incremental
    # engines consume the record; everything not named in it stays warm.

    def resize_gate(self, gate_name: str, new_cell: Cell) -> NetEdit:
        """Swap the cell of ``gate_name`` (drive-strength / Vt change).

        Dirties the net the gate drives (output resistance changed) and
        every net it loads (input pin capacitance changed).  The new
        cell's timing arcs must cover the old cell's, so any path stage
        timing through this gate still resolves its arc (load pins
        without arcs — e.g. a flip-flop's capture ``D`` pin — are
        capacitance-only and need no arc).
        """
        gate = self._require_gate(gate_name)
        missing = sorted(set(gate.cell.arcs) - set(new_cell.arcs))
        if missing:
            raise InputError(
                f"resize {gate_name!r}: cell {new_cell.name!r} lacks timing "
                f"arcs {missing} of {gate.cell.name!r} "
                f"(arcs: {sorted(new_cell.arcs)})",
                design=self.name, stage="eco")
        old_cell = gate.cell
        self.gates[gate_name] = Gate(gate_name, new_cell)
        dirty = set(self.nets_loaded_by(gate_name))
        driven = self._driven_net.get(gate_name)
        if driven is not None:
            dirty.add(driven)
        return NetEdit(
            kind="resize_gate", target=gate_name,
            dirty_nets=tuple(sorted(dirty)),
            details={"old_cell": old_cell.name, "new_cell": new_cell.name})

    def reconnect_sink(self, net_name: str, sink_index: int,
                       new_pin: str) -> NetEdit:
        """Move a net's sink onto a different input pin of the same gate.

        The wire and its loads are electrically unchanged (pin caps are
        per cell, not per pin), so no cached stage timing goes stale —
        but the downstream stage now times through a different arc, so
        every path crossing this sink is rewritten and must be re-timed.
        """
        net = self._require_net(net_name)
        self._require_sink(net, sink_index)
        load = net.loads[sink_index]
        cell = self.gates[load.gate].cell
        if new_pin not in cell.arcs:
            raise InputError(
                f"reconnect {net_name!r} sink {sink_index}: gate "
                f"{load.gate!r} ({cell.name}) has no arc for pin "
                f"{new_pin!r}; arcs: {sorted(cell.arcs)}",
                net=net_name, design=self.name, stage="eco")
        old_pin = load.pin
        net.loads[sink_index] = LoadPin(load.gate, new_pin)
        rewritten = []
        for path_index, path in enumerate(self.paths):
            changed = False
            for j, stage in enumerate(path.stages):
                if (stage.net == net_name and stage.sink_index == sink_index
                        and j + 1 < len(path.stages)):
                    after = path.stages[j + 1]
                    path.stages[j + 1] = PathStage(
                        after.gate, new_pin, after.net, after.sink_index)
                    changed = True
            if changed:
                rewritten.append(path_index)
        return NetEdit(
            kind="reconnect_sink", target=net_name,
            dirty_nets=(), rewritten_paths=tuple(rewritten),
            details={"sink_index": sink_index, "old_pin": old_pin,
                     "new_pin": new_pin})

    def scale_net_rc(self, net_name: str, r_factor: float = 1.0,
                     c_factor: float = 1.0) -> NetEdit:
        """Uniformly scale one net's parasitics (layer / width ECO).

        Replaces the net's RC network with :meth:`RCNet.scaled`; the edit
        record carries the pre-edit network so content-addressed solver
        caches can drop the now-dead eigensolves.
        """
        net = self._require_net(net_name)
        old_rcnet = net.rcnet
        net.rcnet = old_rcnet.scaled(r_factor=r_factor, c_factor=c_factor)
        return NetEdit(
            kind="scale_net_rc", target=net_name, dirty_nets=(net_name,),
            details={"r_factor": r_factor, "c_factor": c_factor},
            old_rcnet=old_rcnet)

    def insert_buffer(self, net_name: str, sink_index: int, buffer_cell: Cell,
                      gate_name: Optional[str] = None,
                      new_net_name: Optional[str] = None,
                      rcnet: Optional[RCNet] = None) -> NetEdit:
        """Insert a buffer in front of one sink of ``net_name``.

        The sink's load pin is re-pointed at the new buffer gate, and a
        fresh single-sink net (``rcnet``, or a deterministic two-node stub
        wire) connects the buffer's output to the original load.  Every
        path crossing the buffered sink gains a stage for the buffer.
        The original net is dirtied: its sink load changed from the old
        receiver's input capacitance to the buffer's.
        """
        net = self._require_net(net_name)
        self._require_sink(net, sink_index)
        if not buffer_cell.arcs:
            raise InputError(
                f"buffer cell {buffer_cell.name!r} has no timing arcs",
                net=net_name, design=self.name, stage="eco")
        gname = gate_name if gate_name is not None \
            else f"eco_buf_{len(self.gates)}"
        nname = new_net_name if new_net_name is not None \
            else f"eco_net_{len(self.nets)}"
        if gname in self.gates:
            raise InputError(f"buffer gate name {gname!r} already in use",
                             net=net_name, design=self.name, stage="eco")
        if nname in self.nets:
            raise InputError(f"buffer net name {nname!r} already in use",
                             net=net_name, design=self.name, stage="eco")
        if rcnet is not None and rcnet.num_sinks != 1:
            raise InputError(
                f"buffer wire {rcnet.name!r} must have exactly one sink, "
                f"got {rcnet.num_sinks}",
                net=net_name, design=self.name, stage="eco")
        buffer_pin = "A" if "A" in buffer_cell.arcs \
            else next(iter(buffer_cell.arcs))
        old_load = net.loads[sink_index]
        if rcnet is None:
            builder = RCNetBuilder(nname)
            builder.add_node(f"{nname}:0", cap=0.2e-15)
            builder.add_node(f"{nname}:1", cap=0.2e-15)
            builder.add_edge(f"{nname}:0", f"{nname}:1", resistance=25.0)
            builder.set_source(f"{nname}:0")
            builder.add_sink(f"{nname}:1")
            rcnet = builder.build()

        self.add_gate(Gate(gname, buffer_cell))
        self.add_net(DesignNet(nname, driver=gname, loads=[old_load],
                               rcnet=rcnet))
        net.loads[sink_index] = LoadPin(gname, buffer_pin)
        self._loading_nets.setdefault(gname, set()).add(net_name)
        if not any(l.gate == old_load.gate for l in net.loads):
            self._loading_nets[old_load.gate].discard(net_name)

        rewritten = []
        for path_index, path in enumerate(self.paths):
            changed = False
            j = 0
            while j < len(path.stages):
                stage = path.stages[j]
                if stage.net == net_name and stage.sink_index == sink_index:
                    path.stages.insert(
                        j + 1, PathStage(gname, buffer_pin, nname, 0))
                    changed = True
                    j += 1  # skip the inserted buffer stage
                j += 1
            if changed:
                rewritten.append(path_index)
        return NetEdit(
            kind="insert_buffer", target=net_name,
            dirty_nets=(net_name,), rewritten_paths=tuple(rewritten),
            details={"sink_index": sink_index, "buffer_gate": gname,
                     "buffer_cell": buffer_cell.name, "new_net": nname})

    # -- edit-method validation helpers -----------------------------------
    def _require_gate(self, gate_name: str) -> Gate:
        gate = self.gates.get(gate_name)
        if gate is None:
            raise InputError(f"unknown gate {gate_name!r}",
                             design=self.name, stage="eco")
        return gate

    def _require_net(self, net_name: str) -> DesignNet:
        net = self.nets.get(net_name)
        if net is None:
            raise InputError(f"unknown net {net_name!r}",
                             net=net_name, design=self.name, stage="eco")
        return net

    def _require_sink(self, net: DesignNet, sink_index: int) -> None:
        if not 0 <= sink_index < net.fanout:
            raise InputError(
                f"net {net.name!r}: sink index {sink_index} out of range "
                f"(fanout {net.fanout})",
                net=net.name, design=self.name, stage="eco")

    @property
    def num_cells(self) -> int:
        return len(self.gates)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    @property
    def num_ffs(self) -> int:
        return sum(1 for g in self.gates.values() if g.is_sequential)

    @property
    def num_nontree_nets(self) -> int:
        return sum(1 for n in self.nets.values() if not n.rcnet.is_tree())

    def iter_rcnets(self) -> Iterator[Tuple[DesignNet, RCNet]]:
        for net in self.nets.values():
            yield net, net.rcnet

    def statistics(self) -> Dict[str, int]:
        """The Table II row for this design."""
        return {
            "cells": self.num_cells,
            "nets": self.num_nets,
            "nontree_nets": self.num_nontree_nets,
            "ffs": self.num_ffs,
            "paths": len(self.paths),
        }

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, cells={self.num_cells}, "
                f"nets={self.num_nets}, paths={len(self.paths)})")

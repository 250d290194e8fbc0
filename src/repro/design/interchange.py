"""Full-design interchange: Verilog + SPEF + Liberty round trips.

A routed design is completely described by the standard file trio —
structural Verilog (connectivity), SPEF (RC parasitics) and Liberty (cell
timing).  :func:`export_design` produces all three from a
:class:`~repro.design.netlist.Netlist`; :func:`import_design` rebuilds an
equivalent netlist from the files alone, proving that nothing in the
timing flow depends on in-memory state.

SPEF sink/driver nodes are renamed to ``instance:pin`` connection points
on export (exactly what real extractors emit), which is what lets the
importer re-associate each RC sink with the cell pin it drives.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..liberty.library import Library
from ..rcnet.builder import RCNetBuilder
from ..rcnet.graph import RCNet
from ..rcnet.spef import parse_spef, write_spef
from .netlist import DesignNet, Netlist
from .verilog import connectivity_from_module, parse_verilog, write_verilog


class InterchangeError(ValueError):
    """Raised when the file trio is inconsistent."""


def export_design(netlist: Netlist) -> Tuple[str, str]:
    """Serialize a netlist to ``(verilog_text, spef_text)``.

    RC boundary nodes are renamed to ``instance:pin`` form so the SPEF is
    self-describing; internal node names are preserved.
    """
    verilog = write_verilog(netlist)
    renamed_nets = [_with_connection_points(net) for net in
                    netlist.nets.values()]
    spef = write_spef(renamed_nets, design=netlist.name)
    return verilog, spef


def _with_connection_points(net: DesignNet) -> RCNet:
    """Copy the RC net with driver/sink nodes renamed to instance pins."""
    rc = net.rcnet
    rename: Dict[int, str] = {rc.source: f"{net.driver}:Z"}
    for sink, load in zip(rc.sinks, net.loads):
        rename[sink] = f"{load.gate}:{load.pin}"
    builder = RCNetBuilder(net.name)
    for node in rc.nodes:
        builder.add_node(rename.get(node.index, node.name), cap=node.cap)
    for edge in rc.edges:
        builder.add_edge(
            rename.get(edge.u, rc.nodes[edge.u].name),
            rename.get(edge.v, rc.nodes[edge.v].name),
            edge.resistance)
    builder.set_source(rename[rc.source])
    for sink in rc.sinks:
        builder.add_sink(rename[sink])
    for coupling in rc.couplings:
        builder.add_coupling(
            rename.get(coupling.victim, rc.nodes[coupling.victim].name),
            coupling.aggressor_name, coupling.cap, coupling.activity)
    return builder.build()


def import_design(verilog_text: str, spef_text: str,
                  library: Library) -> Netlist:
    """Rebuild a netlist from the exported Verilog + SPEF pair.

    Connectivity comes from the Verilog; each net's parasitics come from
    the SPEF ``*D_NET`` with the same name, with sinks matched to load
    pins through their ``instance:pin`` node names.  Timing paths are not
    part of either format and are left empty.
    """
    module = parse_verilog(verilog_text)
    gates, nets = connectivity_from_module(module, library)
    spef = parse_spef(spef_text)
    spef_by_name = {net.name: net for net in spef.nets}

    netlist = Netlist(module.name)
    for gate in gates.values():
        netlist.add_gate(gate)
    for wire, (driver, loads) in nets.items():
        rcnet = spef_by_name.get(wire)
        if rcnet is None:
            raise InterchangeError(f"SPEF is missing net {wire!r}")
        # Order loads to match the RC net's sink order via pin-point names.
        position: Dict[str, int] = {}
        for order, sink in enumerate(rcnet.sinks):
            position[rcnet.nodes[sink].name] = order
        try:
            ordered = sorted(loads,
                             key=lambda l: position[f"{l.gate}:{l.pin}"])
        except KeyError as exc:
            raise InterchangeError(
                f"net {wire!r}: load pin {exc} not present among SPEF "
                f"sinks") from None
        if len(ordered) != rcnet.num_sinks:
            raise InterchangeError(
                f"net {wire!r}: {len(ordered)} Verilog loads vs "
                f"{rcnet.num_sinks} SPEF sinks")
        netlist.add_net(DesignNet(wire, driver, ordered, rcnet))
    return netlist

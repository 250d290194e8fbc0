"""Structural Verilog writer/parser for gate-level netlists.

Connectivity interchange in real flows is a structural Verilog netlist;
together with SPEF (parasitics) and Liberty (cell timing), it fully
describes a routed design.  This module writes the gate-level subset —
module, wire declarations, named-port cell instances — and parses it back.

Conventions:

* every gate output drives the wire named after its design net;
* combinational outputs are pin ``Z``, flip-flop outputs pin ``Q``;
* flip-flops clock from the global ``clk`` wire; launch flip-flops with
  no fanin tie ``D`` to ``1'b0``;
* one instance per gate, instance name = gate name (escaped with the
  standard ``\\`` prefix when it contains hierarchy separators).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..liberty.library import Library
from .netlist import Gate, LoadPin, Netlist


class VerilogError(ValueError):
    """Raised on malformed structural Verilog input."""


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def write_verilog(netlist: Netlist) -> str:
    """Serialize the netlist's connectivity to structural Verilog."""
    module_name = _escape(netlist.name)
    lines: List[str] = [
        f"// structural netlist of design {netlist.name}",
        f"module {module_name} (clk);",
        "  input clk;",
    ]
    for net_name in netlist.nets:
        lines.append(f"  wire {_escape(net_name)} ;")
    lines.append("")

    # Input connections per gate: pin -> driving net.
    fanin: Dict[str, Dict[str, str]] = {name: {} for name in netlist.gates}
    for net in netlist.nets.values():
        for load in net.loads:
            fanin[load.gate][load.pin] = net.name

    for gate_name, gate in netlist.gates.items():
        ports: List[str] = []
        if gate.is_sequential:
            ports.append(".CK(clk)")
            d_net = fanin[gate_name].get("D")
            ports.append(f".D({_escape(d_net)} )" if d_net
                         else ".D(1'b0)")
            output_pin = "Q"
        else:
            for pin_idx in range(gate.cell.num_inputs):
                pin = chr(ord("A") + pin_idx)
                source = fanin[gate_name].get(pin)
                ports.append(f".{pin}({_escape(source)} )" if source
                             else f".{pin}(1'b0)")
            output_pin = "Z"
        driven = netlist.net_driven_by(gate_name)
        if driven is not None:
            ports.append(f".{output_pin}({_escape(driven.name)} )")
        lines.append(f"  {gate.cell.name} {_escape(gate_name)} "
                     f"( {', '.join(ports)} );")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _escape(name: str) -> str:
    """Escape identifiers containing characters plain Verilog disallows."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", name):
        return name
    return "\\" + name  # escaped identifier; must be followed by whitespace


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
@dataclass
class ParsedInstance:
    """One cell instance: name, cell type, pin connections."""

    name: str
    cell: str
    connections: Dict[str, str] = field(default_factory=dict)


@dataclass
class ParsedModule:
    """Structural content of one module."""

    name: str
    wires: List[str] = field(default_factory=list)
    instances: List[ParsedInstance] = field(default_factory=list)


def parse_verilog(text: str) -> ParsedModule:
    """Parse the structural subset written by :func:`write_verilog`."""
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)

    module_match = re.search(r"\bmodule\s+(\\?\S+)\s*\(", text)
    if not module_match:
        raise VerilogError("no module declaration found")
    module = ParsedModule(_unescape(module_match.group(1)))

    for wire_match in re.finditer(r"\bwire\s+([^;]+);", text):
        for token in wire_match.group(1).split(","):
            token = token.strip()
            if token:
                module.wires.append(_unescape(token))

    instance_re = re.compile(
        r"^\s*([A-Za-z_][\w$]*)\s+(\\?\S+)\s*\(\s*(\..*?)\)\s*;",
        flags=re.M | re.S)
    for match in instance_re.finditer(text):
        cell, inst, body = match.groups()
        if cell in ("module", "input", "output", "wire"):
            continue
        instance = ParsedInstance(_unescape(inst), cell)
        for port in re.finditer(r"\.(\w+)\(\s*([^)]*?)\s*\)", body):
            instance.connections[port.group(1)] = _unescape(port.group(2))
        if not instance.connections:
            raise VerilogError(
                f"instance {instance.name!r} has no port connections")
        module.instances.append(instance)
    if not module.instances:
        raise VerilogError(f"module {module.name!r} has no instances")
    return module


def _unescape(token: str) -> str:
    token = token.strip()
    return token[1:] if token.startswith("\\") else token


# ----------------------------------------------------------------------
# Netlist reconstruction (Verilog + per-net RC data)
# ----------------------------------------------------------------------
def connectivity_from_module(module: ParsedModule, library: Library
                             ) -> Tuple[Dict[str, Gate], Dict[str, Tuple[str, List[LoadPin]]]]:
    """Derive gates and net connectivity from a parsed module.

    Returns ``(gates, nets)`` where ``nets[name] = (driver gate, loads)``.
    Raises :class:`VerilogError` for unknown cells or multiply-driven
    wires.
    """
    gates: Dict[str, Gate] = {}
    drivers: Dict[str, str] = {}
    loads: Dict[str, List[LoadPin]] = {}
    for instance in module.instances:
        if instance.cell not in library:
            raise VerilogError(f"unknown cell {instance.cell!r} "
                               f"(instance {instance.name!r})")
        cell = library.cell(instance.cell)
        gates[instance.name] = Gate(instance.name, cell)
        for pin, wire in instance.connections.items():
            if wire in ("clk", "1'b0", "1'b1"):
                continue
            if pin in ("Z", "Q"):
                if wire in drivers:
                    raise VerilogError(f"wire {wire!r} has multiple drivers")
                drivers[wire] = instance.name
            else:
                loads.setdefault(wire, []).append(
                    LoadPin(instance.name, pin))
    nets: Dict[str, Tuple[str, List[LoadPin]]] = {}
    for wire, driver in drivers.items():
        nets[wire] = (driver, loads.get(wire, []))
    return gates, nets

"""SPEF (IEEE 1481) reader / writer for the subset the estimator consumes.

The paper's parasitics come from StarRC as SPEF.  This module implements the
slice of the standard that carries RC-net information:

* header (``*SPEF``, ``*DESIGN``, ``*DIVIDER``, ``*DELIMITER``, unit
  declarations ``*T_UNIT`` / ``*C_UNIT`` / ``*R_UNIT``);
* ``*D_NET`` blocks with ``*CONN``, ``*CAP`` (grounded and coupling) and
  ``*RES`` sections.

Name maps (``*NAME_MAP``) are supported on read.  Writing always emits
expanded names.  Values are scaled to SI units on read and from SI units on
write, so :class:`~repro.rcnet.graph.RCNet` objects always carry ohms and
farads regardless of the file's declared units.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .builder import RCNetBuilder
from .graph import RCNet, RCNetError

_UNIT_SCALE = {
    "S": 1.0, "MS": 1e-3, "US": 1e-6, "NS": 1e-9, "PS": 1e-12, "FS": 1e-15,
    "F": 1.0, "PF": 1e-12, "FF": 1e-15,
    "OHM": 1.0, "KOHM": 1e3, "MOHM": 1e6,
}


class SPEFError(ValueError):
    """Raised on malformed SPEF input."""


@dataclass(frozen=True)
class SkippedNet:
    """One ``*D_NET`` block dropped by lenient parsing, with its reason."""

    name: str
    line: int
    reason: str


@dataclass
class SPEFDesign:
    """Parsed contents of one SPEF file.

    ``skipped`` is populated only by lenient parsing
    (``parse_spef(text, strict=False)``): one record per malformed
    ``*D_NET`` block that was dropped instead of aborting the file.
    """

    design: str
    nets: List[RCNet] = field(default_factory=list)
    divider: str = "/"
    delimiter: str = ":"
    skipped: List[SkippedNet] = field(default_factory=list)

    def net_by_name(self, name: str) -> RCNet:
        for net in self.nets:
            if net.name == name:
                return net
        raise KeyError(f"no net named {name!r} in design {self.design!r}")

    def replace_net(self, new_net: RCNet) -> RCNet:
        """Swap in ``new_net`` for the same-named net; returns the old one.

        The SPEF-level half of an ECO parasitic update: callers hand the
        returned pre-edit net to cache invalidation before discarding it.
        """
        for index, net in enumerate(self.nets):
            if net.name == new_net.name:
                self.nets[index] = new_net
                return net
        raise KeyError(
            f"no net named {new_net.name!r} in design {self.design!r}")

    def scale_net_rc(self, name: str, r_factor: float = 1.0,
                     c_factor: float = 1.0) -> RCNet:
        """Uniformly scale one net's parasitics in place; returns the old net.

        Mirrors :meth:`~repro.design.netlist.Netlist.scale_net_rc` for
        designs that live as parsed SPEF rather than a full netlist.
        """
        old = self.net_by_name(name)
        self.replace_net(old.scaled(r_factor=r_factor, c_factor=c_factor))
        return old

    def __len__(self) -> int:
        return len(self.nets)


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def write_spef(nets: Sequence[RCNet], design: str = "repro_design") -> str:
    """Serialize ``nets`` to SPEF text.

    Units are fixed at 1 PS / 1 FF / 1 OHM so values in the file are the
    natural magnitudes for on-chip wires.
    """
    lines: List[str] = [
        '*SPEF "IEEE 1481-1998"',
        f'*DESIGN "{design}"',
        '*DATE "generated"',
        '*VENDOR "repro"',
        '*PROGRAM "repro.rcnet.spef"',
        '*VERSION "1.0"',
        '*DESIGN_FLOW "SYNTHETIC"',
        "*DIVIDER /",
        "*DELIMITER :",
        "*BUS_DELIMITER [ ]",
        "*T_UNIT 1 PS",
        "*C_UNIT 1 FF",
        "*R_UNIT 1 OHM",
        "*L_UNIT 1 HENRY",
        "",
    ]
    for net in nets:
        lines.extend(_write_net(net))
        lines.append("")
    return "\n".join(lines)


def _write_net(net: RCNet) -> List[str]:
    total_cap_ff = (net.total_cap + net.total_coupling_cap) / 1e-15
    lines = [f"*D_NET {net.name} {total_cap_ff:.6g}"]
    lines.append("*CONN")
    lines.append(f"*I {net.nodes[net.source].name} O")
    for sink in net.sinks:
        lines.append(f"*I {net.nodes[sink].name} I")
    cap_id = 1
    lines.append("*CAP")
    for node in net.nodes:
        if node.cap > 0.0:
            lines.append(f"{cap_id} {node.name} {node.cap / 1e-15:.6g}")
            cap_id += 1
    for coupling in net.couplings:
        victim = net.nodes[coupling.victim].name
        lines.append(
            f"{cap_id} {victim} {coupling.aggressor_name} "
            f"{coupling.cap / 1e-15:.6g}")
        cap_id += 1
    lines.append("*RES")
    for res_id, edge in enumerate(net.edges, start=1):
        lines.append(
            f"{res_id} {net.nodes[edge.u].name} {net.nodes[edge.v].name} "
            f"{edge.resistance:.6g}")
    lines.append("*END")
    return lines


def save_spef(path: str, nets: Sequence[RCNet], design: str = "repro_design") -> None:
    """Write ``nets`` to ``path`` as a SPEF file."""
    with open(path, "w") as handle:
        handle.write(write_spef(nets, design))


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def parse_spef(text: str, strict: bool = True) -> SPEFDesign:
    """Parse SPEF text into a :class:`SPEFDesign`.

    In strict mode (default) any structural problem — missing sections,
    values before units, malformed records — raises :class:`SPEFError`.
    With ``strict=False`` a malformed ``*D_NET`` block is skipped and
    recorded in :attr:`SPEFDesign.skipped` with its line number and reason,
    so one corrupt net no longer discards a whole extraction run; header
    problems (missing ``*SPEF``, units) still raise, since nothing after
    them can be trusted.
    """
    parser = _SPEFParser(strict=strict)
    return parser.parse(text)


def load_spef(path: str, strict: bool = True) -> SPEFDesign:
    """Parse the SPEF file at ``path`` (see :func:`parse_spef`)."""
    with open(path) as handle:
        return parse_spef(handle.read(), strict=strict)


class _SPEFParser:
    """Line-oriented recursive-descent parser for the supported subset."""

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.design = "unknown"
        self.divider = "/"
        self.delimiter = ":"
        self.cap_scale: Optional[float] = None
        self.res_scale: Optional[float] = None
        self.name_map: Dict[str, str] = {}
        self.nets: List[RCNet] = []
        self.skipped: List[SkippedNet] = []

    def parse(self, text: str) -> SPEFDesign:
        # Keep 1-based source line numbers so lenient-mode skip records can
        # point back into the file.
        lines = [(number, self._strip_comment(raw))
                 for number, raw in enumerate(text.splitlines(), start=1)]
        lines = [(number, line) for number, line in lines if line]
        i = 0
        saw_header = False
        while i < len(lines):
            _, line = lines[i]
            if line.startswith("*SPEF"):
                saw_header = True
                i += 1
            elif line.startswith("*DESIGN "):
                self.design = self._quoted(line)
                i += 1
            elif line.startswith("*DIVIDER"):
                self.divider = line.split()[1]
                i += 1
            elif line.startswith("*DELIMITER"):
                self.delimiter = line.split()[1]
                i += 1
            elif line.startswith("*C_UNIT"):
                self.cap_scale = self._unit(line)
                i += 1
            elif line.startswith("*R_UNIT"):
                self.res_scale = self._unit(line)
                i += 1
            elif line.startswith("*NAME_MAP"):
                i = self._parse_name_map(lines, i + 1)
            elif line.startswith("*D_NET"):
                i = self._net_block(lines, i)
            else:
                i += 1  # Other headers / *PORTS etc. are ignored.
        if not saw_header:
            raise SPEFError("missing *SPEF header")
        return SPEFDesign(self.design, self.nets, self.divider,
                          self.delimiter, self.skipped)

    def _net_block(self, lines: List[Tuple[int, str]], i: int) -> int:
        """Parse one ``*D_NET``; in lenient mode, skip-and-record failures."""
        if self.strict:
            return self._parse_net(lines, i)
        if self.cap_scale is None or self.res_scale is None:
            # A unit-less header poisons every value; not a per-net problem.
            raise SPEFError("*D_NET encountered before *C_UNIT/*R_UNIT")
        lineno, header = lines[i]
        try:
            return self._parse_net(lines, i)
        except ValueError as exc:  # SPEFError, RCNetError, bad numerics
            parts = header.split()
            name = parts[1] if len(parts) > 1 else "<unnamed>"
            try:
                name = self._expand(name)
            except SPEFError:
                pass
            self.skipped.append(SkippedNet(name, lineno, str(exc)))
            # Resynchronize: resume after this block's *END, or at the next
            # *D_NET when the block is unterminated.
            i += 1
            while i < len(lines):
                _, line = lines[i]
                if line.startswith("*END"):
                    return i + 1
                if line.startswith("*D_NET"):
                    return i
                i += 1
            return i

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _strip_comment(line: str) -> str:
        pos = line.find("//")
        if pos >= 0:
            line = line[:pos]
        return line.strip()

    @staticmethod
    def _quoted(line: str) -> str:
        match = re.search(r'"([^"]*)"', line)
        if not match:
            raise SPEFError(f"expected quoted string in {line!r}")
        return match.group(1)

    @staticmethod
    def _number(token: str, line: str) -> float:
        try:
            return float(token)
        except ValueError as exc:
            raise SPEFError(f"non-numeric value {token!r} in {line!r}") from exc

    @staticmethod
    def _unit(line: str) -> float:
        parts = line.split()
        if len(parts) != 3:
            raise SPEFError(f"malformed unit line {line!r}")
        factor = float(parts[1])
        unit = parts[2].upper()
        if unit not in _UNIT_SCALE:
            raise SPEFError(f"unknown unit {unit!r} in {line!r}")
        return factor * _UNIT_SCALE[unit]

    def _expand(self, token: str) -> str:
        """Apply the *NAME_MAP to a possibly-indexed token like ``*12:3``."""
        if not token.startswith("*"):
            return token
        head, sep, tail = token.partition(self.delimiter)
        mapped = self.name_map.get(head[1:])
        if mapped is None:
            raise SPEFError(f"unmapped name index {token!r}")
        return mapped + sep + tail

    def _parse_name_map(self, lines: List[Tuple[int, str]], i: int) -> int:
        while i < len(lines) and not lines[i][1].startswith("*") or (
                i < len(lines) and lines[i][1].startswith("*") and
                re.match(r"^\*\d+\s", lines[i][1])):
            match = re.match(r"^\*(\d+)\s+(\S+)$", lines[i][1])
            if not match:
                break
            self.name_map[match.group(1)] = match.group(2)
            i += 1
        return i

    def _parse_net(self, lines: List[Tuple[int, str]], i: int) -> int:
        if self.cap_scale is None or self.res_scale is None:
            raise SPEFError("*D_NET encountered before *C_UNIT/*R_UNIT")
        header = lines[i][1].split()
        if len(header) < 2:
            raise SPEFError(f"malformed *D_NET header {lines[i][1]!r}")
        net_name = self._expand(header[1])
        builder = RCNetBuilder(net_name)
        section = None
        source_set = False
        i += 1
        while i < len(lines):
            _, line = lines[i]
            if line.startswith("*END"):
                i += 1
                break
            if line.startswith("*CONN"):
                section = "conn"
            elif line.startswith("*CAP"):
                section = "cap"
            elif line.startswith("*RES"):
                section = "res"
            elif line.startswith("*INDUC"):
                section = "ignore"
            elif section == "conn" and (line.startswith("*I") or line.startswith("*P")):
                parts = line.split()
                if len(parts) < 3:
                    raise SPEFError(f"malformed connection {line!r}")
                pin = self._expand(parts[1])
                direction = parts[2].upper()
                if direction == "O":
                    builder.set_source(pin)
                    source_set = True
                elif direction == "I":
                    builder.add_sink(pin)
            elif section == "cap":
                self._parse_cap_record(builder, net_name, line)
            elif section == "res":
                parts = line.split()
                if len(parts) < 4:
                    raise SPEFError(f"malformed resistance record {line!r}")
                builder.add_edge(self._expand(parts[1]), self._expand(parts[2]),
                                 self._number(parts[3], line) * self.res_scale)
            i += 1
        else:
            raise SPEFError(f"net {net_name!r} not terminated by *END")
        if not source_set:
            raise SPEFError(f"net {net_name!r} has no driver (direction O) pin")
        try:
            self.nets.append(builder.build())
        except RCNetError as exc:
            raise SPEFError(f"invalid net {net_name!r}: {exc}") from exc
        return i

    def _parse_cap_record(self, builder: RCNetBuilder, net_name: str,
                          line: str) -> None:
        parts = line.split()
        if len(parts) == 3:
            # Grounded: id node value
            builder.add_cap(self._expand(parts[1]),
                            self._number(parts[2], line) * self.cap_scale)
        elif len(parts) == 4:
            # Coupling: id nodeA nodeB value.  The node belonging to this
            # net is the victim; the other is the aggressor reference.
            node_a = self._expand(parts[1])
            node_b = self._expand(parts[2])
            value = self._number(parts[3], line) * self.cap_scale
            prefix = net_name + self.delimiter
            if node_a.startswith(prefix) or node_a in builder:
                builder.add_coupling(node_a, node_b, value)
            elif node_b.startswith(prefix) or node_b in builder:
                builder.add_coupling(node_b, node_a, value)
            else:
                # Neither endpoint names this net explicitly; attach to the
                # first endpoint, which SPEF convention places on the owner.
                builder.add_coupling(node_a, node_b, value)
        else:
            raise SPEFError(f"malformed capacitance record {line!r}")

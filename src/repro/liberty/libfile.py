"""Liberty (.lib) file writer and parser for the NLDM subset we model.

Real flows exchange cell timing as Liberty files; this module serializes
a :class:`~repro.liberty.library.Library` to the standard syntax and reads
it back, covering:

* library-level units (``time_unit``, ``capacitive_load_unit``);
* ``lut_template`` declarations with ``index_1``/``index_2``;
* ``cell`` groups with function metadata, per-cell ``drive_strength`` /
  ``drive_resistance`` attributes, input ``pin`` groups with
  ``capacitance``, and output pins with ``timing()`` arcs holding
  ``cell_rise`` and ``rise_transition`` tables.

The dialect is deliberately conservative (quoted value rows, one template
per table shape) so third-party Liberty tooling can read the output.
Parsing is tolerant of whitespace/newlines but strict about structure —
malformed groups raise :class:`LibertyError`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cell import FUNCTION_IDS, Cell, TimingArc
from .library import Library
from .table import TimingTable

_TIME_SCALE = 1e-9   # written in ns
_CAP_SCALE = 1e-15   # written in fF

# Boolean expressions for the `function` attribute, per logic function.
_FUNCTION_EXPR = {
    "INV": "(!A)",
    "BUF": "(A)",
    "NAND2": "(!(A&B))",
    "NOR2": "(!(A|B))",
    "AND2": "(A&B)",
    "OR2": "(A|B)",
    "AOI21": "(!((A&B)|C))",
    "OAI21": "(!((A|B)&C))",
    "XOR2": "(A^B)",
    "DFF": "IQ",
}


class LibertyError(ValueError):
    """Raised on malformed Liberty input."""


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def write_liberty(library: Library) -> str:
    """Serialize a library to Liberty text."""
    lines: List[str] = [
        f"library ({library.name}) {{",
        '  time_unit : "1ns";',
        '  capacitive_load_unit (1, ff);',
        '  voltage_unit : "1V";',
        '  current_unit : "1mA";',
        '  pulling_resistance_unit : "1kohm";',
        "",
    ]
    templates = _collect_templates(library)
    for name, (slew_axis, load_axis) in templates.items():
        lines.append(f"  lu_table_template ({name}) {{")
        lines.append("    variable_1 : input_net_transition;")
        lines.append("    variable_2 : total_output_net_capacitance;")
        lines.append(f'    index_1 ("{_axis(slew_axis, _TIME_SCALE)}");')
        lines.append(f'    index_2 ("{_axis(load_axis, _CAP_SCALE)}");')
        lines.append("  }")
        lines.append("")

    for cell in library:
        lines.extend(_write_cell(cell, templates))
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_liberty(path: str, library: Library) -> None:
    """Write ``library`` to ``path`` in Liberty format."""
    with open(path, "w") as handle:
        handle.write(write_liberty(library))


def _collect_templates(library: Library
                       ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """One ``lu_table_template`` per distinct (slew, load) axis pair."""
    templates: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for cell in library:
        for arc in cell.arcs.values():
            key = _template_key(arc.delay)
            templates.setdefault(key, (arc.delay.slew_axis,
                                       arc.delay.load_axis))
    return templates


def _template_key(table: TimingTable) -> str:
    return f"tmpl_{len(table.slew_axis)}x{len(table.load_axis)}"


def _axis(values: np.ndarray, scale: float) -> str:
    return ", ".join(f"{v / scale:.6g}" for v in values)


def _write_cell(cell: Cell, templates: Dict) -> List[str]:
    lines = [f"  cell ({cell.name}) {{"]
    lines.append(f"    /* function: {cell.function}, "
                 f"drive strength X{cell.drive_strength} */")
    lines.append(f"    drive_strength : {cell.drive_strength};")
    lines.append(f"    drive_resistance : {cell.drive_resistance:.6g};")
    if cell.is_sequential:
        lines.append('    ff (IQ, IQN) { clocked_on : "CK"; next_state : "D"; }')
    for pin_idx in range(cell.num_inputs):
        pin = chr(ord("A") + pin_idx)
        lines.append(f"    pin ({pin}) {{")
        lines.append("      direction : input;")
        lines.append(f"      capacitance : {cell.input_cap / _CAP_SCALE:.6g};")
        lines.append("    }")
    lines.append("    pin (Z) {")
    lines.append("      direction : output;")
    lines.append(f'      function : "{_FUNCTION_EXPR[cell.function]}";')
    for pin_name, arc in cell.arcs.items():
        template = _template_key(arc.delay)
        lines.append("      timing () {")
        lines.append(f'        related_pin : "{pin_name}";')
        lines.append(f"        cell_rise ({template}) {{")
        lines.extend(_value_rows(arc.delay.values, _TIME_SCALE, indent=10))
        lines.append("        }")
        lines.append(f"        rise_transition ({template}) {{")
        lines.extend(_value_rows(arc.output_slew.values, _TIME_SCALE,
                                 indent=10))
        lines.append("        }")
        lines.append("      }")
    lines.append("    }")
    lines.append("  }")
    lines.append("")
    return lines


def _value_rows(values: np.ndarray, scale: float, indent: int) -> List[str]:
    pad = " " * indent
    rows = [f'{pad}values ( \\']
    for i, row in enumerate(values):
        text = ", ".join(f"{v / scale:.6g}" for v in row)
        sep = ", \\" if i + 1 < len(values) else " );"
        rows.append(f'{pad}  "{text}"{sep}')
    return rows


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def parse_liberty(text: str) -> Library:
    """Parse Liberty text previously produced by :func:`write_liberty`.

    The parser handles the written dialect plus reasonable variations in
    whitespace and attribute order.  Returns a fully usable
    :class:`Library` (lookup tables interpolate identically to the
    original up to formatting precision).
    """
    tokens = _GroupParser(text).parse()
    if tokens.kind != "library":
        raise LibertyError("top-level group must be library(...)")

    templates: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for group in tokens.children:
        if group.kind == "lu_table_template":
            index_1 = _parse_axis(group.attr("index_1")) * _TIME_SCALE
            index_2 = _parse_axis(group.attr("index_2")) * _CAP_SCALE
            templates[group.argument] = (index_1, index_2)

    cells: List[Cell] = []
    for group in tokens.children:
        if group.kind == "cell":
            cells.append(_parse_cell(group, templates))
    if not cells:
        raise LibertyError("library contains no cells")
    return Library(tokens.argument, cells)


def load_liberty(path: str) -> Library:
    """Parse the Liberty file at ``path``."""
    with open(path) as handle:
        return parse_liberty(handle.read())


def _parse_cell(group: "_Group", templates: Dict) -> Cell:
    name = group.argument
    function = _infer_function(name, group)
    drive_strength = int(float(group.attr("drive_strength")))
    drive_resistance = float(group.attr("drive_resistance"))

    input_cap: Optional[float] = None
    arcs: Dict[str, TimingArc] = {}
    num_inputs = 0
    for pin in group.children_of("pin"):
        direction = pin.attr("direction")
        if direction == "input":
            num_inputs += 1
            input_cap = float(pin.attr("capacitance")) * _CAP_SCALE
        elif direction == "output":
            for timing in pin.children_of("timing"):
                related = timing.attr("related_pin").strip('"')
                delay = _parse_table(timing.child("cell_rise"), templates)
                slew = _parse_table(timing.child("rise_transition"), templates)
                arcs[related] = TimingArc(related, delay, slew)
    if input_cap is None:
        raise LibertyError(f"cell {name!r} has no input pin")
    if not arcs:
        raise LibertyError(f"cell {name!r} has no timing arcs")
    return Cell(name=name, function=function, drive_strength=drive_strength,
                num_inputs=num_inputs, input_cap=input_cap,
                drive_resistance=drive_resistance, arcs=arcs)


def _infer_function(name: str, group: "_Group") -> str:
    head = name.split("_X")[0]
    if head in FUNCTION_IDS:
        return head
    raise LibertyError(f"cannot infer logic function of cell {name!r}")


def _parse_table(group: "_Group", templates: Dict) -> TimingTable:
    template = templates.get(group.argument)
    if template is None:
        raise LibertyError(f"unknown table template {group.argument!r}")
    slew_axis, load_axis = template
    raw = group.attr("values")
    rows = re.findall(r'"([^"]*)"', raw)
    if not rows:
        raise LibertyError("table has no value rows")
    values = np.array([[float(x) for x in row.split(",")] for row in rows])
    return TimingTable(slew_axis, load_axis, values * _TIME_SCALE)


def _parse_axis(raw: str) -> np.ndarray:
    return np.array([float(x) for x in raw.strip('"').split(",")])


# ----------------------------------------------------------------------
# Tiny recursive-descent group parser for Liberty's  name(arg) { ... }
# ----------------------------------------------------------------------
class _Group:
    """A parsed ``kind (argument) { attributes / children }`` group."""

    def __init__(self, kind: str, argument: str) -> None:
        self.kind = kind
        self.argument = argument
        self.attributes: Dict[str, str] = {}
        self.children: List["_Group"] = []

    def attr(self, name: str) -> str:
        try:
            return self.attributes[name]
        except KeyError:
            raise LibertyError(
                f"group {self.kind}({self.argument}) missing "
                f"attribute {name!r}") from None

    def children_of(self, kind: str) -> List["_Group"]:
        return [c for c in self.children if c.kind == kind]

    def child(self, kind: str) -> "_Group":
        matches = self.children_of(kind)
        if not matches:
            raise LibertyError(
                f"group {self.kind}({self.argument}) has no {kind} child")
        return matches[0]


class _GroupParser:
    def __init__(self, text: str) -> None:
        # Strip comments and line continuations.
        text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
        text = text.replace("\\\n", " ")
        self.text = text
        self.pos = 0

    def parse(self) -> _Group:
        group = self._parse_group()
        if group is None:
            raise LibertyError("no top-level group found")
        return group

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _parse_group(self) -> Optional[_Group]:
        self._skip_ws()
        match = re.compile(r"([A-Za-z_][\w]*)\s*\(([^)]*)\)\s*\{").match(
            self.text, self.pos)
        if not match:
            return None
        group = _Group(match.group(1), match.group(2).strip())
        self.pos = match.end()
        while True:
            self._skip_ws()
            if self.pos >= len(self.text):
                raise LibertyError(
                    f"unterminated group {group.kind}({group.argument})")
            if self.text[self.pos] == "}":
                self.pos += 1
                return group
            child = self._parse_group()
            if child is not None:
                group.children.append(child)
                continue
            self._parse_statement(group)

    def _parse_statement(self, group: _Group) -> None:
        end = self.text.find(";", self.pos)
        if end < 0:
            raise LibertyError(
                f"unterminated statement in {group.kind}({group.argument})")
        statement = self.text[self.pos:end].strip()
        self.pos = end + 1
        if not statement:
            return
        if ":" in statement:
            key, _, value = statement.partition(":")
            group.attributes[key.strip()] = value.strip().rstrip(";").strip()
            return
        # Attribute-with-parentheses form, e.g. values (...) or
        # capacitive_load_unit (1, ff).
        match = re.match(r"([A-Za-z_][\w]*)\s*\((.*)\)\s*$", statement,
                         flags=re.S)
        if match:
            group.attributes[match.group(1)] = match.group(2).strip()
            return
        raise LibertyError(f"cannot parse statement {statement!r}")

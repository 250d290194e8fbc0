"""Cell library container and the synthetic library factory.

The factory stands in for the paper's TSMC16 library: a family of
combinational cells and a flip-flop at several drive strengths, each with
NLDM delay/slew tables generated from a first-order switch-resistor model
(``delay ~ 0.69 R_drive C_load`` plus slew dependence and a mild
nonlinearity, so bilinear interpolation is exercised rather than trivial).
Absolute values are synthetic; the *mechanism* — table interpolation — is
identical to sign-off gate timing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import numpy as np

from .cell import Cell, TimingArc
from .table import TimingTable

# Default NLDM characterization grid.
_SLEW_AXIS = np.array([5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0]) * 1e-12
_LOAD_AXIS = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]) * 1e-15

# Per-function base output resistance (ohms, at drive strength 1) and the
# relative intrinsic delay of the topology.
_FUNCTION_ELECTRICAL = {
    "INV": (1600.0, 1.0),
    "BUF": (1600.0, 2.0),
    "NAND2": (2000.0, 1.3),
    "NOR2": (2400.0, 1.5),
    "AND2": (2000.0, 2.2),
    "OR2": (2400.0, 2.4),
    "AOI21": (2600.0, 1.8),
    "OAI21": (2600.0, 1.8),
    "XOR2": (2800.0, 2.8),
    "DFF": (2000.0, 4.0),
}

_FUNCTION_INPUTS = {
    "INV": 1, "BUF": 1, "NAND2": 2, "NOR2": 2, "AND2": 2, "OR2": 2,
    "AOI21": 3, "OAI21": 3, "XOR2": 2, "DFF": 2,
}


class Library:
    """A named collection of :class:`Cell` objects."""

    def __init__(self, name: str, cells: Sequence[Cell]) -> None:
        self.name = name
        self._cells: Dict[str, Cell] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate cell {cell.name!r}")
            self._cells[cell.name] = cell

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"library {self.name!r} has no cell {name!r}") from None

    def cells_with_function(self, function: str) -> List[Cell]:
        """All drive-strength variants of one logic function."""
        return [c for c in self._cells.values() if c.function == function]

    @property
    def combinational(self) -> List[Cell]:
        return [c for c in self._cells.values() if not c.is_sequential]

    @property
    def sequential(self) -> List[Cell]:
        return [c for c in self._cells.values() if c.is_sequential]

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __repr__(self) -> str:
        return f"Library({self.name!r}, cells={len(self)})"


def _characterize(drive_resistance: float, intrinsic: float) -> TimingArc:
    """Fill NLDM tables from the switch-resistor model.

    delay  = intrinsic + ln(2)·R·C + 0.12·slew + nonlinear cross term
    slew   = 1 ps + 2.2·R·C·0.8 + 0.18·slew_in + cross term

    The cross term ``sqrt(R·C·slew)`` bends the surface so the tables are
    genuinely two-dimensional.
    """
    delay_values = np.empty((len(_SLEW_AXIS), len(_LOAD_AXIS)))
    slew_values = np.empty_like(delay_values)
    for i, s in enumerate(_SLEW_AXIS):
        for j, c in enumerate(_LOAD_AXIS):
            rc = drive_resistance * c
            cross = np.sqrt(rc * s)
            delay_values[i, j] = intrinsic + 0.693 * rc + 0.12 * s + 0.08 * cross
            slew_values[i, j] = 1e-12 + 1.76 * rc + 0.18 * s + 0.10 * cross
    return TimingArc(
        related_pin="A",
        delay=TimingTable(_SLEW_AXIS, _LOAD_AXIS, delay_values),
        output_slew=TimingTable(_SLEW_AXIS, _LOAD_AXIS, slew_values),
    )


def make_default_library(name: str = "repro16",
                         strengths: Sequence[int] = (1, 2, 4, 8)) -> Library:
    """Build the synthetic standard-cell library used across the repo.

    Every function in :data:`_FUNCTION_ELECTRICAL` is emitted at each drive
    strength (flip-flops only at strengths <= 2, as in typical libraries).
    Stronger cells have proportionally lower output resistance and larger
    input capacitance, so drive strength genuinely matters to wire timing —
    which is why it appears among the paper's path features.
    """
    cells: List[Cell] = []
    for function, (base_r, intrinsic_scale) in _FUNCTION_ELECTRICAL.items():
        function_strengths = [s for s in strengths if s <= 2] \
            if function == "DFF" else list(strengths)
        for strength in function_strengths:
            drive_resistance = base_r / strength
            intrinsic = 2e-12 * intrinsic_scale * (1.0 + 0.1 * np.log2(strength))
            arc = _characterize(drive_resistance, intrinsic)
            num_inputs = _FUNCTION_INPUTS[function]
            arcs = {}
            for pin_idx in range(num_inputs):
                pin = chr(ord("A") + pin_idx)
                arcs[pin] = TimingArc(pin, arc.delay, arc.output_slew)
            if function == "DFF":
                # Clock-to-Q arc.  Generated launch stages reference the
                # CK pin explicitly; sharing the data-pin tables keeps
                # their timing identical to what strict pin resolution
                # would otherwise fall back to.
                arcs["CK"] = TimingArc("CK", arc.delay, arc.output_slew)
            cells.append(Cell(
                name=f"{function}_X{strength}",
                function=function,
                drive_strength=strength,
                num_inputs=num_inputs,
                input_cap=0.6e-15 * strength,
                drive_resistance=drive_resistance,
                arcs=arcs,
            ))
    return Library(name, cells)

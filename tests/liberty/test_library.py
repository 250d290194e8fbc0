"""Cells, the synthetic library and effective capacitance."""

import numpy as np
import pytest

from repro.liberty import FUNCTION_IDS, Cell, Library, effective_capacitance


class TestDefaultLibrary:
    def test_contains_expected_families(self, library):
        assert "INV_X1" in library
        assert "NAND2_X4" in library
        assert "DFF_X1" in library
        assert "INV_X16" not in library

    def test_dff_limited_strengths(self, library):
        dffs = library.cells_with_function("DFF")
        assert {c.drive_strength for c in dffs} == {1, 2}

    def test_stronger_cells_drive_harder(self, library):
        x1 = library.cell("INV_X1")
        x8 = library.cell("INV_X8")
        assert x8.drive_resistance < x1.drive_resistance
        assert x8.input_cap > x1.input_cap

    def test_stronger_cell_is_faster_at_load(self, library):
        delay_x1, _ = library.cell("INV_X1").delay_and_slew(20e-12, 20e-15)
        delay_x8, _ = library.cell("INV_X8").delay_and_slew(20e-12, 20e-15)
        assert delay_x8 < delay_x1

    def test_delay_increases_with_load(self, library):
        cell = library.cell("BUF_X2")
        d_light, s_light = cell.delay_and_slew(20e-12, 2e-15)
        d_heavy, s_heavy = cell.delay_and_slew(20e-12, 40e-15)
        assert d_heavy > d_light
        assert s_heavy > s_light

    def test_delay_increases_with_input_slew(self, library):
        cell = library.cell("NOR2_X1")
        d_fast, _ = cell.delay_and_slew(5e-12, 8e-15)
        d_slow, _ = cell.delay_and_slew(200e-12, 8e-15)
        assert d_slow > d_fast

    def test_multi_input_cells_have_arc_per_pin(self, library):
        aoi = library.cell("AOI21_X1")
        assert set(aoi.arcs) == {"A", "B", "C"}
        nand = library.cell("NAND2_X2")
        assert set(nand.arcs) == {"A", "B"}

    def test_sequential_partition(self, library):
        assert all(c.function == "DFF" for c in library.sequential)
        assert all(c.function != "DFF" for c in library.combinational)
        assert len(library.sequential) + len(library.combinational) == len(library)

    def test_function_ids_stable(self, library):
        for cell in library:
            assert cell.function_id == FUNCTION_IDS[cell.function]

    def test_unknown_cell_raises(self, library):
        with pytest.raises(KeyError):
            library.cell("NONSENSE_X1")

    def test_unknown_arc_raises(self, library):
        with pytest.raises(KeyError):
            library.cell("INV_X1").arc("Z")


class TestCellValidation:
    def test_unknown_function(self):
        with pytest.raises(ValueError):
            Cell("X", "MUX4", 1, 1, 1e-15, 100.0)

    def test_bad_strength(self, library):
        with pytest.raises(ValueError):
            Cell("X", "INV", 0, 1, 1e-15, 100.0)

    def test_duplicate_cells_rejected(self, library):
        cell = library.cell("INV_X1")
        with pytest.raises(ValueError):
            Library("dup", [cell, cell])


class TestEffectiveCapacitance:
    def test_upper_bounded_by_total_cap(self, tree_net):
        ceff = effective_capacitance(tree_net, drive_resistance=100.0)
        total = tree_net.total_cap + tree_net.total_coupling_cap
        assert 0.0 < ceff <= total

    def test_strong_driver_sees_nearly_total(self, small_chain):
        """R_drive >> R_wire: no shielding, ceff -> total cap."""
        ceff = effective_capacitance(small_chain, drive_resistance=1e6)
        assert ceff == pytest.approx(small_chain.total_cap, rel=1e-3)

    def test_chain_closed_form(self, small_chain):
        """Each node's cap is shielded by R_drive / (R_drive + R_path).

        On the uniform ladder node ``j`` sits ``100 * j`` ohms from the
        source, so a 10-ohm driver sees a small, exactly known fraction
        of the 20 fF total.
        """
        expected = sum(2e-15 * 10.0 / (10.0 + 100.0 * j) for j in range(10))
        ceff = effective_capacitance(small_chain, drive_resistance=10.0)
        assert ceff == pytest.approx(expected, rel=1e-12)
        assert ceff < 0.25 * small_chain.total_cap

    def test_weak_driver_sees_shielded_load(self, small_chain):
        strong = effective_capacitance(small_chain, drive_resistance=1e5)
        weak = effective_capacitance(small_chain, drive_resistance=10.0)
        assert weak < strong

    def test_monotone_in_drive_resistance(self, nontree_net):
        values = [effective_capacitance(nontree_net, r)
                  for r in (10.0, 100.0, 1000.0, 10000.0)]
        assert all(a <= b + 1e-21 for a, b in zip(values, values[1:]))

    def test_sink_loads_counted(self, small_chain):
        base = effective_capacitance(small_chain, 100.0)
        loaded = effective_capacitance(small_chain, 100.0,
                                       sink_loads=np.array([10e-15]))
        assert loaded > base

    def test_invalid_resistance(self, small_chain):
        with pytest.raises(ValueError):
            effective_capacitance(small_chain, 0.0)

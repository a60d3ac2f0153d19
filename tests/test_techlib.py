"""Tests for the technology libraries and the Fig. 1 calibration."""

from __future__ import annotations

import pytest

from repro.netlist import GateType
from repro.techlib import (
    FIG1_REFERENCE,
    LibraryError,
    ReadMode,
    cmos_90nm,
    stt_mtj_32nm,
)

_FIG1_GATES = {
    "NAND2": (GateType.NAND, 2),
    "NAND4": (GateType.NAND, 4),
    "NOR2": (GateType.NOR, 2),
    "NOR4": (GateType.NOR, 4),
    "XOR2": (GateType.XOR, 2),
    "XOR4": (GateType.XOR, 4),
}


class TestCmosLibrary:
    def test_lookup(self, cmos_lib):
        cell = cmos_lib.cell(GateType.NAND, 2)
        assert cell.name == "NAND2"
        assert cell.delay_ns == pytest.approx(0.045)

    def test_dff(self, cmos_lib):
        assert cmos_lib.cell(GateType.DFF, 1).clk_to_q_ns > 0

    def test_extrapolation_beyond_widest(self, cmos_lib):
        wide = cmos_lib.cell(GateType.NAND, 6)
        base = cmos_lib.cell(GateType.NAND, 4)
        assert wide.delay_ns > base.delay_ns
        assert wide.area_um2 > base.area_um2
        assert cmos_lib.has_cell(GateType.NAND, 6)  # cached after lookup

    def test_extrapolation_below_narrowest_fails(self, cmos_lib):
        with pytest.raises(LibraryError):
            cmos_lib.cell(GateType.XOR, 1)

    def test_missing_type_fails(self, cmos_lib):
        with pytest.raises(LibraryError):
            cmos_lib.cell(GateType.LUT, 2)

    def test_tie_cells(self, cmos_lib):
        assert cmos_lib.cell(GateType.CONST0, 0).delay_ns == 0.0

    def test_power_model_units(self, cmos_lib):
        cell = cmos_lib.cell(GateType.NAND, 2)
        # 0.008 pJ at alpha=1, 1 GHz -> 8 µW dynamic.
        assert cell.dynamic_power_uw(1.0, 1.0) == pytest.approx(8.0)
        assert cell.total_power_uw(0.0, 1.0) == pytest.approx(
            cell.leakage_nw * 1e-3
        )


class TestSttLibrary:
    def test_fanin_range(self, stt_lib):
        for k in range(2, 9):
            cell = stt_lib.lut(k)
            assert cell.n_inputs == k
            assert cell.n_config_bits == 1 << k

    def test_one_input_maps_to_lut2(self, stt_lib):
        assert stt_lib.lut(1).n_inputs == 2

    def test_out_of_range(self, stt_lib):
        with pytest.raises(KeyError):
            stt_lib.lut(9)

    def test_monotone_with_fanin(self, stt_lib):
        for k in range(2, 8):
            a, b = stt_lib.lut(k), stt_lib.lut(k + 1)
            assert b.delay_ns > a.delay_ns
            assert b.read_energy_pj > a.read_energy_pj
            assert b.area_um2 > a.area_um2

    def test_read_modes(self, stt_lib):
        cell = stt_lib.lut(2)
        free = cell.active_power_uw(1.0, activity=0.1, mode=ReadMode.EVERY_CYCLE)
        gated = cell.active_power_uw(1.0, activity=0.1, mode=ReadMode.ON_INPUT_CHANGE)
        assert free == pytest.approx(gated * 10)

    def test_programming_cost(self, stt_lib):
        cell = stt_lib.lut(4)
        assert cell.program_energy_pj() == pytest.approx(
            cell.write_energy_pj_per_bit * 16
        )
        assert cell.program_time_ns() == pytest.approx(cell.write_latency_ns * 16)

    def test_nonvolatile_properties(self, stt_lib):
        cell = stt_lib.lut(2)
        assert cell.retention_years >= 10
        assert cell.endurance_writes >= 1e15


class TestFig1Calibration:
    """The built-in libraries reproduce the paper's Fig. 1 exactly
    (these are the same checks the Fig. 1 bench prints as a table)."""

    @pytest.mark.parametrize("gate", sorted(FIG1_REFERENCE))
    def test_delay_ratio(self, gate, cmos_lib, stt_lib):
        gate_type, k = _FIG1_GATES[gate]
        cmos = cmos_lib.cell(gate_type, k)
        lut = stt_lib.lut(k)
        assert lut.delay_ns / cmos.delay_ns == pytest.approx(
            FIG1_REFERENCE[gate]["delay"], rel=0.01
        )

    @pytest.mark.parametrize("gate", sorted(FIG1_REFERENCE))
    @pytest.mark.parametrize("alpha,key", [(0.1, "active_power_a10"), (0.3, "active_power_a30")])
    def test_active_power_ratio(self, gate, alpha, key, cmos_lib, stt_lib):
        gate_type, k = _FIG1_GATES[gate]
        cmos = cmos_lib.cell(gate_type, k)
        lut = stt_lib.lut(k)
        lut_power = lut.active_power_uw(1.0, mode=ReadMode.EVERY_CYCLE)
        cmos_power = cmos.dynamic_power_uw(alpha, 1.0)
        assert lut_power / cmos_power == pytest.approx(
            FIG1_REFERENCE[gate][key], rel=0.01
        )

    @pytest.mark.parametrize("gate", sorted(FIG1_REFERENCE))
    def test_standby_ratio(self, gate, cmos_lib, stt_lib):
        gate_type, k = _FIG1_GATES[gate]
        cmos = cmos_lib.cell(gate_type, k)
        lut = stt_lib.lut(k)
        assert lut.standby_nw / cmos.leakage_nw == pytest.approx(
            FIG1_REFERENCE[gate]["standby_power"], rel=0.02
        )

    @pytest.mark.parametrize("gate", sorted(FIG1_REFERENCE))
    def test_energy_per_switching_ratio(self, gate, cmos_lib, stt_lib):
        gate_type, k = _FIG1_GATES[gate]
        cmos = cmos_lib.cell(gate_type, k)
        lut = stt_lib.lut(k)
        ratio = (lut.read_energy_pj / cmos.energy_sw_pj) * (
            lut.delay_ns / cmos.delay_ns
        )
        assert ratio == pytest.approx(
            FIG1_REFERENCE[gate]["energy_per_switching"], rel=0.02
        )


"""Area accounting.

Sums placed cell area over the netlist; STT LUT nodes take their area from
the STT library (the MTJ array sits above the CMOS sense amplifier, but the
paper — and we — charge the full hybrid cell footprint).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..netlist.csr import CsrView, csr_view
from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..techlib.cells import TechLibrary, cmos_90nm
from ..techlib.stt import SttLibrary, stt_mtj_32nm


@dataclass(frozen=True)
class AreaReport:
    """Total and per-node placed area in µm²."""

    total_um2: float
    cmos_um2: float
    stt_um2: float
    sequential_um2: float
    per_node_um2: Dict[str, float] = field(repr=False)


class AreaAnalyzer:
    """Area engine bound to a CMOS + STT library pair."""

    def __init__(
        self,
        tech: Optional[TechLibrary] = None,
        stt: Optional[SttLibrary] = None,
    ):
        self.tech = tech or cmos_90nm()
        self.stt = stt or stt_mtj_32nm()
        #: Each CSR view's total (see :meth:`total_area_um2`); an entry
        #: dies with its view, i.e. at the netlist's next revision.
        self._totals: "weakref.WeakKeyDictionary[CsrView, float]" = (
            weakref.WeakKeyDictionary()
        )

    def analyze(self, netlist: Netlist) -> AreaReport:
        """Per-node and total area, walked over the CSR view in node order.

        Cell areas come from a per-call (gate type, arity) table instead
        of a library lookup per node.  The sums run in node order, so
        every float equals the per-node walk by name that
        ``tests/test_kernel_exactness.py`` keeps as the reference.
        """
        view = csr_view(netlist)
        names, gate_types, fi_ptr = view.names, view.gate_types, view.fanin_ptr
        is_input, is_seq, is_lut = view.is_input, view.is_seq, view.is_lut
        areas: Dict[Tuple[GateType, int], float] = {}
        per_node: Dict[str, float] = {}
        cmos = stt_area = sequential = 0.0
        for i in range(view.n):
            if is_input[i]:
                continue
            key = (gate_types[i], fi_ptr[i + 1] - fi_ptr[i])
            area = areas.get(key)
            if area is None:
                cell = self.stt.lut(key[1]) if is_lut[i] else self.tech.cell(*key)
                area = areas[key] = cell.area_um2
            if is_lut[i]:
                stt_area += area
            elif is_seq[i]:
                sequential += area
            else:
                cmos += area
            per_node[names[i]] = area
        return AreaReport(
            total_um2=cmos + stt_area + sequential,
            cmos_um2=cmos,
            stt_um2=stt_area,
            sequential_um2=sequential,
            per_node_um2=per_node,
        )

    def total_area_um2(self, netlist: Netlist) -> float:
        """The total of :meth:`analyze`, computed once per CSR view."""
        view = csr_view(netlist)
        total = self._totals.get(view)
        if total is None:
            total = self._totals[view] = self.analyze(netlist).total_um2
        return total

    def area_overhead_pct(self, original: Netlist, hybrid: Netlist) -> float:
        """Relative area increase, in percent (Table I).  The original's
        total is paid once per revision of it, not once per hybrid."""
        base = self.total_area_um2(original)
        new = self.total_area_um2(hybrid)
        if base <= 0.0:
            return 0.0
        return (new - base) / base * 100.0

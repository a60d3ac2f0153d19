"""Combined performance/power/area reporting — the engine behind Table I."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..netlist.netlist import Netlist
from ..techlib.cells import TechLibrary, cmos_90nm
from ..techlib.stt import SttLibrary, stt_mtj_32nm
from .area import AreaAnalyzer
from .power import PowerAnalyzer, estimate_activities
from .sta import TimingAnalyzer


@dataclass(frozen=True)
class PpaReport:
    """Absolute PPA of one netlist."""

    name: str
    delay_ns: float
    power_uw: float
    area_um2: float
    n_gates: int
    n_luts: int


@dataclass(frozen=True)
class OverheadReport:
    """Relative PPA cost of a hybrid netlist vs. its original (Table I row)."""

    circuit: str
    algorithm: str
    performance_degradation_pct: float
    power_overhead_pct: float
    area_overhead_pct: float
    n_stt: int
    size: int


class PpaAnalyzer:
    """One-stop PPA evaluation bound to a CMOS + STT library pair."""

    def __init__(
        self,
        tech: Optional[TechLibrary] = None,
        stt: Optional[SttLibrary] = None,
        input_activity: float = 0.2,
    ):
        self.tech = tech or cmos_90nm()
        self.stt = stt or stt_mtj_32nm()
        self.input_activity = input_activity
        self.timing = TimingAnalyzer(self.tech, self.stt)
        self.power = PowerAnalyzer(self.tech, self.stt)
        self.area = AreaAnalyzer(self.tech, self.stt)

    def report(self, netlist: Netlist) -> PpaReport:
        stats = netlist.stats()
        return PpaReport(
            name=netlist.name,
            delay_ns=self.timing.max_delay(netlist),
            power_uw=self.power.total_power_uw(
                netlist, input_activity=self.input_activity
            ),
            area_um2=self.area.total_area_um2(netlist),
            n_gates=stats.n_gates,
            n_luts=stats.n_luts,
        )

    def overhead(
        self,
        original: Netlist,
        hybrid: Netlist,
        algorithm: str = "",
    ) -> OverheadReport:
        """All three Table I overhead metrics plus the STT count."""
        return OverheadReport(
            circuit=original.name,
            algorithm=algorithm,
            performance_degradation_pct=self.timing.performance_degradation_pct(
                original, hybrid
            ),
            power_overhead_pct=self.power.power_overhead_pct(
                original, hybrid, input_activity=self.input_activity
            ),
            area_overhead_pct=self.area.area_overhead_pct(original, hybrid),
            n_stt=len(hybrid.luts),
            size=len(original.gates),
        )

    def totals(self, original: Netlist, hybrid: Netlist) -> Dict[str, float]:
        """The absolute delays, power and area behind :meth:`overhead`'s
        percentages, each as that call computed it; after it, every
        figure is served from the analyzers' per-view memos."""
        acts = estimate_activities(original, input_activity=self.input_activity)
        return {
            "base_delay_ns": self.timing.max_delay(original),
            "hybrid_delay_ns": self.timing.max_delay(hybrid),
            "base_power_uw": self.power.charged_total_uw(original, acts),
            "hybrid_power_uw": self.power.charged_total_uw(hybrid, acts),
            "base_area_um2": self.area.total_area_um2(original),
            "hybrid_area_um2": self.area.total_area_um2(hybrid),
        }

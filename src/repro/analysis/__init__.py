"""Design analysis engines: timing, power, area, paths, combined PPA."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .area import AreaAnalyzer, AreaReport
from .paths import IOPath, PathFinder
from .power import (
    PowerAnalyzer,
    PowerReport,
    estimate_activities,
    signal_probabilities,
)
from .ppa import OverheadReport, PpaAnalyzer, PpaReport
from .sta import TimingAnalyzer, TimingReport

if TYPE_CHECKING:
    from .sidechannel import (
        LeakageReport,
        PowerTrace,
        PowerTraceSimulator,
        compare_leakage,
        correlation_attack,
        pearson,
    )
    from .variation import MonteCarloTiming, VariationModel, YieldReport

# Side-channel and process-variation studies run in no trial: they load
# on first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "LeakageReport": ".sidechannel",
        "PowerTrace": ".sidechannel",
        "PowerTraceSimulator": ".sidechannel",
        "compare_leakage": ".sidechannel",
        "correlation_attack": ".sidechannel",
        "pearson": ".sidechannel",
        "MonteCarloTiming": ".variation",
        "VariationModel": ".variation",
        "YieldReport": ".variation",
    },
)

__all__ = [
    "AreaAnalyzer",
    "AreaReport",
    "IOPath",
    "PathFinder",
    "PowerAnalyzer",
    "PowerReport",
    "estimate_activities",
    "signal_probabilities",
    "OverheadReport",
    "PpaAnalyzer",
    "PpaReport",
    "TimingAnalyzer",
    "TimingReport",
    "LeakageReport",
    "PowerTrace",
    "PowerTraceSimulator",
    "compare_leakage",
    "correlation_attack",
    "pearson",
    "MonteCarloTiming",
    "VariationModel",
    "YieldReport",
]

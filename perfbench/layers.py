"""Per-layer profile of a traced pass.

The program already opens spans around selection (``lock.*``), the
trial's analyses and attacks (``trial.*``, ``attack.*``), the simulator
(``sim.*``) and the CSR core (``netlist.csr.*``).  The layers it does not
span yet — circuit generation, the ``circuit_sha`` serialisation, STA,
power and its activity estimate, area and the CDCL solver — are
wrapped here, from the benchmark's side, in spans named
``bench.*``.  The hooks are installed only in traced passes, so untraced
passes time the program as it ships.

A layer's self time is the summed duration of its spans minus the part
of each covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
from typing import Dict, List

from repro.obs import Recorder, span

#: (module, attribute path, span name) of every call the benchmark wraps.
HOOKS = (
    ("repro.circuits", "load_benchmark", "bench.generate"),
    ("repro.sweep.runner", "circuit_sha", "bench.circuit_sha"),
    ("repro.analysis.sta", "TimingAnalyzer.analyze", "bench.sta"),
    ("repro.analysis.power", "PowerAnalyzer.power_overhead_pct", "bench.power"),
    ("repro.analysis.power", "estimate_activities", "bench.power.activity"),
    ("repro.analysis.area", "AreaAnalyzer.area_overhead_pct", "bench.area"),
    ("repro.sat.solver", "Solver.solve", "bench.sat.solve"),
)

#: Span name prefix -> layer: a span belongs to the first prefix equal to
#: its name or to a leading run of its dot-separated parts.  Spans
#: matching nothing land in ``other``.
LAYERS = (
    ("bench.generate", "gen"),
    ("bench.circuit_sha", "sha"),
    ("lock.paths", "paths"),
    ("lock.select", "select"),
    ("lock.replace", "replace"),
    ("lock.provision", "replace"),
    # lock.<algorithm>: the netlist copy and RNG set-up around the stages.
    ("lock", "lock"),
    ("bench.sta", "sta"),
    ("bench.power.activity", "activity"),
    ("bench.power", "power"),
    ("bench.area", "area"),
    ("trial.analysis.security", "security"),
    ("bench.sat", "sat"),
    ("sim.keybatch", "keybatch"),
    ("sim.codegen", "codegen"),
    ("netlist.csr", "csr"),
    ("attack", "attack"),
    ("trial.attack", "attack"),
    ("sweep", "sweep"),
    ("trial", "sweep"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS)) + ("other",)

#: Program counters reported per pass, under the metric name on the left.
COUNTERS = (
    ("sat_conflicts", "sat.solver_conflicts"),
    ("oracle_queries", "oracle.queries"),
    ("sim_evaluations", "sim.evaluations"),
    ("keybatch_lanes", "sim.keybatch.lanes_filled"),
    ("codegen_compiles", "sim.codegen_compiles"),
    ("csr_builds", "netlist.csr.builds"),
)


def _traced(function, name):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with span(name):
            return function(*args, **kwargs)

    return wrapper


def install_hooks() -> List[str]:
    """Wrap every :data:`HOOKS` target in a span; return the targets this
    version of the program no longer has (their layers then read 0)."""
    missing = []
    for module_name, path, name in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            setattr(owner, attr, _traced(getattr(owner, attr), name))
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
    return missing


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return "other"


def layer_self_seconds(recorder: Recorder) -> Dict[str, float]:
    """Self time per layer, summed over every span of the recorder."""
    child_time = [0.0] * len(recorder.spans)
    for record in recorder.spans:
        if record.parent is not None:
            child_time[record.parent] += record.duration
    totals = dict.fromkeys(LAYER_NAMES, 0.0)
    for record in recorder.spans:
        self_time = max(record.duration - child_time[record.index], 0.0)
        totals[layer_of(record.name)] += self_time
    return totals


def layer_counters(recorder: Recorder) -> Dict[str, int]:
    return {
        metric: int(recorder.counters.get(name, 0)) for metric, name in COUNTERS
    }

"""Simulation throughput: compiled kernels vs the per-gate reference.

Every attack in the package is simulation-bound — the brute-force sweep,
the testing-based justification search, and the ML hypothesis scoring all
sit in a loop around ``CombinationalSimulator.evaluate``.  This bench
measures patterns/second for the compiled program and for
``reference_evaluate`` (recorded under its old ``interpreted`` key)
across the ISCAS'89 suite and writes ``BENCH_sim.json`` so the speedup is
tracked over time.

Two workloads per circuit:

* ``word``  — width-64 packed evaluation (the fault/power analysis shape);
* ``attack`` — width-1 single-pattern evaluation on a LUT-locked netlist
  with a fresh simulator per call (the brute-force / testing-attack shape,
  which leans on the cross-simulator program cache).

Quick mode: ``REPRO_BENCH_MAX_GATES=3000`` skips the large circuits.

Run with ``pytest benchmarks/test_sim_throughput.py`` — the ``bench``
marker (and the ``testpaths`` setting) keeps this out of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict

import pytest

from repro.circuits import benchmark_suite
from repro.netlist import GateType, Netlist
from repro.netlist.transform import replace_gates_with_luts
from repro.sim import CombinationalSimulator, reference_evaluate

pytestmark = pytest.mark.bench

#: Minimum speedup the compiled kernels must deliver on the attack-shaped
#: workload (the ISSUE target); the word-parallel shape must at least not
#: regress below the same bar on the suite geomean.
TARGET_SPEEDUP = 5.0

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

#: Wall-clock budget per (circuit, engine, workload) measurement.
_BUDGET_S = 0.4

#: Engine name (as recorded in ``BENCH_sim.json``) -> netlist -> evaluate.
_ENGINES = {
    "interpreted": lambda netlist: partial(reference_evaluate, netlist),
    "compiled": lambda netlist: CombinationalSimulator(netlist).evaluate,
}


def _time_patterns(evaluate_factory, inputs, state, width) -> float:
    """Patterns/second for repeated evaluate calls within the budget."""
    evaluate_factory()(inputs, state, width)  # warm-up: compile + prime caches
    iterations = 0
    start = time.perf_counter()
    while time.perf_counter() - start < _BUDGET_S:
        evaluate_factory()(inputs, state, width)
        iterations += 1
    elapsed = time.perf_counter() - start
    return width * iterations / elapsed


def _lock(netlist: Netlist, count: int, rng: random.Random) -> Netlist:
    gates = [
        g
        for g in netlist.gates
        if netlist.node(g).is_combinational
        and not netlist.node(g).is_lut
        and netlist.node(g).gate_type
        not in (GateType.CONST0, GateType.CONST1)
    ]
    picked = rng.sample(gates, min(count, len(gates)))
    replace_gates_with_luts(netlist, picked, program=True)
    return netlist


def _geomean(values) -> float:
    values = list(values)
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def test_sim_throughput():
    max_gates = int(os.environ.get("REPRO_BENCH_MAX_GATES", "0"))
    rng = random.Random(2016)
    circuits = benchmark_suite(seed=2016, max_gates=max_gates)
    report: Dict[str, Dict[str, float]] = {}
    for netlist in circuits:
        print(
            f"[sim-bench] {netlist.name} ({len(netlist.gates)} gates)...",
            file=sys.stderr,
            flush=True,
        )
        _lock(netlist, count=8, rng=rng)
        entry: Dict[str, float] = {"gates": len(netlist.gates)}

        # Word-parallel shape: one long-lived simulator, width-64 words.
        width = 64
        inputs = {pi: rng.getrandbits(width) for pi in netlist.inputs}
        state = {ff: rng.getrandbits(width) for ff in netlist.flip_flops}
        for engine, make in _ENGINES.items():
            evaluate = make(netlist)
            entry[f"word_{engine}_pps"] = _time_patterns(
                lambda evaluate=evaluate: evaluate, inputs, state, width
            )
        entry["word_speedup"] = (
            entry["word_compiled_pps"] / entry["word_interpreted_pps"]
        )

        # Attack shape: width-1, fresh simulator per evaluate (the
        # testing-attack justification idiom — exercises the program cache).
        inputs1 = {pi: rng.getrandbits(1) for pi in netlist.inputs}
        state1 = {ff: rng.getrandbits(1) for ff in netlist.flip_flops}
        for engine, make in _ENGINES.items():
            entry[f"attack_{engine}_pps"] = _time_patterns(
                partial(make, netlist), inputs1, state1, 1
            )
        entry["attack_speedup"] = (
            entry["attack_compiled_pps"] / entry["attack_interpreted_pps"]
        )
        report[netlist.name] = entry
        print(
            f"[sim-bench]   word {entry['word_speedup']:.1f}x  "
            f"attack {entry['attack_speedup']:.1f}x",
            file=sys.stderr,
            flush=True,
        )

    summary = {
        "target_speedup": TARGET_SPEEDUP,
        "word_speedup_geomean": _geomean(
            e["word_speedup"] for e in report.values()
        ),
        "attack_speedup_geomean": _geomean(
            e["attack_speedup"] for e in report.values()
        ),
    }
    _RESULT_PATH.write_text(
        json.dumps({"summary": summary, "circuits": report}, indent=2) + "\n"
    )
    print(f"[sim-bench] wrote {_RESULT_PATH}", file=sys.stderr, flush=True)

    assert summary["attack_speedup_geomean"] >= TARGET_SPEEDUP
    assert summary["word_speedup_geomean"] >= TARGET_SPEEDUP

"""Key-parallel screening throughput: 64 config lanes vs one lane.

The brute-force and ML attacks spend their time asking the same question
for thousands of candidate keys: "does this LUT configuration reproduce
the recorded oracle responses?".  PR 1 packed *patterns* into machine
words; this bench measures the orthogonal axis added by
``repro.sim.keybatch`` — packing candidate *configurations* into word
lanes so one compiled pass screens 64+ keys at once.

Workload per circuit: lock four two-input gates (6 candidate
configurations each → a 1296-key hypothesis space), record 16 oracle
response patterns untimed, then measure hypotheses screened per second
through ``screen_hypotheses`` at ``batch_width=1`` (one lane per compiled
pass) and ``batch_width=64``.  Both widths return bit-identical survivor
sets — ``repro check --checks keybatch`` races both against a per-key
reference — so the ratio is pure throughput.

Writes ``BENCH_keysim.json``; the suite geomean must stay above
``TARGET_SPEEDUP``.

Quick mode: ``REPRO_BENCH_MAX_GATES=3000`` skips the large circuits.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.attacks import ConfiguredOracle, candidate_configs
from repro.circuits import benchmark_suite
from repro.lut import HybridMapper
from repro.netlist import GateType, Netlist
from repro.sim.keybatch import iter_hypotheses, screen_hypotheses

pytestmark = pytest.mark.bench

#: Minimum hypotheses/second speedup of batch_width=64 over one lane
#: (suite geomean); 5x is the floor.
TARGET_SPEEDUP = 5.0

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_keysim.json"

#: Wall-clock budget per (circuit, batch_width) measurement.
_BUDGET_S = 0.4

#: Locked gates per circuit; 4 two-input LUTs * 6 candidate configs each
#: = 1296 hypotheses, enough to fill 64-lane batches twenty times over.
_N_LOCKED = 4

#: Hypotheses per one-lane screen call.  One lane runs a compiled pass
#: per key, so one full 1296-key pass would blow the budget on the big
#: circuits; capping the call keeps the rate measurement fair (rate =
#: tested / elapsed either way).
_ONE_LANE_CAP = 24


def _lock_two_input_gates(netlist: Netlist, rng: random.Random):
    candidates = [
        g
        for g in netlist.gates
        if netlist.node(g).is_combinational
        and not netlist.node(g).is_lut
        and netlist.node(g).n_inputs == 2
        and netlist.node(g).gate_type
        not in (GateType.CONST0, GateType.CONST1)
    ]
    picked = rng.sample(candidates, min(_N_LOCKED, len(candidates)))
    mapper = HybridMapper(rng=rng)
    hybrid = netlist.copy(netlist.name + "_locked")
    mapper.replace(hybrid, picked)
    foundry = mapper.strip_configs(hybrid)
    return hybrid, foundry


def _screen_rate(
    foundry: Netlist,
    luts: List[str],
    spaces: List[List[int]],
    patterns,
    responses,
    points,
    batch_width: int,
    cap: int,
) -> float:
    """Hypotheses screened per second within the time budget."""
    working = foundry.copy(foundry.name + f"_w{batch_width}")
    screen_hypotheses(  # warm-up: compile kernels, prime program cache
        working,
        iter_hypotheses(luts, spaces),
        patterns,
        responses,
        points,
        batch_width=batch_width,
        max_hypotheses=min(cap, batch_width),
    )
    tested = 0
    start = time.perf_counter()
    while time.perf_counter() - start < _BUDGET_S:
        outcome = screen_hypotheses(
            working,
            iter_hypotheses(luts, spaces),
            patterns,
            responses,
            points,
            batch_width=batch_width,
            max_hypotheses=cap,
        )
        tested += outcome.tested
    elapsed = time.perf_counter() - start
    return tested / elapsed


def _geomean(values) -> float:
    values = list(values)
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def test_keysim_throughput():
    max_gates = int(os.environ.get("REPRO_BENCH_MAX_GATES", "0"))
    rng = random.Random(2016)
    circuits = benchmark_suite(seed=2016, max_gates=max_gates)
    report: Dict[str, Dict[str, float]] = {}
    for netlist in circuits:
        print(
            f"[keysim-bench] {netlist.name} ({len(netlist.gates)} gates)...",
            file=sys.stderr,
            flush=True,
        )
        hybrid, foundry = _lock_two_input_gates(netlist, rng)
        luts = sorted(foundry.luts)
        spaces = [candidate_configs(foundry.node(n).n_inputs) for n in luts]
        total = 1
        for space in spaces:
            total *= len(space)

        # Record the oracle responses untimed — both widths replay the
        # same recorded bill, so query cost is not part of the ratio.
        oracle = ConfiguredOracle(hybrid, scan=True)
        startpoints = list(foundry.inputs) + list(foundry.flip_flops)
        patterns = [
            {sp: rng.getrandbits(1) for sp in startpoints} for _ in range(16)
        ]
        responses = [
            oracle.query(
                {pi: p.get(pi, 0) for pi in foundry.inputs},
                {ff: p.get(ff, 0) for ff in foundry.flip_flops},
            )
            for p in patterns
        ]
        points = oracle.observation_points()

        one_lane = _screen_rate(
            foundry, luts, spaces, patterns, responses, points,
            batch_width=1, cap=_ONE_LANE_CAP,
        )
        batched = _screen_rate(
            foundry, luts, spaces, patterns, responses, points,
            batch_width=64, cap=total,
        )
        entry = {
            "gates": len(netlist.gates),
            "luts": len(luts),
            "hypothesis_space": total,
            "one_lane_hps": one_lane,
            "batched_hps": batched,
            "speedup": batched / one_lane,
        }
        report[netlist.name] = entry
        print(
            f"[keysim-bench]   one lane {one_lane:.0f}/s  "
            f"batched {batched:.0f}/s  {entry['speedup']:.1f}x",
            file=sys.stderr,
            flush=True,
        )

    summary = {
        "target_speedup": TARGET_SPEEDUP,
        "batch_width": 64,
        "speedup_geomean": _geomean(e["speedup"] for e in report.values()),
    }
    _RESULT_PATH.write_text(
        json.dumps({"summary": summary, "circuits": report}, indent=2) + "\n"
    )
    print(f"[keysim-bench] wrote {_RESULT_PATH}", file=sys.stderr, flush=True)

    assert summary["speedup_geomean"] >= TARGET_SPEEDUP

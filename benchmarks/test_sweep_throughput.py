"""Sweep engine throughput: serial vs. parallel vs. warm result cache.

PR 1 made a single trial fast; the remaining evaluation wall-clock is
fan-out (the Table I/II/Fig. 3 grid is embarrassingly parallel) plus
redundant recomputation across sessions (unchanged trials re-run every
time).  This bench measures both fixes on the Table I grid — every suite
circuit × {independent, dependent, parametric} — and writes
``BENCH_sweep.json`` so the speedups are tracked over time:

* ``serial``   — ``workers=1``, cold cache (the pre-sweep baseline);
* ``parallel`` — ``workers=N``, cold cache (pure fan-out win);
* ``warm``     — ``workers=N``, second run against the same cache (every
  trial served from disk).

Targets: ≥ 3× parallel speedup on a ≥ 4-core runner (asserted only when
the cores exist — fan-out cannot beat physics on a 1-core box, where the
measurement is still recorded), and a warm re-run in < 10 % of the cold
serial time on any machine.  The three runs must also agree row-for-row
(the engine's determinism guarantee, asserted here end-to-end).

Quick mode: ``REPRO_BENCH_MAX_GATES=3000`` skips the large circuits.
``REPRO_BENCH_SWEEP_WORKERS`` overrides the parallel worker count.

Run with ``pytest benchmarks/test_sweep_throughput.py`` — the ``bench``
marker (and the ``testpaths`` setting) keeps this out of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.sweep import SweepSpec, load_circuit, run_sweep

from conftest import ALGORITHM_ORDER, suite_circuits

pytestmark = pytest.mark.bench

#: Required parallel speedup over serial (asserted on ≥ 4-core runners).
TARGET_PARALLEL_SPEEDUP = 3.0

#: Warm-cache re-run must finish within this fraction of cold serial time.
WARM_TARGET_FRACTION = 0.10

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def test_sweep_throughput(tmp_path):
    max_gates = int(os.environ.get("REPRO_BENCH_MAX_GATES", "0"))
    cpu_count = os.cpu_count() or 1
    workers = int(
        os.environ.get("REPRO_BENCH_SWEEP_WORKERS", "0")
    ) or min(cpu_count, 4)
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2016"))
    circuits = suite_circuits(max_gates)
    spec = SweepSpec(
        circuits=circuits,
        algorithms=ALGORITHM_ORDER,
        seeds=(seed,),
        analyses=("ppa", "security"),
        gen_seed=seed,
    )
    # Generate every circuit up front so netlist construction is excluded
    # from all three measurements (fork-started workers inherit the memo).
    for name in circuits:
        load_circuit(name, seed)

    def announce(label: str, stats) -> None:
        print(
            f"[sweep-bench] {label}: {stats.summary()}",
            file=sys.stderr,
            flush=True,
        )

    serial = run_sweep(spec, workers=1, cache_dir=tmp_path / "serial-cache")
    announce("serial  ", serial.stats)
    parallel = run_sweep(
        spec, workers=workers, cache_dir=tmp_path / "parallel-cache"
    )
    announce("parallel", parallel.stats)
    warm = run_sweep(
        spec, workers=workers, cache_dir=tmp_path / "parallel-cache"
    )
    announce("warm    ", warm.stats)

    # The engine's core guarantee, end-to-end on the real grid: worker
    # count and cache provenance never change a result row.
    assert serial.canonical_rows() == parallel.canonical_rows()
    assert serial.canonical_rows() == warm.canonical_rows()
    assert not serial.failed_rows()
    assert warm.stats.cached == warm.stats.total

    serial_s = serial.stats.wall_seconds
    parallel_s = parallel.stats.wall_seconds
    warm_s = warm.stats.wall_seconds
    summary = {
        "n_circuits": len(circuits),
        "n_trials": serial.stats.total,
        "cpu_count": cpu_count,
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "warm_s": warm_s,
        "parallel_speedup": serial_s / parallel_s,
        "warm_fraction_of_serial": warm_s / serial_s,
        "target_parallel_speedup": TARGET_PARALLEL_SPEEDUP,
        "warm_target_fraction": WARM_TARGET_FRACTION,
    }
    trials = {
        f"{row['trial']['circuit']}/{row['trial']['algorithm']}": round(
            row["timing"]["select_seconds"], 4
        )
        for row in serial.rows
    }
    _RESULT_PATH.write_text(
        json.dumps({"summary": summary, "trials": trials}, indent=2) + "\n"
    )
    print(f"[sweep-bench] wrote {_RESULT_PATH}", file=sys.stderr, flush=True)

    assert warm_s < WARM_TARGET_FRACTION * serial_s, summary
    if cpu_count >= 4:
        assert (
            summary["parallel_speedup"] >= TARGET_PARALLEL_SPEEDUP
        ), summary


def test_backend_comparison(tmp_path):
    """The two executors head-to-head on a reduced grid: inline serial vs
    lease workers over the result cache, identity asserted, timings merged
    into ``BENCH_sweep.json`` under ``backends`` (informational — on a
    1-core box the lease workers pay pure overhead)."""
    from repro.sweep import SweepRunner

    max_gates = int(os.environ.get("REPRO_BENCH_MAX_GATES", "0"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2016"))
    workers = max(2, min(os.cpu_count() or 1, 4))
    circuits = suite_circuits(max_gates)[:2]
    spec = SweepSpec(
        circuits=circuits,
        algorithms=ALGORITHM_ORDER,
        seeds=(seed, seed + 1),
        analyses=("ppa", "security"),
        gen_seed=seed,
    )
    for name in circuits:
        load_circuit(name, seed)

    serial = run_sweep(spec, workers=1)
    runner = SweepRunner(workers=workers, cache_dir=tmp_path / "lease")
    leased = runner.run(spec)
    for label, result in (("serial", serial), ("lease-workers", leased)):
        print(
            f"[sweep-bench] {label}: {result.stats.summary()}",
            file=sys.stderr,
            flush=True,
        )
        assert not result.failed_rows(), label
    assert (
        leased.canonical_rows() == serial.canonical_rows()
    ), "lease-worker rows diverge from serial"

    claims = runner.last_job.claims()
    assert len(claims) == leased.stats.total
    assert len({c["key"] for c in claims}) == len(claims)

    document = (
        json.loads(_RESULT_PATH.read_text())
        if _RESULT_PATH.exists()
        else {}
    )
    document["backends"] = {
        "n_trials": serial.stats.total,
        "workers": workers,
        "identical_rows": True,
        "work_stealing_claims": len(claims),
        "serial_s": round(serial.stats.wall_seconds, 4),
        "work_stealing_s": round(leased.stats.wall_seconds, 4),
    }
    _RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(
        f"[sweep-bench] backends section -> {_RESULT_PATH}",
        file=sys.stderr,
        flush=True,
    )

"""Seed-variance bench.

"It should be noted that as the selection of timing paths and gates is
performed randomly, we observe that there is slightly larger overhead for a
larger circuit in some cases ..." — Section V explains Table I's
non-monotonic cells by selection randomness.  This bench measures that
variance directly — one circuit, many seeds, mean ± spread per metric —
with the grid fanned out through the sweep engine (each (algorithm, seed)
cell is one independent trial, so the whole study parallelises)."""

from __future__ import annotations

import statistics

import pytest

from repro.sweep import SweepSpec, group_rows, render_table, run_sweep

from conftest import bench_workers

SEEDS = tuple(range(8))
CIRCUIT = "s1196"


def test_seed_variance(benchmark):
    spec = SweepSpec(
        circuits=(CIRCUIT,),
        algorithms=("independent", "dependent", "parametric"),
        seeds=SEEDS,
        analyses=("ppa",),
    )

    def sweep():
        result = run_sweep(spec, workers=bench_workers())
        assert not result.failed_rows(), result.failed_rows()
        stats = {}
        for (algorithm,), rows in group_rows(
            result.ok_rows(), by=("algorithm",)
        ).items():
            overheads = [row["metrics"]["overhead"] for row in rows]
            stats[algorithm] = (
                [o["performance_degradation_pct"] for o in overheads],
                [o["power_overhead_pct"] for o in overheads],
                [o["area_overhead_pct"] for o in overheads],
                [o["n_stt"] for o in overheads],
            )
        return stats, result.ok_rows()

    stats, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            rows,
            by=("algorithm",),
            title=f"selection randomness across {len(SEEDS)} seeds ({CIRCUIT}), μ±σ",
        )
    )

    # Invariants that must hold for *every* seed:
    for algorithm, (perf, power, area, counts) in stats.items():
        for seed_index in range(len(SEEDS)):
            assert area[seed_index] > 0
            assert power[seed_index] > 0
        if algorithm == "independent":
            assert all(c == 5 for c in counts)
        if algorithm == "parametric":
            assert all(p <= 8.0 + 1e-6 for p in perf)
    # Dependent's delay impact dominates on average, across seeds.
    assert statistics.mean(stats["dependent"][0]) >= statistics.mean(
        stats["parametric"][0]
    )

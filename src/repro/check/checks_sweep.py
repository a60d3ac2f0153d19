"""Sweep-engine differential check.

The sweep engine promises that a grid's canonical rows are independent of
*how* they were computed: inline execution, lease workers claiming trials
through cache leases, and warm-cache replay must be bit-identical (the
determinism contract of :mod:`repro.sweep.runner`).  Each round builds a
small grid over the circuit under check and runs it every way.
"""

from __future__ import annotations

import tempfile
from collections import Counter

from ..sweep.runner import SweepRunner, run_sweep
from ..sweep.spec import SweepSpec
from .core import CheckContext, register


@register(
    name="sweep-modes-identical",
    family="sweep",
    description="serial, lease-worker and warm-cache executions of one "
    "SweepSpec must produce bit-identical canonical rows, with every "
    "lease-worker trial executed exactly once (lease accounting)",
    trial_divisor=12,
)
def sweep_modes_identical(ctx: CheckContext) -> None:
    for round_no in range(ctx.trials):
        grid_seed = ctx.rng.randrange(1 << 16)
        spec = SweepSpec(
            circuits=[ctx.circuit],
            algorithms=["independent", "dependent", "parametric"],
            seeds=[grid_seed],
            attacks=["none"],
            analyses=["ppa", "security"],
            gen_seed=ctx.gen_seed,
        )
        serial = run_sweep(spec, workers=1)
        with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
            runner = SweepRunner(workers=2, cache_dir=tmp)
            leased = runner.run(spec)
            claims = runner.last_job.claims() if runner.last_job else []
            warm = run_sweep(spec, workers=1, cache_dir=tmp)
        where = {"round": round_no, "grid_seed": grid_seed}
        ctx.compare(
            "sweep rows (serial vs lease workers)",
            serial.canonical_rows(),
            leased.canonical_rows(),
            **where,
        )
        ctx.compare(
            "sweep rows (serial vs warm cache)",
            serial.canonical_rows(),
            warm.canonical_rows(),
            **where,
        )
        # Failed rows are never cached, so a warm re-run retries them.
        failed = len(serial.failed_rows())
        ctx.require(
            "warm re-run is fully cache-served",
            warm.stats.cached == warm.stats.total - failed
            and warm.stats.executed == failed,
            f"warm re-run executed {warm.stats.executed} of "
            f"{warm.stats.total} trials instead of serving them from cache",
            **where,
        )
        # Lease accounting: every claim records one *execution*; a trial
        # claimed twice means the lease protocol let two workers run it.
        claim_counts = Counter(claim["key"] for claim in claims)
        doubled = {k: n for k, n in claim_counts.items() if n > 1}
        ctx.require(
            "no trial executed twice by lease workers",
            not doubled,
            f"{len(doubled)} trial(s) executed more than once: "
            f"{sorted(doubled.values(), reverse=True)[:4]}",
            **where,
        )
        ctx.require(
            "claim count matches executed count",
            len(claims) == leased.stats.executed == leased.stats.total,
            f"{len(claims)} claims for {leased.stats.executed} executed "
            f"of {leased.stats.total} trials",
            **where,
        )

"""One cold pass of a benchmark grid, run in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays circuit
generation, analyzer construction and kernel compilation again, exactly
as a user's ``repro-lock sweep`` invocation does::

    python3 perfbench/grid_pass.py --workload paper --seed 7 --pass 0 [--trace]
    python3 perfbench/grid_pass.py --import-only

Pass *k* of a run sweeps the workload's grid over selection seeds derived
from ``(seed, k)``, so a run covers many distinct seeds.  The last line of
standard output is one JSON object describing the pass: its wall time
and every trial's latency, both scaled to host-speed-normalised seconds
(``reference.py``), and the invariants the rows broke.  With ``--trace``
it also carries per-layer self times, unscaled, and counters taken from
the span tree.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import Recorder, Stopwatch, use_recorder  # noqa: E402
from repro.sweep import (  # noqa: E402
    SweepRunner,
    SweepSpec,
    Trial,
    canonical_row,
    derive_seed,
    run_trial,
)

import layers  # noqa: E402
import reference  # noqa: E402

ALGORITHMS = ("independent", "dependent", "parametric")

#: Dependent selection raises when the sampled I/O path holds no
#: combinational gate, which some selection seeds hit on s27; the
#: fallback locks the deepest combinational chain instead, so no trial of
#: either grid fails.
ALGORITHM_PARAMS = {"dependent": {"on_degenerate": "fallback"}}

#: The Table I circuits up to ~700 gates: the paper grid minus the five
#: circuits whose single trials take seconds, so that one run covers
#: enough selection seeds for its cost to settle.
PAPER_CIRCUITS = ("s641", "s820", "s832", "s953", "s1196", "s1238", "s1488")

#: Every attack of the sweep engine.  The attack grid runs on the genuine
#: ISCAS s27, the only circuit on which all four terminate within a
#: fraction of a second.  The ML attack uses its key-parallel annealer:
#: a serial trial costs 0.1 s or 6 s depending on whether its chain
#: converges, a parallel one at most about 0.5 s.
ATTACKS = ("testing", "brute", "sat", "ml")
ATTACK_PARAMS = {"ml": {"batch_width": 64}}

#: Selection seeds per pass: enough that the interpreter start-up between
#: passes stays a small share of a run.  A run's cost figures swing with
#: the seeds it draws (an ML trial that does not converge costs several
#: times one that does), so a run needs as many grids as fit.
SEEDS_PER_PASS = {"paper": 3, "attack": 16}

WORKLOADS = tuple(SEEDS_PER_PASS)

#: Sweep time between two reference slices: short enough to follow the
#: host's speed swings, long enough that slices cost ~5 % of a pass.
SEGMENT_S = 0.2


def make_spec(workload: str, seed: int, pass_index: int) -> SweepSpec:
    """The grid pass *pass_index* of *workload* runs; a pure function of
    its arguments."""
    seeds = [
        derive_seed("perfbench", workload, seed, pass_index, i) % (1 << 31)
        for i in range(SEEDS_PER_PASS[workload])
    ]
    if workload == "paper":
        return SweepSpec(
            circuits=PAPER_CIRCUITS,
            algorithms=ALGORITHMS,
            seeds=seeds,
            analyses=("ppa", "security"),
            algorithm_params=ALGORITHM_PARAMS,
        )
    return SweepSpec(
        circuits=("s27",),
        algorithms=ALGORITHMS,
        seeds=seeds,
        attacks=ATTACKS,
        analyses=(),
        algorithm_params=ALGORITHM_PARAMS,
        attack_params=ATTACK_PARAMS,
    )


def row_violations(row: dict) -> list:
    """Invariants every row must satisfy; returns what it breaks."""
    trial = row["trial"]
    label = f"{trial['circuit']}/{trial['algorithm']}/s{trial['seed']}/{trial['attack']}"
    if row.get("status") != "ok":
        return [f"{label}: {row.get('error')}"]
    metrics = row["metrics"]
    bad = []
    # Parametric selection replaces nothing when path discovery samples no
    # I/O path, which happens on s27 for some seeds.
    if metrics["n_stt"] != len(metrics["replaced"]):
        bad.append(f"{label}: n_stt {metrics['n_stt']} vs replaced")
    if (metrics["key_bits"] > 0) != (metrics["n_stt"] > 0):
        bad.append(f"{label}: {metrics['key_bits']} key bits")
    if trial["algorithm"] == "independent" and metrics["n_stt"] != 5:
        bad.append(f"{label}: independent selection replaced {metrics['n_stt']}")
    overhead = metrics.get("overhead")
    if overhead is not None:
        values = (
            overhead["performance_degradation_pct"],
            overhead["power_overhead_pct"],
            overhead["area_overhead_pct"],
        )
        # A LUT can draw less power than the gate it replaces, so only
        # finiteness holds for every row.
        if not all(math.isfinite(v) for v in values):
            bad.append(f"{label}: overhead {values}")
        if overhead["n_stt"] != metrics["n_stt"]:
            bad.append(f"{label}: overhead counts {overhead['n_stt']} LUTs")
    security = metrics.get("security")
    if security is not None and security["n_missing"] != metrics["n_stt"]:
        bad.append(f"{label}: security counts {security['n_missing']} missing")
    attack = metrics.get("attack")
    if trial["attack"] != "none":
        if attack is None or attack["attack"] != trial["attack"]:
            bad.append(f"{label}: no attack result")
        elif attack["attack"] == "sat" and not (
            attack["success"] and attack.get("key_verified")
        ):
            # With scan access the SAT attack always recovers a working
            # key on s27.
            bad.append(f"{label}: SAT attack found no verified key")
        elif attack["attack"] == "brute" and not attack["success"] and (
            attack["exhausted_budget"]
            or attack["hypotheses_tested"] != attack["hypotheses_total"]
        ):
            # s27's key space fits the budget, so the screen must try every
            # key.  A miss after that is an honest outcome: random confirm
            # patterns left several distinguishable keys standing.
            bad.append(
                f"{label}: brute force tried {attack['hypotheses_tested']} of "
                f"{attack['hypotheses_total']} keys"
            )
    return bad


def replay_violations(rows: list) -> list:
    """Re-run the first and last trial in this now-warm process: a trial's
    row must not depend on what ran before it or on which caches are
    warm."""
    bad = []
    for row in (rows[0], rows[-1]):
        again = run_trial(Trial.from_identity(row["trial"]))
        if canonical_row(again) != canonical_row(row):
            bad.append(f"{row['trial']}: replay differs from the sweep row")
    return bad


def run_pass(workload: str, seed: int, pass_index: int, trace: bool) -> dict:
    """Sweep the pass's grid one trial at a time, timing a reference slice
    whenever ``SEGMENT_S`` of sweep time has gone by since the last one.
    Each segment's times are scaled by ``reference.NOMINAL_S`` over the
    mean of the slices on either side of it."""
    spec = make_spec(workload, seed, pass_index)
    recorder = Recorder() if trace else None
    if trace:
        missing = layers.install_hooks()
    rows, trial_s = [], []
    pass_s = raw_s = segment_s = 0.0
    segment_trials = []
    before = reference.slice_seconds()
    with use_recorder(recorder):
        # The serial backend runs one trial per step; the first step also
        # resolves every trial's circuit.
        stream = SweepRunner(workers=1).stream(spec)
        while True:
            clock = Stopwatch()
            item = next(stream, None)
            segment_s += clock.elapsed()
            if item is not None:
                rows.append(item[1])
                segment_trials.append(item[1]["timing"]["trial_seconds"])
            if item is None or segment_s >= SEGMENT_S:
                after = reference.slice_seconds()
                scale = reference.NOMINAL_S / ((before + after) / 2)
                pass_s += segment_s * scale
                raw_s += segment_s
                trial_s += [t * scale for t in segment_trials]
                before, segment_s, segment_trials = after, 0.0, []
            if item is None:
                break
    violations = [row_violations(r) for r in rows]
    out = {
        "pass_s": pass_s,
        "scale": pass_s / raw_s,
        "grids": len(spec.seeds),
        "trial_s": trial_s,
        "rows": len(rows),
        "expected_rows": len(spec.trials()),
        "bad_rows": sum(1 for v in violations if v),
        "violations": [line for v in violations for line in v]
        + replay_violations(rows),
    }
    if trace:
        out["layers"] = layers.layer_self_seconds(recorder)
        out["counters"] = layers.layer_counters(recorder)
        out["missing_hooks"] = missing
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--import-only",
        action="store_true",
        help="stop after importing the package (measures set-up)",
    )
    args = parser.parse_args()
    if args.import_only:
        # Everything a trial imports lazily on first use.
        for module in ("repro.locking", "repro.analysis", "repro.attacks"):
            importlib.import_module(module)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run_pass(args.workload, args.seed, args.pass_index, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

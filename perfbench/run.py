"""End-to-end benchmark of the paper grid and the attack grid.

    python3 perfbench/run.py --workload {paper,attack} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``, so there is nothing to build.  A run:

1. with ``--trace 0``, times ``SETUP_SAMPLES`` fresh interpreters
   importing the package, after one untimed warm-up: the set-up every
   sweep pays before its first trial.  The samples are taken together,
   before the first pass, so every run takes the same number;
2. then, until ``--seconds`` have passed and at least ``MIN_PASSES``
   passes are done, repeats one cold pass of the workload's grid in a
   fresh interpreter (``grid_pass.py``), each pass on its own selection
   seeds.  A pass is a closed loop: one serial sweep, each trial
   starting when the previous one ends.

Every time is scaled by a host-speed reference timed next to it: trial
times by the slice, set-up by the interpreter start (see
``reference.py`` for why).  The run checks every row against its
invariants and replays trials to check that rows do not depend on
process state, then prints
one JSON line: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer self times and counters of traced passes.

Workloads (``grid_pass.make_spec``): ``paper`` is the Table I grid of the
seven small circuits x three selection algorithms, with PPA and security
analysis; ``attack`` is s27 x three algorithms x the four attacks.  A
*grid* is one selection seed's worth of a workload's trials; ``grid_s``
is the wall time per grid over the whole run, and every per-layer figure
is per grid too.  Trial cost depends on the gates a seed selects, so a
run covers many seeds and reports their pooled figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_SCRIPT = HERE / "grid_pass.py"

WORKLOADS = ("paper", "attack")
SETUP_SAMPLES = 7
MIN_PASSES = 3
#: A pass normally takes a few seconds; this only stops a hung one.
PASS_TIMEOUT_S = 120


class PassError(RuntimeError):
    pass


def run_child(script: Path, args: List[str]) -> str:
    # Children never write the bytecode cache, whatever the caller's
    # environment says: set-up then reads the same in every fresh
    # checkout (importing the package from source, as the first sweep
    # after a checkout does), and the run writes nothing.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, str(script), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{script.name} {args} timed out after {exc.timeout}s") from None
    if done.returncode != 0:
        raise PassError(
            f"{script.name} {args} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return done.stdout


def time_setup() -> float:
    start = time.monotonic()
    run_child(PASS_SCRIPT, ["--import-only"])
    return time.monotonic() - start


def scaled_setup() -> List[float]:
    """``SETUP_SAMPLES`` set-up samples after an untimed warm-up, each
    scaled by the interpreter-start reference timed on either side of
    it."""
    time_setup()
    samples = []
    before = reference.start_seconds()
    for _ in range(SETUP_SAMPLES):
        setup = time_setup()
        after = reference.start_seconds()
        samples.append(setup * reference.START_NOMINAL_S / ((before + after) / 2))
        before = after
    return samples


def run_passes(workload: str, seed: int, deadline: float, trace: bool) -> List[dict]:
    """Run passes until the deadline (a ``time.monotonic()`` value)."""
    passes: List[dict] = []
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        args = ["--workload", workload, "--seed", str(seed), "--pass", str(len(passes))]
        if trace:
            args.append("--trace")
        result = json.loads(run_child(PASS_SCRIPT, args).strip().splitlines()[-1])
        print(
            f"perfbench: {workload} pass {len(passes)}: "
            f"{result['pass_s']:.3f}s for {result['rows']} trials, "
            f"scaled by {result['scale']:.3f}",
            file=sys.stderr,
        )
        passes.append(result)
    return passes


def check(passes: List[dict]) -> bool:
    """True when every pass ran its full grid and nothing broke an
    invariant."""
    ok = True
    for index, result in enumerate(passes):
        for violation in result["violations"][:10]:
            print(f"perfbench: pass {index}: {violation}", file=sys.stderr)
        if result["violations"] or result["rows"] != result["expected_rows"]:
            ok = False
    for target in passes[0].get("missing_hooks", ()):
        print(f"perfbench: no hook target {target}; its layer reads 0", file=sys.stderr)
    return ok


def end_to_end_metrics(passes: List[dict], setup: List[float]) -> Dict[str, dict]:
    grids = sum(r["grids"] for r in passes)
    trials = [t for r in passes for t in r["trial_s"]]
    return {
        "grid_s": {
            "value": sum(r["pass_s"] for r in passes) / grids,
            "unit": "s",
        },
        "trial_p50_ms": {"value": statistics.median(trials) * 1e3, "unit": "ms"},
        "trial_p90_ms": {
            "value": statistics.quantiles(trials, n=10)[8] * 1e3,
            "unit": "ms",
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def per_layer_metrics(passes: List[dict]) -> Dict[str, dict]:
    grids = sum(r["grids"] for r in passes)
    metrics = {
        "traced_grid_s": {
            "value": sum(r["pass_s"] for r in passes) / grids,
            "unit": "s",
        }
    }
    for layer in passes[0]["layers"]:
        metrics[f"{layer}_s"] = {
            "value": sum(r["layers"][layer] * r["scale"] for r in passes) / grids,
            "unit": "s",
        }
    for counter in passes[0]["counters"]:
        metrics[counter] = {
            "value": sum(r["counters"][counter] for r in passes) / grids,
            "unit": "count",
        }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = [] if args.trace else scaled_setup()
        deadline = time.monotonic() + args.seconds
        passes = run_passes(args.workload, args.seed, deadline, bool(args.trace))
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(passes, setup)
    print(
        json.dumps(
            {
                "correct": check(passes),
                "attempted": sum(r["rows"] for r in passes),
                "failed": sum(r["bad_rows"] for r in passes),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

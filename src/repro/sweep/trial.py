"""Execution of one sweep trial, with per-process warm caches.

A trial is: load the circuit → run the selection algorithm → run the
requested analyses → optionally run an attack against the provisioned
oracle → emit one JSON row.  This module is what a lease worker imports;
all of its state is module-level so that a worker executing many trials
pays the expensive setup once:

* ``_NETLIST_MEMO`` — each circuit is generated/parsed once per process;
  the netlist instance stays alive, which keeps its memoized structural
  views (:mod:`repro.netlist.cache`) and compiled simulation kernel
  (:mod:`repro.sim.compiled`) warm across trials of the same circuit;
* ``_ANALYZERS`` — the PPA/security analyzers (and their technology
  libraries) are built once per process.

Rows are plain JSON.  Wall-clock measurements live under the ``timing``
key **only**; :func:`canonical_row` strips them, and everything it keeps
is a pure function of the trial identity + netlist content — the
determinism the runner's serial/parallel equivalence guarantee and the
result cache both rest on.
"""

from __future__ import annotations

import traceback
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..netlist import bench_io
from ..netlist.netlist import Netlist
from ..obs import Recorder, Stopwatch, span, use_recorder
from .cache import RESULT_SCHEMA, netlist_sha
from .spec import Trial

_NETLIST_MEMO: Dict[Tuple[str, int], Netlist] = {}
_SHA_MEMO: Dict[Tuple[str, int], str] = {}
_ANALYZERS: Dict[str, Any] = {}


def load_circuit(circuit: str, gen_seed: int = 2016) -> Netlist:
    """Resolve a trial's circuit reference (memoized per process).

    *circuit* is either a path to a ``.bench`` file or the name of a
    bundled benchmark (``s27`` … ``s38584``); *gen_seed* feeds the
    synthetic-benchmark generator and is ignored for files.
    """
    memo_key = (circuit, gen_seed)
    netlist = _NETLIST_MEMO.get(memo_key)
    if netlist is None:
        path = Path(circuit)
        if path.exists():
            netlist = bench_io.load(path)
        else:
            from ..circuits import PAPER_BENCHMARK_ORDER, load_benchmark

            if circuit not in PAPER_BENCHMARK_ORDER and circuit != "s27":
                raise ValueError(
                    f"{circuit!r} is neither a file nor a known benchmark"
                )
            netlist = load_benchmark(circuit, seed=gen_seed)
        _NETLIST_MEMO[memo_key] = netlist
    return netlist


def circuit_sha(circuit: str, gen_seed: int = 2016) -> str:
    """Content hash of a circuit (memoized): sha256 of its canonical
    ``.bench`` serialisation, so formatting/comment edits don't
    invalidate cached rows but structural edits do."""
    memo_key = (circuit, gen_seed)
    sha = _SHA_MEMO.get(memo_key)
    if sha is None:
        netlist = load_circuit(circuit, gen_seed)
        sha = netlist_sha(bench_io.dumps(netlist))
        _SHA_MEMO[memo_key] = sha
    return sha


def _ppa_analyzer():
    analyzer = _ANALYZERS.get("ppa")
    if analyzer is None:
        from ..analysis import PpaAnalyzer

        analyzer = _ANALYZERS["ppa"] = PpaAnalyzer()
    return analyzer


def _security_analyzer():
    analyzer = _ANALYZERS.get("security")
    if analyzer is None:
        from ..locking import SecurityAnalyzer

        analyzer = _ANALYZERS["security"] = SecurityAnalyzer()
    return analyzer


# ----------------------------------------------------------------------
# attack stage
# ----------------------------------------------------------------------
def _run_attack(trial: Trial, result) -> Dict[str, Any]:
    """Run the trial's attack against the provisioned oracle; return the
    attack's metric row (a plain dict)."""
    from ..attacks import (
        BruteForceAttack,
        ConfiguredOracle,
        MlAttack,
        SatAttack,
        TestingAttack,
        verify_key,
    )

    params = {k: v for k, v in trial.attack_params}
    foundry = result.foundry_view()
    oracle = ConfiguredOracle(result.hybrid, scan=True)
    seed = trial.attack_seed
    if trial.attack == "testing":
        outcome = TestingAttack(foundry, oracle, seed=seed, **params).run()
        return {
            "attack": "testing",
            "success": outcome.success,
            "resolved": len(outcome.resolved),
            "unresolved": len(outcome.unresolved),
            "oracle_queries": outcome.oracle_queries,
            "test_clocks": outcome.test_clocks,
        }
    if trial.attack == "brute":
        outcome = BruteForceAttack(foundry, oracle, seed=seed, **params).run()
        return {
            "attack": "brute",
            "success": outcome.success,
            "hypotheses_tested": outcome.hypotheses_tested,
            "hypotheses_total": outcome.hypotheses_total,
            "exhausted_budget": outcome.exhausted_budget,
            "oracle_queries": outcome.oracle_queries,
            "test_clocks": outcome.test_clocks,
        }
    if trial.attack == "sat":
        outcome = SatAttack(foundry, oracle, **params).run()
        row: Dict[str, Any] = {
            "attack": "sat",
            "success": outcome.success,
            "iterations": outcome.iterations,
            "gave_up": outcome.gave_up,
            "solver_conflicts": outcome.solver_conflicts,
            "oracle_queries": outcome.oracle_queries,
            "test_clocks": outcome.test_clocks,
        }
        if outcome.success:
            row["key_verified"] = bool(
                verify_key(foundry, outcome.key, result.hybrid)
            )
        return row
    if trial.attack == "ml":
        outcome = MlAttack(foundry, oracle, seed=seed, **params).run()
        return {
            "attack": "ml",
            "success": outcome.success,
            "iterations": outcome.iterations,
            "restarts": outcome.restarts,
            "best_agreement": outcome.best_agreement,
            "key_bits": outcome.key_bits,
            "oracle_queries": outcome.oracle_queries,
            "test_clocks": outcome.test_clocks,
        }
    raise ValueError(f"unknown attack {trial.attack!r}")


# ----------------------------------------------------------------------
# the trial itself
# ----------------------------------------------------------------------
def run_trial(trial: Trial) -> Dict[str, Any]:
    """Execute one trial and return its result row.

    Never raises: any failure (unknown circuit, algorithm error, attack
    crash) is captured as a ``status: "failed"`` row so one bad cell
    cannot kill a sweep.
    """
    clock = Stopwatch()
    # Every trial records into its own private recorder so that worker
    # processes (which share no memory with the parent) can hand their
    # span trees back inside the row itself.  The payload lives under
    # ``timing`` — the key :func:`canonical_row` strips — so cached and
    # fresh rows stay bit-identical whether or not tracing ran.
    recorder = Recorder()
    try:
        with use_recorder(recorder):
            with span(
                "sweep.trial",
                label=trial.label(),
                circuit=trial.circuit,
                algorithm=trial.algorithm,
                attack=trial.attack,
            ) as trial_span:
                try:
                    row = _run_trial_inner(trial)
                    trial_span.set(status="ok")
                except BaseException as exc:  # noqa: BLE001 - failure is data here
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    trial_span.set(
                        status="failed", error=f"{type(exc).__name__}: {exc}"
                    )
                    row = {
                        "schema": RESULT_SCHEMA,
                        "trial": trial.identity(),
                        "netlist_sha": _SHA_MEMO.get(
                            (trial.circuit, trial.gen_seed)
                        ),
                        "status": "failed",
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(limit=8),
                        "metrics": None,
                        "timing": {},
                    }
    finally:
        elapsed = clock.elapsed()
    row["timing"]["trial_seconds"] = elapsed
    row["timing"]["obs"] = recorder.to_dict()
    return row


def _run_trial_inner(trial: Trial) -> Dict[str, Any]:
    from ..locking import ALGORITHMS

    with span("trial.load", circuit=trial.circuit):
        netlist = load_circuit(trial.circuit, trial.gen_seed)
        sha = circuit_sha(trial.circuit, trial.gen_seed)
    try:
        algorithm_cls = ALGORITHMS[trial.algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {trial.algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        ) from None
    algorithm = algorithm_cls(seed=trial.seed, **{k: v for k, v in trial.params})
    with span("trial.lock", algorithm=trial.algorithm):
        result = algorithm.run(netlist)

    metrics: Dict[str, Any] = {
        "size": len(netlist.gates),
        "n_stt": result.n_stt,
        "replaced": list(result.replaced),
        "key_bits": result.provisioning.total_bits,
    }
    if "ppa" in trial.analyses:
        with span("trial.analysis.ppa"):
            overhead = _ppa_analyzer().overhead(
                netlist, result.hybrid, trial.algorithm
            )
        metrics["overhead"] = {
            "performance_degradation_pct": overhead.performance_degradation_pct,
            "power_overhead_pct": overhead.power_overhead_pct,
            "area_overhead_pct": overhead.area_overhead_pct,
            "n_stt": overhead.n_stt,
            "size": overhead.size,
        }
    if "security" in trial.analyses:
        with span("trial.analysis.security"):
            security = _security_analyzer().analyze(
                result.hybrid, trial.algorithm
            )
        metrics["security"] = {
            "n_missing": security.n_missing,
            "accessible_inputs": security.accessible_inputs,
            "circuit_depth": security.circuit_depth,
            "log10_n_indep": security.log10_n_indep,
            "log10_n_dep": security.log10_n_dep,
            "log10_n_bf": security.log10_n_bf,
        }
    if trial.attack != "none":
        with span("trial.attack", attack=trial.attack):
            metrics["attack"] = _run_attack(trial, result)

    return {
        "schema": RESULT_SCHEMA,
        "trial": trial.identity(),
        "netlist_sha": sha,
        "status": "ok",
        "error": None,
        "metrics": metrics,
        "timing": {"select_seconds": result.cpu_seconds},
    }


def canonical_row(row: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The deterministic view of a row: everything except ``timing`` (and
    the traceback of failed rows, whose line numbers move between
    versions).  Two sweeps of the same spec agree on this view no matter
    how many workers ran them or which trials came from the cache."""
    if row is None:
        return None
    return {
        k: v for k, v in row.items() if k not in ("timing", "traceback")
    }

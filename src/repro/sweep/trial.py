"""Execution of one sweep trial, with per-process warm caches.

A trial is: load the circuit → run the selection algorithm → run the
requested analyses → optionally run an attack against the provisioned
oracle → emit one JSON row.  This module is what a lease worker imports;
all of its state is module-level so that a worker executing many trials
pays the expensive setup once:

* ``_NETLIST_MEMO`` — each circuit is generated/parsed once per process;
  the netlist instance stays alive, which keeps its memoized structural
  views (:mod:`repro.netlist.cache`) warm across trials of the same
  circuit.  Its CSR view is built as it is memoized, so the
  :class:`~repro.netlist.csr.Wiring` holder all its copies share — with
  the wiring kernels and the compiled simulation code
  (:mod:`repro.sim.compiled`) of each lock on it — lives as long as the
  memo, and a trial compiles only kernels no earlier trial compiled;
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
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .. import lock_design
from ..netlist import bench_io
from ..netlist.csr import csr_view
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
        csr_view(netlist)
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
# the trial itself
# ----------------------------------------------------------------------
def failed_row(trial: Trial, exc: BaseException) -> Dict[str, Any]:
    """A ``status: "failed"`` row for a trial that never produced one."""
    return {
        "schema": RESULT_SCHEMA,
        "trial": trial.identity(),
        "netlist_sha": None,
        "status": "failed",
        "error": f"{type(exc).__name__}: {exc}",
        "metrics": None,
        "timing": {},
    }


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
                    row = failed_row(trial, exc)
                    row["netlist_sha"] = _SHA_MEMO.get(
                        (trial.circuit, trial.gen_seed)
                    )
                    row["traceback"] = traceback.format_exc(limit=8)
                    trial_span.set(status="failed", error=row["error"])
    finally:
        elapsed = clock.elapsed()
    row["timing"]["trial_seconds"] = elapsed
    row["timing"]["obs"] = recorder.to_dict()
    return row


def _report_block(report) -> Dict[str, Any]:
    """A report dataclass as a row block: every field but the trial's own
    ``circuit`` and ``algorithm`` (:mod:`repro.sweep.aggregate` puts them
    back)."""
    return {
        f.name: getattr(report, f.name)
        for f in fields(report)
        if f.name not in ("circuit", "algorithm")
    }


def _run_trial_inner(trial: Trial) -> Dict[str, Any]:
    with span("trial.load", circuit=trial.circuit):
        netlist = load_circuit(trial.circuit, trial.gen_seed)
        sha = circuit_sha(trial.circuit, trial.gen_seed)
    with span("trial.lock", algorithm=trial.algorithm):
        result = lock_design(
            netlist, trial.algorithm, seed=trial.seed, **dict(trial.params)
        )

    metrics: Dict[str, Any] = {
        "size": len(netlist.gates),
        "n_stt": result.n_stt,
        "replaced": list(result.replaced),
        "key_bits": result.provisioning.total_bits,
    }
    if "ppa" in trial.analyses:
        with span("trial.analysis.ppa") as ppa_span:
            ppa = _ppa_analyzer()
            metrics["overhead"] = _report_block(
                ppa.overhead(netlist, result.hybrid, trial.algorithm)
            )
            ppa_span.set(**ppa.totals(netlist, result.hybrid))
    if "security" in trial.analyses:
        with span("trial.analysis.security"):
            metrics["security"] = _report_block(
                _security_analyzer().analyze(result.hybrid, trial.algorithm)
            )
    if trial.attack != "none":
        from ..attacks import ConfiguredOracle, run_attack

        with span("trial.attack", attack=trial.attack):
            metrics["attack"] = run_attack(
                trial.attack,
                result.foundry_view(),
                ConfiguredOracle(result.hybrid, scan=True),
                seed=trial.attack_seed,
                **dict(trial.attack_params),
            )

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

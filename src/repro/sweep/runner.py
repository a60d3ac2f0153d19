"""The sweep engine: cache resolution, then inline or lease-worker execution.

Design:

* **One knob** — ``workers``.  With ``workers == 1`` (or a single pending
  trial) trials run inline in the calling process, one per step of the
  stream.  With more, the runner spawns that many lease workers
  (:mod:`repro.sweep.backends`) that claim trials from the result cache;
  a run without a ``cache_dir`` gives them a temporary store that is
  deleted afterwards, so nothing persists.
* **Streaming** — :meth:`SweepRunner.stream` yields ``(index, row)``
  pairs in completion order as trials finish, feeding incremental
  aggregates (:class:`repro.sweep.aggregate.StreamSummary`) so a 100x
  trial count never has to hold every row in memory at once.
  :meth:`SweepRunner.run` consumes the stream and reassembles spec
  order for callers that want the classic :class:`SweepResult`.
* **Graceful failure** — a trial that raises becomes a ``failed`` row;
  a lease worker that *dies* leaves a lease that is broken (at once on
  its host, where its pid is gone, elsewhere at expiry), and a survivor
  (or, if none is left, the coordinator) re-claims the trial.  A sweep
  always yields one row per trial.
* **Resume** — with a :class:`~repro.sweep.cache.ResultCache`, completed
  trials are served from disk and only the missing ones execute;
  re-running an interrupted sweep against the same cache resumes it.
  Cached and fresh rows are bit-identical in their canonical view
  (timing is the only non-deterministic field, and it is excluded — see
  :func:`repro.sweep.trial.canonical_row`).
* **Determinism** — each trial seeds its own RNG streams from its
  identity, so every worker count produces identical canonical rows
  (the ``sweep-modes-identical`` check proves it).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..obs import (
    SpanRecord,
    Stopwatch,
    add_counter,
    get_recorder,
    record_error,
    set_gauge,
    span,
)
from .backends import (
    LEASE_TTL,
    WorkStealingJob,
    failed_row,
    new_job_id,
    run_lease_workers,
)
from .cache import ResultCache, trial_key
from .spec import SweepSpec, Trial
from .trial import canonical_row, circuit_sha, run_trial

#: Progress callbacks receive one event dict per completed trial (plus
#: the initial ``resume`` event and, for lease workers, a ``job`` event).
ProgressFn = Callable[[Dict[str, Any]], None]


@dataclass
class SweepStats:
    """Execution accounting for one sweep run."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    #: Rows settled so far (cached + resolve failures + completed trials);
    #: maintained incrementally so progress events are O(1) per trial.
    done: int = 0
    wall_seconds: float = 0.0
    workers: int = 1

    def summary(self) -> str:
        return (
            f"sweep: {self.total} trials: {self.executed} executed, "
            f"{self.cached} cached, {self.failed} failed "
            f"in {self.wall_seconds:.1f}s ({self.workers} workers)"
        )


@dataclass
class SweepResult:
    """All rows of a sweep, in spec order, plus execution stats."""

    spec: SweepSpec
    rows: List[Dict[str, Any]] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def ok_rows(self) -> List[Dict[str, Any]]:
        return [r for r in self.rows if r.get("status") == "ok"]

    def failed_rows(self) -> List[Dict[str, Any]]:
        return [r for r in self.rows if r.get("status") != "ok"]

    def canonical_rows(self) -> List[Dict[str, Any]]:
        """The deterministic view used for execution-mode equivalence."""
        return [canonical_row(r) for r in self.rows]


class SweepRunner:
    """Executes a :class:`SweepSpec`; see the module docstring."""

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        resume: bool = True,
        progress: Optional[ProgressFn] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.resume = resume
        self.progress = progress
        #: Stats of the in-flight (or most recent) run.
        self.stats = SweepStats()
        #: The lease job of the most recent lease-worker run (its claims
        #: record which owner executed each trial); ``None`` until one
        #: runs.  Without a ``cache_dir`` the job's directory is deleted
        #: with the temporary store when the run ends.
        self.last_job: Optional[WorkStealingJob] = None
        #: Root span of the in-flight run; worker span trees are merged
        #: under it (None while no traced run is active).
        self._run_span: Optional[SpanRecord] = None

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute *spec* and return every row in spec order."""
        trials_total = len(spec.trials())
        rows: List[Optional[Dict[str, Any]]] = [None] * trials_total
        for index, row in self.stream(spec):
            rows[index] = row
        assert all(row is not None for row in rows)
        return SweepResult(spec=spec, rows=list(rows), stats=self.stats)

    def stream(
        self, spec: SweepSpec
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Execute *spec*, yielding ``(index, row)`` in completion order.

        Cached rows and resolve-stage failures are yielded first (resolve
        order), then executed trials as they complete.
        ``self.stats`` is updated incrementally and is final once the
        iterator is exhausted.
        """
        clock = Stopwatch()
        trials = spec.trials()
        stats = SweepStats(total=len(trials), workers=self.workers)
        self.stats = stats
        keys: List[Optional[str]] = [None] * len(trials)

        # ``wall_seconds`` is accounted in a ``finally`` so every exit —
        # the happy path, an abandoned iterator, even an exception
        # propagating out of a stage — leaves the
        # stats with real wall time instead of the 0.0 default.
        try:
            with span(
                "sweep.run", trials=len(trials), workers=self.workers
            ) as run_span:
                self._run_span = run_span if isinstance(
                    run_span, SpanRecord
                ) else None

                # Resolve circuits (parent-side, memoized per distinct
                # circuit) so every trial has a content-addressed key; a
                # circuit that cannot even be loaded fails its trials up
                # front.
                pending: List[Tuple[int, Trial]] = []
                resolved: List[Tuple[int, Trial, Dict[str, Any], bool]] = []
                with span("sweep.resolve") as resolve_span:
                    for index, trial in enumerate(trials):
                        try:
                            sha = circuit_sha(trial.circuit, trial.gen_seed)
                        except Exception as exc:  # noqa: BLE001 - recorded as data
                            resolved.append(
                                (index, trial, failed_row(trial, exc), True)
                            )
                            continue
                        keys[index] = trial_key(trial, sha)
                        cached = None
                        if self.cache is not None and self.resume:
                            cached = self.cache.get(keys[index])
                        if cached is not None and cached.get("status") == "ok":
                            cached.setdefault("timing", {})["from_cache"] = True
                            resolved.append((index, trial, cached, False))
                            stats.cached += 1
                        else:
                            pending.append((index, trial))
                    resolve_span.set(
                        cached=stats.cached, pending=len(pending)
                    )
                add_counter("sweep.cache_hits", stats.cached)

                # The resume event announces the sweep size with cached
                # rows pre-counted; resolve failures then emit ordinary
                # failed-trial events (they used to bypass progress
                # entirely, under-counting ``done`` against ``total``).
                stats.done = stats.cached
                self._emit_initial(stats, clock)
                for index, trial, row, resolve_failed in resolved:
                    if resolve_failed:
                        stats.done += 1
                        stats.failed += 1
                        self._emit(trial, row, stats, clock)
                    yield index, row

                if self.workers == 1 or len(pending) <= 1:
                    completed = self._run_inline(pending, keys)
                else:
                    completed = self._run_leased(pending, keys)
                for index, trial, row in completed:
                    stats.executed += 1
                    stats.done += 1
                    if row.get("status") != "ok":
                        stats.failed += 1
                    self._merge_trial_trace(row)
                    self._emit(trial, row, stats, clock)
                    yield index, row

                run_span.set(
                    executed=stats.executed,
                    cached=stats.cached,
                    failed=stats.failed,
                )
        finally:
            stats.wall_seconds = clock.elapsed()
            self._run_span = None
            set_gauge("sweep.wall_seconds", stats.wall_seconds)

    # ------------------------------------------------------------------
    def _run_inline(
        self, pending: List[Tuple[int, Trial]], keys: List[Optional[str]]
    ) -> Iterator[Tuple[int, Trial, Dict[str, Any]]]:
        """Run each pending trial in this process, one per step."""
        for index, trial in pending:
            row = run_trial(trial)
            if self.cache is not None and row.get("status") == "ok":
                # Failures are not cached: a resume retries them.
                self.cache.put(str(keys[index]), row)
            yield index, trial, row

    def _run_leased(
        self, pending: List[Tuple[int, Trial]], keys: List[Optional[str]]
    ) -> Iterator[Tuple[int, Trial, Dict[str, Any]]]:
        """Run the pending trials on ``self.workers`` lease workers over
        the result cache (a temporary one when the runner has none)."""
        scratch = (
            tempfile.TemporaryDirectory(prefix="repro-sweep-")
            if self.cache is None
            else contextlib.nullcontext(None)
        )
        with scratch as tmp:
            cache = self.cache if self.cache is not None else ResultCache(tmp)
            job = WorkStealingJob.create(
                cache,
                new_job_id(pending),
                pending,
                {index: str(keys[index]) for index, _ in pending},
                LEASE_TTL,
                resume=self.resume,
            )
            self.last_job = job
            if self.progress is not None:
                self.progress(
                    {
                        "event": "job",
                        "job_id": job.job_id,
                        "job_dir": str(job.root),
                        "trials": len(pending),
                    }
                )
            yield from run_lease_workers(job, pending, self.workers)

    def _merge_trial_trace(self, row: Dict[str, Any]) -> None:
        """Fold an *executed* trial's span tree (recorded in the worker,
        shipped back inside the row's ``timing`` block) into the parent's
        active recorder.  Cached rows are never merged: their payloads
        describe a previous run's wall clock."""
        recorder = get_recorder()
        if recorder is None:
            return
        payload = (row.get("timing") or {}).get("obs")
        if not payload:
            return
        try:
            recorder.merge_child(payload, parent=self._run_span)
        except (KeyError, TypeError, ValueError) as exc:
            record_error(
                f"unmergeable trial trace: {type(exc).__name__}: {exc}",
                label=str((row.get("trial") or {}).get("circuit")),
            )

    def _emit_initial(self, stats: SweepStats, clock: Stopwatch) -> None:
        # Always emitted when a progress sink is attached — a cold run
        # (``cached == 0``) still announces the sweep's size, so consumers
        # can size progress bars without special-casing the first event.
        if self.progress is None:
            return
        self.progress(
            {
                "event": "resume",
                "done": stats.done,
                "total": stats.total,
                "cached": stats.cached,
                "elapsed": clock.elapsed(),
            }
        )

    @staticmethod
    def _eta(elapsed: float, executed: int, remaining: int) -> float:
        """Estimated seconds left.  Defined at every boundary: nothing
        executed yet (cached-only progress) and a first trial finishing
        in ~0 s both yield a finite, non-negative estimate instead of a
        division by zero."""
        if remaining <= 0 or executed <= 0:
            return 0.0
        return max(elapsed, 0.0) / executed * remaining

    def _emit(
        self,
        trial: Trial,
        row: Dict[str, Any],
        stats: SweepStats,
        clock: Stopwatch,
    ) -> None:
        if self.progress is None:
            return
        # ``stats.done`` is maintained incrementally; recomputing it by
        # scanning the rows here was O(n²) across a sweep.
        elapsed = clock.elapsed()
        remaining = stats.total - stats.done
        eta = self._eta(elapsed, stats.executed, remaining)
        self.progress(
            {
                "event": "trial",
                "label": trial.label(),
                "status": row.get("status"),
                "done": stats.done,
                "total": stats.total,
                "elapsed": elapsed,
                "eta": eta,
                "trial_seconds": row.get("timing", {}).get(
                    "trial_seconds", 0.0
                ),
            }
        )


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Convenience wrapper: build a :class:`SweepRunner` and run *spec*."""
    runner = SweepRunner(
        workers=workers,
        cache_dir=cache_dir,
        resume=resume,
        progress=progress,
    )
    return runner.run(spec)


def default_workers() -> int:
    """A sensible worker count: the CPU count, capped at 8 (the sweeps
    are memory-light but the benchmark grids rarely have more than a few
    dozen independent cells per circuit)."""
    return min(os.cpu_count() or 1, 8)

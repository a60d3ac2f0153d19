"""Lease workers: the sweep's one parallel executor.

The runner (:mod:`repro.sweep.runner`) runs trials inline when
``workers == 1``; with more workers it hands the pending trials to this
module.  N independent local worker *processes*, each handed the
:class:`WorkStealingJob`, claim trials directly from the shared
:class:`ResultCache` via atomic lock-file leases
(:meth:`ResultCache.try_lease`); the coordinator polls the store for
completed rows and streams them out.  A worker that dies mid-trial
simply stops — its lease is broken as soon as another worker sees that
its pid is gone (a lease stamped by another host, once it *expires*)
and that worker re-claims the trial, which is what makes the sweep
crash-proof without any worker-to-coordinator channel beyond the
filesystem.

Job layout, under ``<cache>/jobs/<job_id>/``, deleted when the run ends
(a killed coordinator may leave it behind; nothing reads it again):

* ``done/<key>`` — an empty marker per trial this job completed;
* ``failed/<key>.json`` — failed rows (kept out of the result cache so a
  later resume retries them, but still visible to the coordinator);
* ``claims/<owner>.jsonl`` — one line per trial an owner *executed*, the
  lease-accounting record the checks use to prove no trial ran twice.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs import add_counter, span
from .cache import ResultCache, atomic_write_json
from .spec import Trial, derive_seed
from .trial import run_trial

#: Seconds a lease stays valid; a worker killed mid-trial blocks its
#: trial for at most this long before a survivor re-claims it.
LEASE_TTL = 60.0

#: Seconds between rescans of the store (workers and coordinator).
POLL_INTERVAL = 0.05


@dataclass
class WorkStealingJob:
    """One lease job: its pending trials and their state under the
    shared cache."""

    cache: ResultCache
    job_id: str
    lease_ttl: float
    #: ``(index, key, trial)`` per pending trial.
    entries: List[Tuple[int, str, Trial]]
    #: False for a ``resume=False`` run: rows already cached before the
    #: job started must be recomputed, so only this job's own ``done/``
    #: markers count as completion.
    resume: bool = True
    #: The claims read by :meth:`close`, once the directory is gone.
    closed_claims: Optional[List[Dict[str, Any]]] = None

    @property
    def root(self) -> Path:
        return self.cache.job_dir(self.job_id)

    # -- failed rows (never cached: a later resume retries them) --------
    def failed_path(self, key: str) -> Path:
        return self.root / "failed" / f"{key}.json"

    def write_failed(self, key: str, row: Dict[str, Any]) -> None:
        atomic_write_json(self.failed_path(key), row)

    def read_failed(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(self.failed_path(key).read_text())
        except (OSError, ValueError):
            return None

    # -- completion -----------------------------------------------------
    def done_path(self, key: str) -> Path:
        return self.root / "done" / key

    def mark_done(self, key: str) -> None:
        path = self.done_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()

    def is_complete(self, key: str) -> bool:
        """Whether *key* needs no more work: its row is cached — by this
        job, or by any run when resuming — or this job recorded it as
        failed.  A cached row later quarantined as corrupt is incomplete
        again, so a worker re-runs it."""
        if self.failed_path(key).exists():
            return True
        return (self.resume or self.done_path(key).exists()) and (
            key in self.cache
        )

    def read_row(self, key: str) -> Optional[Dict[str, Any]]:
        """The completed row for *key*, or ``None`` while it is pending."""
        if not self.is_complete(key):
            return None
        return self.read_failed(key) or self.cache.get(key)

    # -- lease accounting ------------------------------------------------
    def record_claim(
        self, owner: str, index: int, key: str, status: str
    ) -> None:
        path = self.root / "claims" / f"{owner}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {
                "owner": owner,
                "index": index,
                "key": key,
                "status": status,
                "time": time.time(),
            },
            sort_keys=True,
        )
        # One O_APPEND write per claim; each owner has a private file, so
        # lines never interleave even on a shared directory.
        with open(path, "a") as handle:
            handle.write(line + "\n")

    def claims(self) -> List[Dict[str, Any]]:
        """Every execution claim recorded by any worker of this job."""
        if self.closed_claims is not None:
            return list(self.closed_claims)
        out: List[Dict[str, Any]] = []
        claims_dir = self.root / "claims"
        if not claims_dir.is_dir():
            return out
        for path in sorted(claims_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                if line.strip():
                    out.append(json.loads(line))
        return out

    def close(self) -> None:
        """Keep the claims in memory and delete the job's directory: once
        the run ends nothing reads it."""
        self.closed_claims = self.claims()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- the worker loop -------------------------------------------------
    def work(self, owner: str) -> int:
        """Claim-and-execute loop of one lease worker; returns the number
        of trials *owner* executed.

        The loop scans the entries for incomplete trials, leases one,
        runs it, persists the row (ok → result cache, failed → the job's
        failed area), marks it done, records the claim, and releases the
        lease.  When every trial is complete it exits; while the only
        incomplete trials are leased by *other* live owners it sleeps and
        rescans — if one of those owners died, its lease is broken (at
        once if its pid is gone from this host, else at expiry) and the
        rescan re-claims the trial.
        """
        executed = 0
        while True:
            progressed = False
            incomplete = 0
            for index, key, trial in self.entries:
                if self.is_complete(key):
                    continue
                incomplete += 1
                if not self.cache.try_lease(key, owner, self.lease_ttl):
                    continue
                try:
                    if self.is_complete(key):
                        continue  # finished by the lease's previous holder
                    row = run_trial(trial)
                    if row.get("status") == "ok":
                        self.cache.put(key, row)
                        self.mark_done(key)
                    else:
                        self.write_failed(key, row)
                    status = str(row.get("status"))
                    self.record_claim(owner, index, key, status)
                    executed += 1
                    progressed = True
                finally:
                    self.cache.release_lease(key)
            if incomplete == 0:
                return executed
            if not progressed:
                time.sleep(POLL_INTERVAL)


def new_job_id(pending: Sequence[Tuple[int, Trial]]) -> str:
    """A job id: digest of the pending trials plus a random nonce."""
    seed = derive_seed("job", [t.identity() for _, t in pending])
    return f"job-{seed % (1 << 32):08x}-{os.urandom(4).hex()}"


def default_owner(tag: str = "w0") -> str:
    """A globally distinguishable worker identity: host + pid + tag."""
    return f"{socket.gethostname()}-{os.getpid()}-{tag}"


def run_lease_workers(
    job: WorkStealingJob, workers: int
) -> Iterator[Tuple[int, Trial, Dict[str, Any]]]:
    """Spawn *workers* local lease workers on *job* and yield
    ``(index, trial, row)`` as rows land in the store; the job's
    directory is deleted once the workers have joined.

    If every spawned worker exits while trials are still incomplete (all
    of them crashed), the coordinator runs the worker loop itself, so
    the sweep always completes.
    """
    # Only a multi-worker sweep spawns processes: an inline sweep never
    # pays for importing the multiprocessing machinery.
    import multiprocessing

    procs: List[multiprocessing.Process] = []
    for n in range(workers):
        proc = multiprocessing.Process(
            target=job.work,
            args=(default_owner(f"w{n}"),),
            daemon=True,
            name=f"sweep-lease-{job.job_id}-w{n}",
        )
        proc.start()
        procs.append(proc)
    remaining = {index: (key, trial) for index, key, trial in job.entries}
    try:
        with span("sweep.steal", job=job.job_id, workers=workers) as steal_span:
            while remaining:
                progressed = False
                for index in sorted(remaining):
                    row = job.read_row(remaining[index][0])
                    if row is None:
                        continue
                    progressed = True
                    yield index, remaining.pop(index)[1], row
                if not remaining or progressed:
                    continue
                if not any(p.is_alive() for p in procs):
                    # Every spawned worker is gone but trials are
                    # incomplete: finish them here via the very same
                    # claim loop (the dead workers' leases are broken:
                    # their pids are gone from this host).
                    add_counter("sweep.steal.coordinator_fallbacks")
                    job.work(default_owner("coordinator"))
                    continue
                time.sleep(POLL_INTERVAL)
            steal_span.set(claims=len(job.claims()))
    finally:
        for proc in procs:
            if remaining:  # abandoned or failed run: stop the workers now
                proc.terminate()
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
        job.close()

"""Lease workers: the sweep's one parallel executor.

The runner (:mod:`repro.sweep.runner`) runs trials inline when
``workers == 1``; with more workers it hands the pending trials to this
module.  N independent worker *processes* claim trials directly from the
shared :class:`ResultCache` via atomic lock-file leases
(:meth:`ResultCache.try_lease`).  Workers may also run on other hosts
pointed at the same directory (``repro-lock sweep-worker``); the
coordinator only writes the job manifest, polls the store for completed
rows, and streams them out.  A worker that dies mid-trial simply stops —
its lease is broken as soon as a worker on its host sees that its pid
is gone (anywhere else, once it *expires*) and that worker re-claims the
trial, which is what makes the sweep crash-proof without any worker-to-coordinator
channel beyond the filesystem.

Job layout, under ``<cache>/jobs/<job_id>/``:

* ``manifest.json`` — the trial list (index, content key, identity) and
  whether the job resumes (see :meth:`WorkStealingJob.is_complete`);
* ``done/<key>`` — an empty marker per trial this job completed;
* ``failed/<key>.json`` — failed rows (kept out of the result cache so a
  later resume retries them, but still visible to the coordinator);
* ``claims/<owner>.jsonl`` — one line per trial an owner *executed*, the
  lease-accounting record the checks use to prove no trial ran twice.
"""

from __future__ import annotations

import json
import os
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
    """One lease job's on-disk state under the shared cache."""

    cache: ResultCache
    job_id: str
    lease_ttl: float
    entries: List[Dict[str, Any]]
    #: False for a ``resume=False`` run: rows already cached before the
    #: job started must be recomputed, so only this job's own ``done/``
    #: markers count as completion.
    resume: bool = True

    @property
    def root(self) -> Path:
        return self.cache.job_dir(self.job_id)

    @classmethod
    def create(
        cls,
        cache: ResultCache,
        job_id: str,
        pending: Sequence[Tuple[int, Trial]],
        keys: Dict[int, str],
        lease_ttl: float,
        resume: bool = True,
    ) -> "WorkStealingJob":
        entries = [
            {"index": index, "key": keys[index], "trial": trial.identity()}
            for index, trial in pending
        ]
        job = cls(
            cache=cache,
            job_id=job_id,
            lease_ttl=lease_ttl,
            entries=entries,
            resume=resume,
        )
        atomic_write_json(
            job.root / "manifest.json",
            {
                "job_id": job_id,
                "created": time.time(),
                "lease_ttl": lease_ttl,
                "resume": resume,
                "trials": entries,
            },
        )
        return job

    @classmethod
    def open(cls, cache: ResultCache, job_id: str) -> "WorkStealingJob":
        manifest = json.loads(
            (cache.job_dir(job_id) / "manifest.json").read_text()
        )
        return cls(
            cache=cache,
            job_id=job_id,
            lease_ttl=float(manifest["lease_ttl"]),
            entries=list(manifest["trials"]),
            resume=bool(manifest.get("resume", True)),
        )

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
        self, owner: str, entry: Dict[str, Any], status: str
    ) -> None:
        path = self.root / "claims" / f"{owner}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {
                "owner": owner,
                "index": entry["index"],
                "key": entry["key"],
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
        out: List[Dict[str, Any]] = []
        claims_dir = self.root / "claims"
        if not claims_dir.is_dir():
            return out
        for path in sorted(claims_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                if line.strip():
                    out.append(json.loads(line))
        return out


def new_job_id(pending: Sequence[Tuple[int, Trial]]) -> str:
    """A job id: digest of the pending trials plus a random nonce."""
    seed = derive_seed("job", [t.identity() for _, t in pending])
    return f"job-{seed % (1 << 32):08x}-{os.urandom(4).hex()}"


def default_owner(tag: str = "w0") -> str:
    """A globally distinguishable worker identity: host + pid + tag."""
    return f"{socket.gethostname()}-{os.getpid()}-{tag}"


def work_stealing_worker(
    cache_root: Path,
    job_id: str,
    owner: str,
    poll_interval: float = POLL_INTERVAL,
) -> int:
    """Claim-and-execute loop of one lease worker; returns the number of
    trials this owner executed.

    The loop scans the manifest for incomplete trials, leases one, runs
    it, persists the row (ok → result cache, failed → the job's failed
    area), marks it done, records the claim, and releases the lease.
    When every trial is complete it exits; while the only incomplete
    trials are leased by *other* live owners it sleeps and rescans — if
    one of those owners died, its lease is broken (at once on its own
    host, else at expiry) and the rescan re-claims
    the trial.
    """
    cache = ResultCache(cache_root, reap_tmp_ttl=None)
    job = WorkStealingJob.open(cache, job_id)
    executed = 0
    while True:
        progressed = False
        incomplete = 0
        for entry in job.entries:
            key = entry["key"]
            if job.is_complete(key):
                continue
            incomplete += 1
            if not cache.try_lease(key, owner, job.lease_ttl):
                continue
            try:
                if job.is_complete(key):
                    continue  # finished by the lease's previous holder
                trial = Trial.from_identity(entry["trial"])
                row = run_trial(trial)
                if row.get("status") == "ok":
                    cache.put(key, row)
                    job.mark_done(key)
                else:
                    job.write_failed(key, row)
                job.record_claim(owner, entry, str(row.get("status")))
                executed += 1
                progressed = True
            finally:
                cache.release_lease(key)
        if incomplete == 0:
            return executed
        if not progressed:
            time.sleep(poll_interval)


def _worker_entry(cache_root: str, job_id: str, owner: str) -> None:
    work_stealing_worker(Path(cache_root), job_id, owner)


def run_lease_workers(
    job: WorkStealingJob,
    pending: Sequence[Tuple[int, Trial]],
    workers: int,
) -> Iterator[Tuple[int, Trial, Dict[str, Any]]]:
    """Spawn *workers* local lease workers on *job* and yield
    ``(index, trial, row)`` as rows land in the store.

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
            target=_worker_entry,
            args=(str(job.cache.root), job.job_id, default_owner(f"w{n}")),
            daemon=True,
            name=f"sweep-lease-{job.job_id}-w{n}",
        )
        proc.start()
        procs.append(proc)
    keys = {entry["index"]: entry["key"] for entry in job.entries}
    remaining: Dict[int, Trial] = dict(pending)
    try:
        with span("sweep.steal", job=job.job_id, workers=workers) as steal_span:
            while remaining:
                progressed = False
                for index in sorted(remaining):
                    row = job.read_row(keys[index])
                    if row is None:
                        continue
                    progressed = True
                    yield index, remaining.pop(index), row
                if not remaining or progressed:
                    continue
                if not any(p.is_alive() for p in procs):
                    # Every spawned worker is gone but trials are
                    # incomplete: finish them here via the very same
                    # claim loop (the dead workers' leases are broken:
                    # their pids are gone from this host).
                    add_counter("sweep.steal.coordinator_fallbacks")
                    work_stealing_worker(
                        job.cache.root, job.job_id, default_owner("coordinator")
                    )
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

"""Content-addressed, resumable result store for sweep trials.

A trial's cache key is the sha256 of its full causal input:

* the **netlist content hash** (sha256 of the circuit's canonical
  ``.bench`` text — editing a benchmark file or bumping the generator
  seed invalidates exactly its rows);
* the **trial identity** (algorithm + params, seed, attack + params,
  analyses — see :meth:`repro.sweep.spec.Trial.identity`);
* the **code version** (``repro.__version__`` plus this module's result
  schema number, so upgrading the package never serves stale rows).

Rows are JSON documents, one file per trial, fanned out over 256
two-hex-digit subdirectories (the git-object layout).  Writes are atomic
(temp file + ``os.replace``), so a sweep killed mid-write never corrupts
the store and an interrupted sweep *resumes*: re-running the same spec
serves completed trials from disk and executes only the missing ones.
A process SIGKILLed between ``mkstemp`` and ``os.replace`` leaves a
``.tmp-*`` orphan behind; those are invisible to every read path (the
index skips dotfiles) and reaped on cache open once they are old enough
to be provably dead (:data:`TMP_REAP_TTL_SECONDS`).

Failed trials are deliberately **not** cached — a resume retries them.

The cache doubles as the **shared coordination store** for the sweep's
lease workers (:mod:`repro.sweep.backends`): workers on
any host pointed at the same directory claim trials through atomic
lock-file *leases* (``leases/<key>.lock``, created with
``O_CREAT | O_EXCL`` so exactly one claimant wins) that carry an owner
and an expiry; a lease whose holder died is broken atomically
(``os.replace`` onto a unique grave name — only one breaker can win)
and the trial is re-claimed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from .spec import Trial, canonical_json

logger = logging.getLogger(__name__)

#: Bump when the row schema changes shape; part of every cache key.
RESULT_SCHEMA = 1

#: ``.tmp-*`` orphans older than this are reaped when a cache is opened.
#: Generous on purpose: a live writer holds its temp file for the few
#: milliseconds between ``mkstemp`` and ``os.replace``, never for an hour.
TMP_REAP_TTL_SECONDS = 3600.0

#: Subdirectory of the cache root holding lease files.
LEASE_DIRNAME = "leases"

#: Subdirectory of the cache root holding per-job manifests/claims.
JOBS_DIRNAME = "jobs"

#: Unique suffixes for lease grave files (see :meth:`ResultCache.try_lease`).
_GRAVE_COUNTER = itertools.count()


def _code_version() -> str:
    from .. import __version__

    return f"{__version__}/schema{RESULT_SCHEMA}"


def netlist_sha(bench_text: str) -> str:
    """Content hash of a circuit: sha256 of its canonical ``.bench`` text."""
    return hashlib.sha256(bench_text.encode()).hexdigest()


def trial_key(trial: Trial, netlist_hash: str) -> str:
    """The content address of one trial's result row."""
    payload = {
        "netlist_sha": netlist_hash,
        "trial": trial.identity(),
        "code": _code_version(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def atomic_write_json(path: Path, payload: Any) -> None:
    """Write *payload* as JSON via temp file + ``os.replace`` (the same
    crash-safe protocol the row store uses)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """On-disk row store; ``None``-safe (a disabled cache misses always).

    ``reap_tmp_ttl`` controls orphan cleanup on open: ``.tmp-*`` files
    older than that many seconds (leftovers of a writer SIGKILLed between
    ``mkstemp`` and ``os.replace``) are deleted.  Pass ``None`` to skip
    the scan (work-stealing workers opening the store many times).
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        reap_tmp_ttl: Optional[float] = TMP_REAP_TTL_SECONDS,
    ):
        self.root = Path(cache_dir)
        if reap_tmp_ttl is not None:
            self.reap_stale_tmp(reap_tmp_ttl)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def reap_stale_tmp(self, ttl: float = TMP_REAP_TTL_SECONDS) -> int:
        """Delete ``.tmp-*`` orphans older than *ttl* seconds; returns the
        number reaped.  Young temp files are left alone — they may belong
        to a live writer on this or another host."""
        if not self.root.exists():
            return 0
        cutoff = time.time() - ttl
        reaped = 0
        shards = [
            shard
            for shard in self.root.iterdir()
            if shard.is_dir() and len(shard.name) == 2
        ]
        patterns = {shard: (".tmp-*",) for shard in shards}
        lease_dir = self.root / LEASE_DIRNAME
        if lease_dir.is_dir():
            # Grave files are normally unlinked right after the breaking
            # os.replace; one survives only if the breaker died in between.
            patterns[lease_dir] = (".tmp-*", ".expired-*")
        for shard, shard_patterns in patterns.items():
            for pattern in shard_patterns:
                for path in shard.glob(pattern):
                    try:
                        if path.stat().st_mtime < cutoff:
                            path.unlink()
                            reaped += 1
                    except OSError:
                        continue  # racing reaper or live writer finishing
        if reaped:
            logger.warning(
                "reaped %d stale temp orphan(s) under %s "
                "(writers killed mid-replace)",
                reaped,
                self.root,
            )
        return reaped

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached row for *key*, or ``None`` on a miss.

        A file that exists but does not parse as a JSON object is evidence
        of on-disk corruption (bit rot, a concurrent writer without atomic
        replace, manual edits).  It is *quarantined* — renamed to
        ``<name>.json.corrupt`` so ``iter_keys``/``__contains__`` stop
        seeing it and the evidence survives for inspection — and logged,
        then treated as a miss so the trial re-runs.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            row = json.loads(text)
            if not isinstance(row, dict):
                raise json.JSONDecodeError("row is not an object", text, 0)
            return row
        except json.JSONDecodeError as exc:
            self._quarantine(path, exc)
            return None

    def _quarantine(self, path: Path, reason: Exception) -> None:
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return  # racing reader already moved it
        logger.warning(
            "quarantined corrupt cache entry %s -> %s (%s); "
            "the trial will be recomputed",
            path,
            target.name,
            reason,
        )

    def put(self, key: str, row: Dict[str, Any]) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(row, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def iter_keys(self) -> Iterator[str]:
        if not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for path in sorted(shard.glob("*.json")):
                # pathlib's glob matches dotfiles, so a writer SIGKILLed
                # between mkstemp and os.replace would otherwise leak its
                # ``.tmp-*.json`` orphan into the index as a bogus key.
                if path.name.startswith("."):
                    continue
                yield path.stem

    # ------------------------------------------------------------------
    # work-stealing leases
    # ------------------------------------------------------------------
    def _lease_path(self, key: str) -> Path:
        return self.root / LEASE_DIRNAME / f"{key}.lock"

    def job_dir(self, job_id: str) -> Path:
        """Directory holding one work-stealing job's manifest and claims."""
        return self.root / JOBS_DIRNAME / job_id

    def try_lease(self, key: str, owner: str, ttl: float) -> bool:
        """Attempt to claim *key* for *owner* for *ttl* seconds.

        The grant is an atomic ``O_CREAT | O_EXCL`` file creation, so of
        any number of racing claimants exactly one wins.  An existing
        lease whose expiry has passed (its holder crashed or was
        SIGKILLed mid-trial) is *broken* first: ``os.replace`` moves it
        onto a unique grave name — atomic, so of any number of racing
        breakers exactly one wins and the losers return ``False`` — and
        then the normal grant race runs.
        """
        path = self._lease_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if not self._lease_expired(path):
                return False
            grave = path.with_name(
                f".expired-{os.getpid()}-{next(_GRAVE_COUNTER)}-{path.name}"
            )
            try:
                os.replace(path, grave)
                os.unlink(grave)
            except OSError:
                return False  # another breaker (or a release) won the race
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except (FileExistsError, OSError):
                return False  # a rival claimed the freshly vacated slot
        with os.fdopen(fd, "w") as handle:
            handle.write(
                json.dumps(
                    {"owner": owner, "expires": time.time() + ttl},
                    sort_keys=True,
                )
            )
        return True

    @staticmethod
    def _lease_expired(path: Path) -> bool:
        try:
            data = json.loads(path.read_text())
            return float(data["expires"]) <= time.time()
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable: either mid-write (the O_CREAT..write window) or
            # already released.  Only call it dead once it is stale by
            # mtime too, so a half-written fresh lease is never broken.
            try:
                return path.stat().st_mtime + 5.0 <= time.time()
            except OSError:
                return False  # vanished: released; caller retries later

    def release_lease(self, key: str) -> None:
        try:
            os.unlink(self._lease_path(key))
        except OSError:
            pass  # expired + broken by a rival, or never granted

    def lease_info(self, key: str) -> Optional[Dict[str, Any]]:
        """The live lease for *key* (owner + expiry), or ``None``."""
        try:
            data = json.loads(self._lease_path(key).read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

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
lease workers (:mod:`repro.sweep.backends`): the workers of every sweep
pointed at the same directory claim trials through atomic lock-file
*leases* (``leases/<key>.lock``, created with ``O_CREAT | O_EXCL`` so
exactly one claimant wins) that carry an owner, its host and pid, and an
expiry; a lease whose holder died (expired, or a pid of this host that
no longer exists) is broken by the one breaker that wins an ``O_EXCL``
token for it, which overwrites it atomically, and the trial is
re-claimed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from .spec import Trial, canonical_json


def _warn(message: str, *args: object) -> None:
    """Log a store-repair warning.  Repairs are rare, so the logging
    machinery loads here on first use, never on a trial's import path."""
    import logging

    logging.getLogger(__name__).warning(message, *args)

#: Bump when the row schema changes shape, or when the values a trial
#: produces change; part of every cache key.
RESULT_SCHEMA = 2

#: ``.tmp-*`` orphans older than this are reaped when a cache is opened.
#: Generous on purpose: a live writer holds its temp file for the few
#: milliseconds between ``mkstemp`` and ``os.replace``, never for an hour.
TMP_REAP_TTL_SECONDS = 3600.0

#: Subdirectory of the cache root holding lease files.
LEASE_DIRNAME = "leases"

#: Subdirectory of the cache root holding each running job's state.
JOBS_DIRNAME = "jobs"

#: Seconds after which an unreadable lease or an orphaned break token
#: counts as abandoned: a live writer holds either for microseconds.
STALE_WRITE_SECONDS = 5.0


def _code_version() -> str:
    from .. import __version__

    return f"{__version__}/schema{RESULT_SCHEMA}"


def _holder_is_gone(lease: Dict[str, Any]) -> bool:
    """True when the lease's holder ran on this host and its pid no
    longer exists.  Holders on other hosts, live pids (a recycled pid
    looks live too) and leases without host/pid fields are left to the
    expiry."""
    import socket  # leases only: serial sweeps never load it

    pid = lease.get("pid")
    if lease.get("host") != socket.gethostname() or type(pid) is not int:
        return False
    if pid <= 0 or pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass  # the pid exists, under another user
    return False


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
    """Write *payload* as JSON via temp file + ``os.replace``: a writer
    killed mid-write leaves the old file (or none) plus a ``.tmp-*``
    orphan, never a torn one."""
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

    Opening it deletes ``.tmp-*`` files older than
    :data:`TMP_REAP_TTL_SECONDS` (leftovers of a writer SIGKILLed between
    ``mkstemp`` and ``os.replace``).
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.root = Path(cache_dir)
        self.reap_stale_tmp()

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
            # Break tokens are unlinked right after the break; one
            # survives only if the breaker died in between.
            patterns[lease_dir] = (".tmp-*", ".break-*")
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
            _warn(
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
        _warn(
            "quarantined corrupt cache entry %s -> %s (%s); "
            "the trial will be recomputed",
            path,
            target.name,
            reason,
        )

    def put(self, key: str, row: Dict[str, Any]) -> None:
        atomic_write_json(self._path(key), row)

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
        """Directory holding one running lease job's state."""
        return self.root / JOBS_DIRNAME / job_id

    def try_lease(self, key: str, owner: str, ttl: float) -> bool:
        """Attempt to claim *key* for *owner* for *ttl* seconds.

        The grant is an atomic ``O_CREAT | O_EXCL`` file creation, so of
        any number of racing claimants exactly one wins.  The lease
        records the claiming process's host and pid next to *owner*.  An
        existing lease that is dead — its expiry has passed, or its
        holder ran on this host and that pid no longer exists (it crashed
        or was SIGKILLed mid-trial) — is *broken* instead: see
        :meth:`_break_lease`.
        """
        import socket  # leases only: serial sweeps never load it

        path = self._lease_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        lease = {
            "owner": owner,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "expires": time.time() + ttl,
        }
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self._break_lease(path, lease)
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(lease, sort_keys=True))
        return True

    def _break_lease(self, path: Path, lease: Dict[str, Any]) -> bool:
        """Replace the dead lease at *path* with *lease*, or return False.

        Breaking must not free the slot, or a plain claimant could be
        granted it while the breaker re-claims it.  So the breaker first
        creates an ``O_EXCL`` token named after the dead lease's content,
        making it the only breaker of that lease; under the token it
        checks that the lease is still the dead one and overwrites it
        atomically.  A slow breaker that wins the token after a break
        finds a different lease and backs off.
        """
        dead = self._dead_lease_text(path)
        if dead is None:
            return False
        digest = hashlib.sha256(dead.encode()).hexdigest()[:16]
        token = path.with_name(f".break-{digest}-{path.name}")
        try:
            os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            # Another breaker holds the token, or one died holding it:
            # clear a stale token so a later attempt can break the lease.
            try:
                if token.stat().st_mtime + STALE_WRITE_SECONDS <= time.time():
                    token.unlink()
            except OSError:
                pass
            return False
        try:
            try:
                if path.read_text() != dead:
                    return False  # broken or released since it was judged
            except OSError:
                return False
            atomic_write_json(path, lease)
            return True
        finally:
            try:
                token.unlink()
            except OSError:
                pass

    @staticmethod
    def _dead_lease_text(path: Path) -> Optional[str]:
        """The content of the lease at *path* if it is dead, else None."""
        try:
            text = path.read_text()
        except OSError:
            return None  # vanished: released; caller retries later
        try:
            lease = json.loads(text)
            expires = float(lease["expires"])
        except (ValueError, KeyError, TypeError):
            # Unreadable: either mid-write (the O_CREAT..write window) or
            # garbage.  Only call it dead once it is stale by mtime too,
            # so a half-written fresh lease is never broken.
            try:
                mtime = path.stat().st_mtime
            except OSError:
                return None
            return text if mtime + STALE_WRITE_SECONDS <= time.time() else None
        if expires <= time.time() or _holder_is_gone(lease):
            return text
        return None

    def release_lease(self, key: str) -> None:
        try:
            os.unlink(self._lease_path(key))
        except OSError:
            pass  # expired + broken by a rival, or never granted

    def lease_info(self, key: str) -> Optional[Dict[str, Any]]:
        """The lease for *key* (owner, host, pid, expiry), or ``None``."""
        try:
            data = json.loads(self._lease_path(key).read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

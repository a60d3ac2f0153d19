"""Lease workers: the lease protocol, lease-worker execution and
accounting, job cleanup, crash-resume after SIGKILL, and
``resume=False`` under lease workers."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

from repro.sweep import (
    ResultCache,
    SweepRunner,
    SweepSpec,
    WorkStealingJob,
    circuit_sha,
    run_sweep,
    trial_key,
)

SPEC = SweepSpec(
    circuits=("s27",),
    algorithms=("independent", "dependent"),
    seeds=(0, 1),
)


# ----------------------------------------------------------------------
# lease protocol
# ----------------------------------------------------------------------
def test_lease_grant_is_exclusive_until_released(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ab" * 32
    assert cache.try_lease(key, "alice", ttl=60.0) is True
    assert cache.try_lease(key, "bob", ttl=60.0) is False
    info = cache.lease_info(key)
    assert info["owner"] == "alice" and info["expires"] > time.time()
    cache.release_lease(key)
    assert cache.lease_info(key) is None
    assert cache.try_lease(key, "bob", ttl=60.0) is True


def _lease_from_reaped_child(cache, key):
    """Have a child process claim *key* for 60 s, then reap it: the lease
    stays on disk, naming this host and a pid that no longer exists."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[3])\n"
        "from repro.sweep import ResultCache\n"
        "cache = ResultCache(sys.argv[1])\n"
        "assert cache.try_lease(sys.argv[2], 'dead-worker', ttl=60.0)\n"
    )
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    subprocess.run(
        [sys.executable, "-c", script, str(cache.root), key, src_dir],
        check=True,
    )
    lease = cache.lease_info(key)
    assert lease["owner"] == "dead-worker" and lease["expires"] > time.time()
    return lease


def test_lease_of_a_dead_local_pid_is_reclaimed_at_once(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ef" * 32
    lease = _lease_from_reaped_child(cache, key)
    assert lease["host"] == socket.gethostname()
    assert lease["pid"] != os.getpid()
    # Far from expired, but its holder is gone: broken without waiting.
    assert cache.try_lease(key, "successor", ttl=60.0) is True
    assert cache.lease_info(key)["owner"] == "successor"
    assert cache.lease_info(key)["pid"] == os.getpid()
    # The successor's pid is alive, so its lease holds.
    assert cache.try_lease(key, "latecomer", ttl=60.0) is False


def test_foreign_host_lease_blocks_until_it_expires(tmp_path):
    cache = ResultCache(tmp_path)
    key = "0f" * 32
    lease = _lease_from_reaped_child(cache, key)
    # The same dead pid, but on another host: this host cannot tell
    # whether it lives, so only the expiry frees the trial.
    lease["host"] = socket.gethostname() + "-elsewhere"
    path = tmp_path / "leases" / f"{key}.lock"
    path.write_text(json.dumps(lease))
    assert cache.try_lease(key, "successor", ttl=60.0) is False
    lease["expires"] = time.time() - 1.0
    path.write_text(json.dumps(lease))
    assert cache.try_lease(key, "successor", ttl=60.0) is True
    assert cache.lease_info(key)["owner"] == "successor"


def test_expired_lease_is_broken_and_reclaimed(tmp_path):
    cache = ResultCache(tmp_path)
    key = "cd" * 32
    assert cache.try_lease(key, "crashed-worker", ttl=0.0) is True
    # The holder is dead (never released); the expiry has passed, so a
    # new claimant breaks the lease and wins it.
    assert cache.try_lease(key, "successor", ttl=60.0) is True
    assert cache.lease_info(key)["owner"] == "successor"
    # ...and the new lease is live, so a third claimant loses.
    assert cache.try_lease(key, "latecomer", ttl=60.0) is False


def test_racing_claimants_exactly_one_wins(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ef" * 32
    barrier = threading.Barrier(8)
    wins = []

    def claim(owner):
        barrier.wait()
        if cache.try_lease(key, owner, ttl=60.0):
            wins.append(owner)

    threads = [
        threading.Thread(target=claim, args=(f"w{i}",)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1
    assert cache.lease_info(key)["owner"] == wins[0]


def test_racing_breakers_of_an_expired_lease_exactly_one_wins(tmp_path):
    """Breakers that all judged the same lease dead race to replace it;
    one that loses must not take the winner's fresh lease for dead."""
    cache = ResultCache(tmp_path)
    n = 8
    for round_no in range(50):
        key = f"{round_no:064x}"
        assert cache.try_lease(key, "crashed-worker", ttl=0.0) is True
        barrier = threading.Barrier(n)
        wins = []

        def claim(owner):
            barrier.wait(timeout=10.0)
            if cache.try_lease(key, owner, ttl=60.0):
                wins.append(owner)

        threads = [
            threading.Thread(target=claim, args=(f"w{i}",)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert len(wins) == 1, (round_no, wins)
        assert cache.lease_info(key)["owner"] == wins[0]


def test_half_written_fresh_lease_is_not_broken(tmp_path):
    cache = ResultCache(tmp_path)
    key = "aa" * 32
    path = cache._lease_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{не json")  # a writer caught mid-write just now
    assert cache.try_lease(key, "rival", ttl=60.0) is False
    # Once it is stale by mtime too, it counts as dead and is broken.
    old = time.time() - 60
    os.utime(path, (old, old))
    assert cache.try_lease(key, "rival", ttl=60.0) is True


# ----------------------------------------------------------------------
# job state
# ----------------------------------------------------------------------
def test_job_claims_and_failed_rows(tmp_path):
    cache = ResultCache(tmp_path)
    entries = [
        (i, trial_key(t, circuit_sha(t.circuit, t.gen_seed)), t)
        for i, t in enumerate(SPEC.trials())
    ]
    keys = [key for _, key, _ in entries]
    job = WorkStealingJob(cache, "job-t", 9.0, entries)

    job.record_claim("w1", 0, keys[0], "ok")
    job.record_claim("w2", 1, keys[1], "failed")
    claims = job.claims()
    assert {c["owner"] for c in claims} == {"w1", "w2"}
    assert [(c["index"], c["key"]) for c in claims] == [
        (0, keys[0]), (1, keys[1])
    ]

    job.write_failed(keys[2], {"status": "failed", "error": "boom"})
    assert job.read_failed(keys[2])["error"] == "boom"
    assert job.is_complete(keys[2])
    assert not job.is_complete(keys[3])

    # Closing deletes the job's directory; its claims stay readable.
    job.close()
    assert not job.root.exists()
    assert job.claims() == claims


# ----------------------------------------------------------------------
# lease-worker execution
# ----------------------------------------------------------------------
def test_lease_workers_without_cache_dir_use_a_temporary_store(
    tmp_path, monkeypatch
):
    """``workers > 1`` with no ``cache_dir`` still runs on lease workers,
    over a temporary store that is gone once the run ends."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    runner = SweepRunner(workers=2)
    result = runner.run(SPEC)
    assert result.stats.executed == result.stats.total == 4
    assert not result.failed_rows()
    assert result.canonical_rows() == run_sweep(SPEC).canonical_rows()
    assert runner.last_job is not None
    assert not runner.last_job.cache.root.exists()
    assert list(tmp_path.iterdir()) == []


def test_work_stealing_rows_identical_to_serial_no_double_execution(
    tmp_path,
):
    serial = run_sweep(SPEC, workers=1)
    runner = SweepRunner(workers=2, cache_dir=tmp_path)
    result = runner.run(SPEC)
    assert result.canonical_rows() == serial.canonical_rows()
    assert result.stats.executed == result.stats.total == 4

    claims = runner.last_job.claims()
    counts = Counter(c["key"] for c in claims)
    assert len(claims) == 4  # one execution per trial...
    assert all(n == 1 for n in counts.values())  # ...never two
    # Execution was genuinely distributed work: claimed trials landed in
    # the shared cache, so a warm re-run serves everything from disk.
    warm = run_sweep(SPEC, workers=1, cache_dir=tmp_path)
    assert warm.stats.cached == 4 and warm.stats.executed == 0
    assert warm.canonical_rows() == serial.canonical_rows()


def test_finished_run_leaves_no_job_directory(tmp_path):
    """Regression: every lease run left ``<cache>/jobs/<job_id>/`` (done
    markers, claims) behind for good, and each ``resume=False`` run added
    another.  The claims outlive the directory."""
    for resume in (True, False):
        runner = SweepRunner(workers=2, cache_dir=tmp_path, resume=resume)
        result = runner.run(SPEC)
        assert result.stats.executed == result.stats.total == 4
        jobs = tmp_path / "jobs"
        assert not jobs.exists() or list(jobs.iterdir()) == []
        claims = runner.last_job.claims()
        assert sorted(c["index"] for c in claims) == list(range(4))


def test_work_stealing_failed_trials_not_cached_and_retried(tmp_path):
    spec = SweepSpec(
        circuits=("s27",), algorithms=("made_up_algo",), seeds=(0, 1)
    )
    runner = SweepRunner(workers=2, cache_dir=tmp_path)
    result = runner.run(spec)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["status"] == "failed" and "made_up_algo" in row["error"]
    assert len(ResultCache(tmp_path)) == 0  # failures never enter the cache
    assert len(runner.last_job.claims()) == 2
    assert not runner.last_job.root.exists()

    # A later job retries the failures (its failed/ area is per-job).
    retry_runner = SweepRunner(workers=2, cache_dir=tmp_path)
    retry = retry_runner.run(spec)
    assert retry.stats.executed == 2
    assert len(retry_runner.last_job.claims()) == 2
    assert retry_runner.last_job.job_id != runner.last_job.job_id


def test_no_resume_under_lease_workers_recomputes_every_trial(tmp_path):
    """Regression: with ``resume=False`` the workers took the warm rows
    already in the cache for completed trials, so the run reported every
    trial executed while no worker claimed any of them."""
    warm = run_sweep(SPEC, workers=2, cache_dir=tmp_path)
    assert warm.stats.executed == 4

    runner = SweepRunner(workers=2, cache_dir=tmp_path, resume=False)
    rerun = runner.run(SPEC)
    claims = runner.last_job.claims()
    assert rerun.stats.cached == 0
    assert rerun.stats.executed == len(claims) == rerun.stats.total == 4
    assert len({c["key"] for c in claims}) == 4
    assert rerun.canonical_rows() == warm.canonical_rows()


def test_sigkilled_worker_lease_expires_and_trial_is_reclaimed(tmp_path):
    """Crash-resume: a worker SIGKILLed mid-lease never releases it; the
    lease must *expire*, the trial must be re-claimed by a survivor, and
    the final rows must be bit-identical to a serial run."""
    cache = ResultCache(tmp_path)
    victim_trial = SPEC.trials()[0]
    victim_key = trial_key(
        victim_trial, circuit_sha(victim_trial.circuit, victim_trial.gen_seed)
    )

    # A real process claims the lease exactly as a worker would, reports
    # readiness, then hangs "mid-trial" until SIGKILL.
    script = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[3])\n"
        "from repro.sweep import ResultCache\n"
        "cache = ResultCache(sys.argv[1])\n"
        "assert cache.try_lease(sys.argv[2], 'victim', ttl=float(sys.argv[4]))\n"
        "print('leased', flush=True)\n"
        "time.sleep(60)\n"
    )
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    victim = subprocess.Popen(
        [sys.executable, "-c", script, str(tmp_path), victim_key,
         src_dir, "1.0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert victim.stdout.readline().strip() == "leased"
        assert cache.lease_info(victim_key)["owner"] == "victim"
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup
            victim.kill()

    # The dead worker's lease is still on disk; the sweep must break it
    # once expired (ttl 1.0s) and execute every trial anyway.
    runner = SweepRunner(workers=2, cache_dir=tmp_path)
    result = runner.run(SPEC)
    failed = [
        (row["trial"], row.get("error"), row.get("traceback"))
        for row in result.failed_rows()
    ]
    assert result.stats.executed == 4 and not failed, (result.stats, failed)

    claims = runner.last_job.claims()
    counts = Counter(c["key"] for c in claims)
    assert counts[victim_key] == 1  # re-claimed exactly once
    assert all(n == 1 for n in counts.values())
    assert "victim" not in {c["owner"] for c in claims}

    serial = run_sweep(SPEC, workers=1)
    assert result.canonical_rows() == serial.canonical_rows()


def test_streaming_yields_rows_in_completion_order(tmp_path):
    runner = SweepRunner(workers=1, cache_dir=tmp_path)
    streamed = list(runner.stream(SPEC))
    assert sorted(i for i, _ in streamed) == list(range(4))
    assert runner.stats.done == runner.stats.total == 4
    assert runner.stats.wall_seconds > 0.0
    # A second streaming pass is fully cache-fed.
    warm = list(SweepRunner(workers=1, cache_dir=tmp_path).stream(SPEC))
    assert [r["trial"] for _, r in sorted(streamed)] == [
        r["trial"] for _, r in sorted(warm)
    ]

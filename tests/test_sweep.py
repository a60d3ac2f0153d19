"""The sweep engine: spec expansion, determinism, cache resume, failure
handling, aggregation, and the ``repro-lock sweep`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.circuits import S27_BENCH
from repro.cli import main
from repro.sweep import (
    ResultCache,
    SweepSpec,
    Trial,
    canonical_row,
    derive_seed,
    overhead_report,
    render_csv,
    render_table,
    run_sweep,
    run_trial,
    security_report,
    summarize,
    trial_key,
)
from repro.sweep import runner as runner_mod

SMALL_SPEC = SweepSpec(
    circuits=("s27",),
    algorithms=("independent", "parametric"),
    seeds=(0, 1, 2),
    attacks=("none", "sat"),
)


# ----------------------------------------------------------------------
# spec expansion and seeding
# ----------------------------------------------------------------------
def test_spec_expands_in_deterministic_order():
    trials = SMALL_SPEC.trials()
    assert len(trials) == 1 * 2 * 3 * 2
    assert trials == SMALL_SPEC.trials()
    # circuit-major, then algorithm, attack, seed.
    assert [t.seed for t in trials[:3]] == [0, 1, 2]
    assert trials[0].algorithm == trials[5].algorithm == "independent"
    assert trials[6].algorithm == "parametric"


def test_spec_rejects_unknown_values():
    with pytest.raises(ValueError):
        SweepSpec(circuits=("s27",), attacks=("zero-day",))
    with pytest.raises(ValueError):
        SweepSpec(circuits=("s27",), analyses=("vibes",))
    with pytest.raises(ValueError):
        SweepSpec.from_dict({"circuits": ["s27"], "chunk": 4})
    with pytest.raises(ValueError):
        SweepSpec.from_dict({})


def test_spec_round_trips_through_json():
    spec = SweepSpec(
        circuits=("s27", "s641"),
        seeds=(1, 2),
        attacks=("sat",),
        attack_params={"sat": {"max_iterations": 8}},
    )
    clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone.trials() == spec.trials()


def test_derived_seeds_are_stable_and_distinct():
    trials = SMALL_SPEC.trials()
    assert trials[0].attack_seed == trials[0].attack_seed
    assert len({t.attack_seed for t in trials}) == len(trials)
    assert derive_seed("a") != derive_seed("b")


# ----------------------------------------------------------------------
# determinism: serial ≡ parallel ≡ cached
# ----------------------------------------------------------------------
def test_parallel_rows_identical_to_serial(tmp_path):
    serial = run_sweep(SMALL_SPEC, workers=1, cache_dir=tmp_path / "a")
    parallel = run_sweep(SMALL_SPEC, workers=4, cache_dir=tmp_path / "b")
    assert serial.stats.executed == parallel.stats.executed == 12
    assert not serial.failed_rows()
    assert serial.canonical_rows() == parallel.canonical_rows()


def test_canonical_row_strips_only_nondeterministic_fields():
    row = run_trial(SMALL_SPEC.trials()[0])
    assert "trial_seconds" in row["timing"]
    canonical = canonical_row(row)
    assert "timing" not in canonical
    assert canonical["metrics"] == row["metrics"]
    assert canonical_row(None) is None


# ----------------------------------------------------------------------
# cache + resume
# ----------------------------------------------------------------------
def test_resume_executes_only_missing_trials(tmp_path):
    cache_dir = tmp_path / "cache"
    first = SweepSpec(circuits=("s27",), seeds=(0, 1))
    partial = run_sweep(first, cache_dir=cache_dir)
    assert partial.stats.executed == 6

    superset = SweepSpec(circuits=("s27",), seeds=(0, 1, 2))
    resumed = run_sweep(superset, cache_dir=cache_dir)
    assert resumed.stats.cached == 6
    assert resumed.stats.executed == 3  # only the seed-2 trials
    cached_rows = [
        r for r in resumed.rows if r["timing"].get("from_cache")
    ]
    assert len(cached_rows) == 6

    # A cached row is bit-identical to its freshly executed counterpart.
    fresh = run_sweep(superset, cache_dir=tmp_path / "fresh")
    assert resumed.canonical_rows() == fresh.canonical_rows()


def test_no_resume_reruns_but_still_records(tmp_path):
    cache_dir = tmp_path / "cache"
    spec = SweepSpec(circuits=("s27",), algorithms=("independent",))
    run_sweep(spec, cache_dir=cache_dir)
    rerun = run_sweep(spec, cache_dir=cache_dir, resume=False)
    assert rerun.stats.cached == 0 and rerun.stats.executed == 1


def test_cache_disabled_every_trial_executes(tmp_path):
    spec = SweepSpec(circuits=("s27",), algorithms=("independent",))
    assert run_sweep(spec).stats.executed == 1
    assert run_sweep(spec).stats.executed == 1


def test_cache_key_is_content_addressed(tmp_path):
    trial = SMALL_SPEC.trials()[0]
    key = trial_key(trial, "a" * 64)
    assert key == trial_key(trial, "a" * 64)
    # Any coordinate of the causal input moves the key.
    assert key != trial_key(trial, "b" * 64)  # netlist content
    for change in (
        {"seed": 99},
        {"algorithm": "dependent"},
        {"attack": "brute"},
        {"params": (("decoy_inputs", 2),)},
        {"analyses": ("ppa",)},
    ):
        other = Trial(**{**trial.__dict__, **change})
        assert key != trial_key(other, "a" * 64), change


def test_editing_a_bench_file_invalidates_its_rows(tmp_path):
    path = tmp_path / "c.bench"
    path.write_text(S27_BENCH)
    spec = SweepSpec(circuits=(str(path),), algorithms=("independent",))
    cache_dir = tmp_path / "cache"
    run_sweep(spec, cache_dir=cache_dir)

    # Comment/formatting edits don't invalidate (canonical serialisation)…
    path.write_text("# a comment\n" + S27_BENCH)
    from repro.sweep.trial import _NETLIST_MEMO, _SHA_MEMO

    _NETLIST_MEMO.clear(), _SHA_MEMO.clear()
    assert run_sweep(spec, cache_dir=cache_dir).stats.cached == 1

    # …but structural edits do.
    path.write_text(S27_BENCH.replace("G14 = NOT(G0)", "G14 = BUF(G0)"))
    _NETLIST_MEMO.clear(), _SHA_MEMO.clear()
    edited = run_sweep(spec, cache_dir=cache_dir)
    assert edited.stats.cached == 0 and edited.stats.executed == 1


def test_corrupt_cache_entry_is_quarantined(tmp_path, caplog):
    cache = ResultCache(tmp_path)
    cache.put("ab" * 32, {"status": "ok"})
    assert cache.get("ab" * 32) == {"status": "ok"}
    assert len(cache) == 1
    path = cache._path("ab" * 32)
    path.write_text("{not json")
    with caplog.at_level("WARNING", logger="repro.sweep.cache"):
        assert cache.get("ab" * 32) is None
    # The garbage was not silently swallowed: it is renamed aside with a
    # warning, disappears from the index, and the evidence survives.
    assert "quarantined corrupt cache entry" in caplog.text
    assert not path.exists()
    quarantined = path.with_name(path.name + ".corrupt")
    assert quarantined.read_text() == "{not json"
    assert len(cache) == 0 and "ab" * 32 not in cache
    # A fresh put overwrites cleanly and is served again.
    cache.put("ab" * 32, {"status": "retry"})
    assert cache.get("ab" * 32) == {"status": "retry"}
    assert cache.get("cd" * 32) is None  # plain miss: no warning, no file


def test_non_object_cache_row_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("ef" * 32, {"status": "ok"})
    cache._path("ef" * 32).write_text('["valid json", "wrong shape"]')
    assert cache.get("ef" * 32) is None
    assert cache._path("ef" * 32).with_name(
        f"{'ef' * 32}.json.corrupt"
    ).exists()


def test_tmp_orphans_are_not_cache_keys(tmp_path):
    """Regression: ``iter_keys``/``__len__`` globbed ``*.json``, and
    pathlib globs match dotfiles — a ``.tmp-*.json`` orphan from a writer
    killed between ``mkstemp`` and ``os.replace`` surfaced as a bogus
    cache key."""
    cache = ResultCache(tmp_path)
    key = "ab" * 32
    cache.put(key, {"status": "ok"})
    orphan = cache._path(key).parent / ".tmp-dead12.json"
    orphan.write_text('{"status": "ok"')  # half-written, never replaced
    assert list(cache.iter_keys()) == [key]
    assert len(cache) == 1
    assert ".tmp-dead12" not in cache


def test_writer_killed_mid_put_leaves_no_key_and_is_reaped(tmp_path):
    """Kill a real writer between ``mkstemp`` and ``os.replace`` with
    SIGKILL; its orphan must be invisible to the index and reaped on the
    next cache open once stale."""
    import os
    import signal
    import subprocess
    import sys
    import time

    key = "cd" * 32
    script = (
        "import os, sys, tempfile, time\n"
        "from pathlib import Path\n"
        "shard = Path(sys.argv[1]) / sys.argv[2][:2]\n"
        "shard.mkdir(parents=True, exist_ok=True)\n"
        "fd, tmp = tempfile.mkstemp(dir=str(shard), prefix='.tmp-',"
        " suffix='.json')\n"
        "os.write(fd, b'{\"status\": ')\n"
        "print('ready', flush=True)\n"
        "time.sleep(60)\n"  # SIGKILLed here, before os.replace
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(tmp_path), key],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().strip() == "ready"
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()

    (orphan,) = (tmp_path / key[:2]).glob(".tmp-*")
    cache = ResultCache(tmp_path)  # young orphan: kept, but invisible
    assert list(cache.iter_keys()) == []
    assert len(cache) == 0
    assert orphan.exists()

    # Backdate the orphan past the TTL: the next open reaps it.
    stale = time.time() - 7200
    os.utime(orphan, (stale, stale))
    assert ResultCache(tmp_path).reap_stale_tmp() == 0  # __init__ reaped
    assert not orphan.exists()

    # A worker-mode open (reap_tmp_ttl=None) never scans.
    orphan.write_text("x")
    os.utime(orphan, (stale, stale))
    ResultCache(tmp_path, reap_tmp_ttl=None)
    assert orphan.exists()


# ----------------------------------------------------------------------
# failure handling
# ----------------------------------------------------------------------
def test_failed_trial_is_recorded_not_fatal(tmp_path):
    spec = SweepSpec(
        circuits=("s27", "no_such_circuit"), algorithms=("independent",)
    )
    result = run_sweep(spec, cache_dir=tmp_path / "cache")
    assert result.stats.total == 2 and result.stats.failed == 1
    (failed,) = result.failed_rows()
    assert failed["trial"]["circuit"] == "no_such_circuit"
    assert "no_such_circuit" in failed["error"]
    assert len(result.ok_rows()) == 1

    # Failures are not cached: a resume retries them (and only them).
    retry = run_sweep(spec, cache_dir=tmp_path / "cache")
    assert retry.stats.cached == 1 and retry.stats.failed == 1


def test_algorithm_error_inside_worker_is_captured():
    spec = SweepSpec(circuits=("s27",), algorithms=("made_up_algo",))
    result = run_sweep(spec, workers=2)
    (row,) = result.rows
    assert row["status"] == "failed"
    assert "made_up_algo" in row["error"]


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_reports_rebuild_from_rows():
    row = run_trial(SweepSpec(circuits=("s27",)).trials()[0])
    overhead = overhead_report(row)
    assert overhead.circuit == "s27" and overhead.n_stt == 5
    security = security_report(row)
    assert security.n_missing == 5
    assert security.log10_test_clocks("independent") > 0


def test_summarize_and_renderers():
    result = run_sweep(
        SweepSpec(circuits=("s27",), algorithms=("independent",), seeds=(0, 1))
    )
    headers, rows = summarize(result.rows)
    assert headers[:2] == ["circuit", "algorithm"]
    assert rows[0][:3] == ("s27", "independent", 2)
    table = render_table(result.rows)
    assert "s27" in table and "±" in table
    csv_text = render_csv(result.rows)
    assert csv_text.count("\n") == 3  # header + 2 rows
    assert "independent" in csv_text


# ----------------------------------------------------------------------
# progress + CLI
# ----------------------------------------------------------------------
def test_progress_events_and_eta(tmp_path):
    events = []
    spec = SweepSpec(circuits=("s27",), seeds=(0, 1))
    run_sweep(spec, cache_dir=tmp_path / "c", progress=events.append)
    trial_events = [e for e in events if e["event"] == "trial"]
    assert len(trial_events) == 6
    assert trial_events[-1]["done"] == trial_events[-1]["total"] == 6
    assert trial_events[-1]["eta"] == 0.0
    assert all(e["eta"] >= 0.0 for e in trial_events)

    events.clear()
    run_sweep(spec, cache_dir=tmp_path / "c", progress=events.append)
    resume = events[0]
    assert resume["event"] == "resume"
    assert resume["done"] == resume["total"] == resume["cached"] == 6


def test_progress_done_counter_matches_event_count(tmp_path):
    """Regression pin for the O(n²) ``done`` recomputation: the running
    counter must agree with an independent count maintained by the
    consumer, event by event, for cold, warm, and partially-failed runs."""
    for spec, cache_dir in (
        (SweepSpec(circuits=("s27",), seeds=(0, 1, 2)), tmp_path / "a"),
        (SweepSpec(circuits=("s27", "bogus"), seeds=(0,)), tmp_path / "b"),
    ):
        for _ in range(2):  # cold pass, then warm pass
            seen = {"done": 0}

            def progress(event, seen=seen):
                if event["event"] == "resume":
                    seen["done"] = event["done"]
                    assert event["done"] == event["cached"]
                elif event["event"] == "trial":
                    seen["done"] += 1
                    assert event["done"] == seen["done"]

            result = run_sweep(spec, cache_dir=cache_dir, progress=progress)
            assert seen["done"] == result.stats.total == result.stats.done


def test_resolve_failure_emits_failed_trial_event(tmp_path):
    """Regression: trials whose circuit could not even be resolved never
    emitted a ``trial`` event, so progress consumers under-counted
    against ``total``."""
    events = []
    spec = SweepSpec(
        circuits=("no_such_circuit", "s27"), algorithms=("independent",)
    )
    result = run_sweep(spec, cache_dir=tmp_path / "c", progress=events.append)
    assert result.stats.failed == 1
    trial_events = [e for e in events if e["event"] == "trial"]
    assert len(trial_events) == result.stats.total == 2
    (failed_event,) = [e for e in trial_events if e["status"] == "failed"]
    assert "no_such_circuit" in failed_event["label"]
    assert trial_events[-1]["done"] == 2


def test_cli_sweep_runs_and_resumes(tmp_path, capsys):
    out = tmp_path / "rows.json"
    argv = [
        "sweep",
        "--circuits", "s27",
        "--algorithms", "independent,parametric",
        "--seeds", "0:2",
        "--workers", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--format", "json",
        "--out", str(out),
        "--quiet",
    ]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["stats"]["executed"] == 4
    assert {row["status"] for row in payload["rows"]} == {"ok"}

    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "4 cached" in captured.err
    warm = json.loads(out.read_text())
    assert warm["stats"]["cached"] == 4 and warm["stats"]["executed"] == 0


def test_cli_sweep_spec_file_and_table(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {"circuits": ["s27"], "algorithms": ["independent"], "seeds": [0]}
        )
    )
    assert (
        main(
            [
                "sweep",
                "--spec", str(spec_path),
                "--no-cache",
                "--workers", "1",
                "--quiet",
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "s27" in captured.out and "independent" in captured.out


def test_cli_sweep_exit_code_on_failure(tmp_path):
    assert (
        main(
            [
                "sweep",
                "--circuits", "s27,bogus",
                "--algorithms", "independent",
                "--seeds", "5",
                "--workers", "1",
                "--no-cache",
                "--quiet",
            ]
        )
        == 1
    )


def test_resume_event_fires_even_with_cold_cache(tmp_path):
    """Regression: the resume event used to be skipped when nothing was
    cached, so consumers could not distinguish 'cold cache' from 'no
    resume attempted'."""
    events = []
    spec = SweepSpec(circuits=("s27",), algorithms=("independent",))
    run_sweep(spec, cache_dir=tmp_path / "c", progress=events.append)
    resume = events[0]
    assert resume["event"] == "resume"
    assert resume["cached"] == 0 and resume["done"] == 0
    assert resume["total"] == 1


def test_eta_is_boundary_safe():
    """Regression: a ~0s first trial divided by zero-ish elapsed time and
    a fully-cached resume divided by executed == 0."""
    eta = runner_mod.SweepRunner._eta
    assert eta(0.0, 0, 5) == 0.0  # nothing executed yet
    assert eta(10.0, 4, 0) == 0.0  # nothing remaining
    assert eta(-0.001, 1, 5) == 0.0  # clock skew never goes negative
    assert eta(2.0, 4, 6) == pytest.approx(3.0)
    assert eta(0.0, 3, 7) == 0.0  # instant trials: finite, not inf/nan


# ----------------------------------------------------------------------
# tracing integration
# ----------------------------------------------------------------------
def test_rows_carry_span_trees_under_the_timing_key():
    row = run_trial(SMALL_SPEC.trials()[0])
    payload = row["timing"]["obs"]
    assert payload["schema"] == "repro.obs/1"
    names = [s["name"] for s in payload["spans"]]
    assert names[0] == "sweep.trial"
    assert "trial.lock" in names
    # The span tree rides in the excluded timing block, so it never
    # perturbs the canonical (cacheable) row.
    assert "timing" not in canonical_row(row)


def test_traced_warm_resume_is_bit_identical(tmp_path):
    from repro.obs import Recorder, use_recorder

    spec = SweepSpec(circuits=("s27",), algorithms=("independent",), seeds=(0, 1))
    cache_dir = tmp_path / "cache"
    cold = run_sweep(spec, cache_dir=cache_dir)
    with use_recorder(Recorder()):
        warm = run_sweep(spec, cache_dir=cache_dir)
    assert warm.stats.cached == 2 and warm.stats.executed == 0
    assert warm.canonical_rows() == cold.canonical_rows()


def test_parallel_traced_run_merges_worker_spans(tmp_path):
    from repro.obs import Recorder, use_recorder

    spec = SweepSpec(
        circuits=("s27",),
        algorithms=("independent",),
        seeds=(0, 1),
        attacks=("sat",),
    )
    recorder = Recorder()
    with use_recorder(recorder):
        result = run_sweep(spec, workers=2, cache_dir=tmp_path / "c")
    assert result.stats.executed == 2

    (run_span,) = recorder.find("sweep.run")
    trial_spans = recorder.find("sweep.trial")
    assert len(trial_spans) == 2
    # Worker span trees are re-parented under the run span, with their
    # own children intact below them.
    assert all(s.parent == run_span.index for s in trial_spans)
    for trial_span in trial_spans:
        child_names = [c.name for c in recorder.children(trial_span.index)]
        assert "trial.lock" in child_names
    # Counters from both workers sum into the parent recorder.
    assert recorder.counters.get("oracle.test_clocks", 0) > 0
    assert recorder.counters.get("sim.codegen_compiles", 0) >= 2
    assert recorder.gauges["sweep.wall_seconds"] == pytest.approx(
        result.stats.wall_seconds
    )
    # Summed trial spans stay within the run's wall clock.
    assert sum(s.duration for s in trial_spans) <= (
        result.stats.wall_seconds * 2 + 1.0
    )


def test_cli_seed_range_parsing():
    from repro.cli import _parse_int_list

    assert _parse_int_list("0:4") == [0, 1, 2, 3]
    assert _parse_int_list("7") == [7]
    assert _parse_int_list("0:2,9") == [0, 1, 9]
    with pytest.raises(SystemExit):
        _parse_int_list(" , ")

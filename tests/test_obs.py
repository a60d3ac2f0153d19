"""The tracing/metrics layer: recorder semantics, cross-process merging,
exporters, pipeline instrumentation, and the ``--trace`` CLI plumbing."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.circuits import load_benchmark
from repro.obs import (
    NULL_SPAN,
    Recorder,
    Stopwatch,
    add_counter,
    enabled,
    get_recorder,
    record_error,
    render_text,
    set_gauge,
    span,
    summarize_chrome_trace,
    to_chrome_trace,
    to_json,
    use_recorder,
)

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# recorder core
# ----------------------------------------------------------------------
def test_span_nesting_and_ordering():
    rec = Recorder()
    with rec.span("outer", circuit="s27") as outer:
        with rec.span("inner.a") as a:
            pass
        with rec.span("inner.b") as b:
            b.set(clocks=3)
    assert [s.name for s in rec.spans] == ["outer", "inner.a", "inner.b"]
    assert outer.parent is None
    assert a.parent == outer.index and b.parent == outer.index
    assert outer.attrs == {"circuit": "s27"}
    assert b.attrs == {"clocks": 3}
    # Children start inside the parent and the parent's duration covers them.
    assert a.start >= outer.start
    assert b.start >= a.start
    assert outer.duration >= a.duration + b.duration
    assert rec.children(outer.index) == [a, b]
    assert rec.find("inner.a") == [a]
    assert rec.total("inner.a") == a.duration


def test_span_survives_exceptions():
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with rec.span("doomed"):
            raise RuntimeError("boom")
    (record,) = rec.spans
    assert record.duration > 0.0
    assert rec.current_span() is None  # the stack unwound


def test_counters_are_typed():
    rec = Recorder()
    rec.add_counter("oracle.test_clocks", 5)
    rec.add_counter("oracle.test_clocks")
    assert rec.counters["oracle.test_clocks"] == 6
    with pytest.raises(TypeError):
        rec.add_counter("bad", 1.5)
    with pytest.raises(TypeError):
        rec.add_counter("bad", True)
    rec.set_gauge("wall", 1.25)
    rec.set_gauge("wall", 2.5)  # last write wins
    assert rec.gauges["wall"] == 2.5
    with pytest.raises(TypeError):
        rec.set_gauge("bad", "fast")
    with pytest.raises(TypeError):
        rec.set_gauge("bad", False)


def test_ambient_api_is_noop_when_disabled():
    assert not enabled() and get_recorder() is None
    with span("ghost", x=1) as sp:
        assert sp is NULL_SPAN
        sp.set(anything="goes")
    add_counter("ghost.counter")
    set_gauge("ghost.gauge", 1.0)
    record_error("ghost error")


def test_use_recorder_installs_and_restores():
    outer, inner = Recorder(), Recorder()
    with use_recorder(outer):
        assert get_recorder() is outer
        with span("a"):
            add_counter("hits")
        with use_recorder(inner):
            assert get_recorder() is inner
            with span("b"):
                add_counter("hits", 2)
        assert get_recorder() is outer
    assert get_recorder() is None
    assert [s.name for s in outer.spans] == ["a"]
    assert outer.counters == {"hits": 1}
    assert [s.name for s in inner.spans] == ["b"]
    assert inner.counters == {"hits": 2}


def test_merge_child_rebases_reparents_and_sums():
    parent = Recorder()
    child = Recorder()
    child.epoch_wall = parent.epoch_wall + 10.0  # child started 10s later
    with child.span("child.root"):
        with child.span("child.leaf"):
            pass
    child.add_counter("hits", 3)
    child.set_gauge("speed", 7.0)
    child.record_error("child oops")
    payload = json.loads(json.dumps(child.to_dict()))  # through real JSON

    with parent.span("sweep.run") as run_span:
        pass
    parent.add_counter("hits", 1)
    parent.merge_child(payload, parent=run_span)

    names = {s.name: s for s in parent.spans}
    assert set(names) == {"sweep.run", "child.root", "child.leaf"}
    # Child roots hang under the given parent; internal edges are remapped.
    assert names["child.root"].parent == run_span.index
    assert names["child.leaf"].parent == names["child.root"].index
    # Wall-epoch rebasing: the child's spans land ~10s after the parent's.
    assert names["child.root"].start >= 10.0
    assert parent.counters == {"hits": 4}
    assert parent.gauges == {"speed": 7.0}
    assert [e["message"] for e in parent.errors] == ["child oops"]


def test_merge_child_rejects_unknown_schema():
    with pytest.raises(ValueError):
        Recorder().merge_child({"schema": "repro.obs/999", "spans": []})


def test_stopwatch():
    clock = Stopwatch()
    first = clock.elapsed()
    assert first >= 0.0
    assert clock.elapsed() >= first
    lap = clock.restart()
    assert lap >= first
    assert clock.elapsed() <= lap + 1.0


def test_span_attrs_coerced_to_json():
    rec = Recorder()
    with rec.span("s") as sp:
        sp.set(path=Path("/tmp/x"), items=(1, 2), table={"k": Path("/y")})
    payload = json.loads(json.dumps(rec.to_dict()))
    attrs = payload["spans"][0]["attrs"]
    assert attrs["items"] == [1, 2]
    assert isinstance(attrs["path"], str)
    assert isinstance(attrs["table"]["k"], str)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _sample_recorder() -> Recorder:
    rec = Recorder()
    with rec.span("attack.testing", circuit="s27"):
        with rec.span("attack.testing.round", round=1):
            pass
    rec.add_counter("oracle.test_clocks", 9)
    rec.set_gauge("sweep.wall_seconds", 0.5)
    rec.record_error("one bad thing", where="here")
    return rec


def test_chrome_trace_schema():
    rec = _sample_recorder()
    document = json.loads(json.dumps(to_chrome_trace(rec)))
    events = document["traceEvents"]
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["gauges"] == {"sweep.wall_seconds": 0.5}
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == [
        "attack.testing",
        "attack.testing.round",
    ]
    for event in complete:
        # The Chrome trace-event contract: µs timestamps/durations, a
        # pid/tid lane, a category, JSON-safe args.
        assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["cat"] == "attack"
    (counter,) = [e for e in events if e["ph"] == "C"]
    assert counter["name"] == "oracle.test_clocks"
    assert counter["args"]["value"] == 9
    (instant,) = [e for e in events if e["ph"] == "i"]
    assert instant["s"] == "g" and "one bad thing" in instant["name"]


def test_summarize_accepts_dict_and_bare_array_forms():
    document = to_chrome_trace(_sample_recorder())
    for form in (document, document["traceEvents"]):
        text = summarize_chrome_trace(form)
        assert "attack.testing" in text
        assert "oracle.test_clocks" in text
        assert "errors: 1" in text


def test_render_text_tree_and_json_round_trip():
    rec = _sample_recorder()
    text = render_text(rec)
    lines = text.splitlines()
    assert lines[0].startswith("attack.testing ")
    assert lines[1].startswith("  attack.testing.round ")
    assert any("oracle.test_clocks" in line for line in lines)
    assert render_text({"spans": []}) == "(empty trace)"
    payload = json.loads(to_json(rec))
    assert payload["schema"] == "repro.obs/1"
    assert len(payload["spans"]) == 2


# ----------------------------------------------------------------------
# the perf_counter ban (belt to the ruff TID251 braces)
# ----------------------------------------------------------------------
def test_no_raw_perf_counter_outside_obs():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if "obs" not in path.parts
        and any(
            "perf_counter" in line and not line.lstrip().startswith("#")
            for line in path.read_text().splitlines()
        )
    ]
    assert offenders == [], (
        "raw time.perf_counter outside repro.obs — use Stopwatch/span: "
        f"{offenders}"
    )


def test_no_unseeded_randomness():
    """Ban ``random.seed`` and argless ``random.Random()`` everywhere in
    ``src/repro`` (belt to the ruff TID251 braces): reseeding the global
    RNG or drawing an OS-entropy stream breaks the reproduction-coordinate
    contract — every stream must be ``random.Random(derive_seed(...))``.
    """
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    banned = ("random.seed(", "random.Random()")
    offenders = [
        f"{path.relative_to(src)}:{lineno}"
        for path in sorted(src.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if not line.lstrip().startswith("#")
        and any(pattern in line for pattern in banned)
    ]
    assert offenders == [], (
        "unseeded/global randomness — derive the stream with "
        f"random.Random(derive_seed(...)): {offenders}"
    )


# ----------------------------------------------------------------------
# pipeline instrumentation
# ----------------------------------------------------------------------
def _locked_pair(seed: int = 7):
    from repro.check.checks_attacks import _lock_small
    from repro.lut.mapping import HybridMapper

    hybrid = _lock_small(load_benchmark("s27"), random.Random(seed))
    assert hybrid is not None
    return hybrid, HybridMapper().strip_configs(hybrid)


def test_testing_attack_spans_attribute_oracle_cost():
    from repro.attacks import ConfiguredOracle, TestingAttack

    hybrid, foundry = _locked_pair()
    oracle = ConfiguredOracle(hybrid, scan=True)
    rec = Recorder()
    with use_recorder(rec):
        outcome = TestingAttack(foundry, oracle, seed=3).run()

    (root,) = rec.find("attack.testing")
    assert root.attrs["test_clocks"] == outcome.test_clocks
    assert root.attrs["oracle_queries"] == outcome.oracle_queries
    assert root.attrs["success"] == outcome.success
    rounds = rec.find("attack.testing.round")
    assert rounds and all(r.parent == root.index for r in rounds)
    assert (
        sum(r.attrs["test_clocks"] for r in rounds) == outcome.test_clocks
    )
    assert rec.counters["oracle.test_clocks"] == outcome.test_clocks
    assert rec.counters["oracle.queries"] == outcome.oracle_queries


def test_attack_results_identical_with_and_without_tracing():
    from repro.attacks import ConfiguredOracle, TestingAttack

    hybrid, foundry = _locked_pair(seed=11)

    def run_once():
        oracle = ConfiguredOracle(hybrid, scan=True)
        outcome = TestingAttack(
            foundry.copy(foundry.name), oracle, seed=5
        ).run()
        return (
            dict(outcome.resolved),
            outcome.test_clocks,
            outcome.oracle_queries,
        )

    untraced = run_once()
    with use_recorder(Recorder()):
        traced = run_once()
    assert traced == untraced


def test_solver_counters_sum_to_the_final_stats():
    from repro.sat.solver import Solver

    rng = random.Random(7)
    solver = Solver()
    for _ in range(170):
        solver.add_clause(
            [rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(3)]
        )
    rec = Recorder()
    with use_recorder(rec):
        for _ in range(6):
            solver.solve([rng.choice((-1, 1)) * rng.randint(1, 40)])
    assert solver.stats["conflicts"] > 0
    for name, value in solver.stats.items():
        assert rec.counters[f"sat.{name}"] == value, name


def test_sat_counters_agree_with_the_row():
    from repro.sweep import Trial, run_trial

    row = run_trial(
        Trial(circuit="s27", algorithm="independent", seed=0, attack="sat",
              analyses=())
    )
    attack = row["metrics"]["attack"]
    assert attack["success"] and attack["key_verified"]
    obs = row["timing"]["obs"]
    counters = obs["counters"]
    verify = [s for s in obs["spans"] if s["name"] == "attack.sat.verify"]
    assert len(verify) == 1 and verify[0]["attrs"]["equivalent"]
    assert counters["sat.solver_conflicts"] == attack["solver_conflicts"]
    # The attack's solver plus the key-verification proof: every solve
    # of the trial.
    assert counters["sat.conflicts"] == (
        attack["solver_conflicts"] + verify[0]["attrs"]["solver_conflicts"]
    )
    assert counters["sat.decisions"] > 0 and counters["sat.propagations"] > 0


def test_justify_counters_count_implications_and_backtracks(s27):
    from repro.sim import justify

    rec = Recorder()
    with use_recorder(rec):
        assert justify(s27, {"G11": 1}, rng=random.Random(0)) is not None
        assert justify(s27, {"G11": 1, "G10": 1}, rng=random.Random(0)) is None
    assert rec.counters["justify.implications"] > 2
    assert rec.counters["justify.backtracks"] > 0


def test_lock_algorithm_records_stage_spans():
    from repro.locking import ALGORITHMS

    rec = Recorder()
    with use_recorder(rec):
        result = ALGORITHMS["independent"](seed=0).run(load_benchmark("s27"))
    (root,) = rec.find("lock.independent")
    assert root.attrs["n_stt"] == result.n_stt
    stages = [s.name for s in rec.children(root.index)]
    assert stages == [
        "lock.paths",
        "lock.select",
        "lock.replace",
        "lock.provision",
    ]


def _traced_collect(netlist, seed):
    from repro.analysis import PathFinder

    finder = PathFinder(netlist, seed=seed)
    components = finder.sample_components()
    rec = Recorder()
    with use_recorder(rec):
        paths = finder.collect_paths(components, exclude_critical=False)
    return finder, components, paths, rec.counters


@pytest.mark.parametrize("seed", range(4))
def test_path_search_counters_agree_with_paths(seed):
    from repro.analysis import PathFinder

    s641 = load_benchmark("s641")
    finder, components, paths, counters = _traced_collect(s641, seed)
    rounds = 1 + counters.get("paths.relaxed_requirement", 0)
    assert finder.ff_requirement == finder.min_flip_flops - rounds + 1
    assert counters["paths.searches"] == rounds * len(components)
    # Relaxation only follows a round that found nothing, so every unique
    # path found is one of the returned paths.
    assert counters["paths.found"] == len(paths) > 0
    assert all(p.n_flip_flops >= finder.ff_requirement for p in paths)
    # One or two DFS walks per search, each of at least one step.
    assert counters["paths.dfs_steps"] >= counters["paths.searches"]
    # Counting never draws from the RNG: the untraced run is identical.
    untraced = PathFinder(s641, seed=seed)
    assert untraced.sample_components() == components
    assert untraced.collect_paths(components, exclude_critical=False) == paths
    assert untraced.rng.getstate() == finder.rng.getstate()


def test_path_search_counters_record_relaxation_and_exhaustion(tiny_comb):
    from repro.netlist import find_io_path

    finder, components, paths, counters = _traced_collect(tiny_comb, 0)
    # No flip-flops at all: the requirement relaxes from 2 down to 0.
    assert counters["paths.relaxed_requirement"] == 2
    assert finder.ff_requirement == 0
    assert counters["paths.searches"] == 3 * len(components)
    assert counters["paths.found"] == len(paths) > 0

    # A one-step budget runs out on the first candidate of the backward
    # walk, and the forward walk never starts.
    rec = Recorder()
    with use_recorder(rec):
        found = find_io_path(
            load_benchmark("s641"), "g0", rng=random.Random(0), max_steps=1
        )
    assert found is None
    assert rec.counters["paths.budget_exhausted"] == 1
    assert rec.counters["paths.dfs_steps"] == 1


def test_lock_paths_span_carries_count_and_requirement():
    from repro.locking import ALGORITHMS

    rec = Recorder()
    with use_recorder(rec):
        result = ALGORITHMS["independent"](seed=0).run(load_benchmark("s641"))
    (paths_span,) = rec.find("lock.paths")
    assert paths_span.attrs["n_paths"] == len(result.io_paths)
    depths = [p.n_flip_flops for p in result.io_paths]
    assert 0 <= paths_span.attrs["ff_requirement"] <= min(depths)


@pytest.mark.parametrize("circuit,seed", [("s641", 1), ("s820", 3), ("s1196", 2)])
def test_parametric_guard_counters_agree_with_the_lock(circuit, seed, monkeypatch):
    from repro.locking import ParametricSelection

    calls = []
    real = ParametricSelection._trial_delay

    def counted(self, netlist, names):
        calls.append(len(names))
        return real(self, netlist, names)

    monkeypatch.setattr(ParametricSelection, "_trial_delay", counted)
    rec = Recorder()
    with use_recorder(rec):
        result = ParametricSelection(seed=seed).run(load_benchmark(circuit))
    counters = rec.counters
    assert result.n_stt > 0  # no least-impact fallback: every delay is a guard
    assert counters["parametric.usl_skipped"] == len(
        result.params["skipped_neighbours"]
    ) > 0
    accepts = counters["parametric.guard_accepts"]
    rejects = counters["parametric.guard_rejects"]
    assert accepts > 0 and rejects > 0
    assert accepts + rejects == len(calls)


@pytest.mark.parametrize("algorithm", ["independent", "dependent", "parametric"])
def test_second_trial_of_a_circuit_shares_every_wiring(algorithm):
    from repro.sweep import Trial, run_trial

    def counters(seed):
        trial = Trial(
            circuit="s641",
            algorithm=algorithm,
            seed=seed,
            analyses=("ppa", "security"),
        )
        row = run_trial(trial)
        assert row["status"] == "ok"
        return row["timing"]["obs"]["counters"]

    counters(0)  # warm the process: circuit, views and wiring holders
    second = counters(1)
    assert second["netlist.csr.builds"] > 0
    assert second["netlist.csr.wiring_shared"] == second["netlist.csr.builds"]


def test_lint_sta_failure_becomes_diagnostic():
    from repro.lint import Linter
    from repro.netlist.gates import GateType
    from repro.netlist.netlist import Netlist

    # A combinational loop: structurally broken, untimeable.
    loop = Netlist("looped")
    loop.add_input("a")
    loop.add_gate("g1", GateType.AND, ["a", "g2"])
    loop.add_gate("g2", GateType.NOT, ["g1"])
    loop.add_output("g1")

    rec = Recorder()
    with use_recorder(rec):
        report = Linter().run(loop)
    assert report.diagnostics, "STA failure must surface as a diagnostic"
    assert "STA failed" in report.diagnostics[0]
    assert any("STA failed" in e["message"] for e in rec.errors)
    # Rendered, not just stored.
    assert "STA failed" in report.render_text()
    assert report.to_json_dict()["diagnostics"] == report.diagnostics


def test_flow_records_stage_spans():
    from repro.locking import SecurityDrivenFlow, SecurityLevel
    from repro.locking.flow import SecurityRequirement

    rec = Recorder()
    with use_recorder(rec):
        SecurityDrivenFlow().run(
            load_benchmark("s27"),
            SecurityRequirement(level=SecurityLevel.BASIC),
        )
    (root,) = rec.find("flow.run")
    stage_names = [s.name for s in rec.children(root.index)]
    assert stage_names[0] == "flow.preflight"
    assert "flow.select" in stage_names
    assert "flow.signoff" in stage_names
    assert "flow.postflight" in stage_names


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_trace_writes_chrome_json_and_summarizes(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "lock.trace.json"
    out = tmp_path / "hybrid.bench"
    assert (
        main(
            [
                "lock",
                "s27",
                "--algorithm",
                "independent",
                "--out",
                str(out),
                "--trace",
                str(trace_path),
            ]
        )
        == 0
    )
    document = json.loads(trace_path.read_text())
    names = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
    assert names[0] == "cli.lock"
    assert "lock.independent" in names

    capsys.readouterr()
    assert main(["trace", "summarize", str(trace_path)]) == 0
    captured = capsys.readouterr()
    assert "cli.lock" in captured.out
    assert "lock.independent" in captured.out


def test_cli_trace_summarize_rejects_garbage(tmp_path):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SystemExit):
        main(["trace", "summarize", str(bad)])


def test_cli_untraced_command_leaves_no_recorder():
    from repro.cli import main

    assert main(["report"]) == 0
    assert get_recorder() is None

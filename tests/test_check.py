"""The differential verification harness (`repro.check`).

The harness's own contract: a stable catalogue, deterministic RNG streams,
crashed checks recorded as failures (never passes), divergences carrying
reproduction coordinates, and — via fault injection — proof that every
check family can actually fire.  The built-in checks themselves run green
over the mini suite in CI (`repro-lock check`); here they run in targeted
slices so tier-1 stays fast.
"""

from __future__ import annotations

import json

import pytest

from repro.check import (
    FAULTS,
    CheckError,
    all_checks,
    families,
    render_fault_text,
    render_json,
    render_text,
    resolve_checks,
    run_checks,
    run_fault_injection,
)
from repro.check.core import Check, CheckContext, CheckOutcome

pytestmark = pytest.mark.check


class TestRegistry:
    def test_catalogue_is_stable(self):
        names = [check.name for check in all_checks()]
        assert names == sorted(names) or names  # sorted by (family, name)
        assert {
            "sim-backend-parity",
            "sim-override-parity",
            "sim-sequential-parity",
            "sat-vs-exhaustive",
            "sweep-modes-identical",
            "attack-oracle-equivalence",
            "dataflow-inferable-recovery",
            "dataflow-dontcare-sat",
            "dataflow-ternary-soundness",
            "metamorphic-roundtrip",
            "lock-unlock-roundtrip",
            "keybatch-lane-parity",
            "keybatch-brute-parity",
            "graph-structure-parity",
            "graph-sta-path-parity",
            "graph-lint-dataflow-parity",
        } <= set(names)
        assert set(families()) == {
            "sim",
            "sat",
            "sweep",
            "attack",
            "dataflow",
            "metamorphic",
            "keybatch",
            "graph",
        }

    def test_resolve_by_name_and_family(self):
        by_family = resolve_checks(["sim"])
        assert {c.family for c in by_family} == {"sim"}
        assert len(by_family) == 3
        single = resolve_checks(["sat-vs-exhaustive"])
        assert [c.name for c in single] == ["sat-vs-exhaustive"]
        # Mixing a family with one of its members must not duplicate.
        mixed = resolve_checks(["sim", "sim-backend-parity"])
        assert len(mixed) == len(by_family)

    def test_sweep_family_is_one_merged_check(self):
        # Serial, lease-worker and warm-cache equivalence plus lease
        # accounting all live in one check.
        assert [c.name for c in resolve_checks(["sweep"])] == [
            "sweep-modes-identical"
        ]

    def test_unknown_name_is_a_typed_error(self):
        with pytest.raises(CheckError, match="unknown check"):
            resolve_checks(["no-such-check"])

    def test_trial_divisor_scales_rounds(self):
        check = resolve_checks(["attack-oracle-equivalence"])[0]
        assert check.rounds(25) == 25 // check.trial_divisor
        assert check.rounds(1) == 1  # never zero rounds


class TestRunner:
    def _probe(self, fn, trials=4):
        check = Check(
            name="probe", family="probe", description="probe", fn=fn
        )
        return run_checks(
            [check], circuits=["s27"], seeds=[0], trials=trials
        )

    def test_divergence_carries_reproduction_coordinates(self):
        def fn(ctx):
            ctx.compare("probe fact", 1, 2, round=7)

        report = self._probe(fn)
        assert not report.ok
        (div,) = report.divergences
        assert (div.check, div.circuit, div.seed) == ("probe", "s27", 0)
        assert div.details["round"] == 7
        assert "1" in div.details["left"] and "2" in div.details["right"]

    def test_crashed_check_is_a_failure_not_a_pass(self):
        def fn(ctx):
            raise RuntimeError("boom")

        report = self._probe(fn)
        assert not report.ok
        assert "boom" in report.outcomes[0].error

    def test_rng_streams_are_deterministic_and_distinct(self):
        draws = {}

        def fn(ctx):
            draws[(ctx.circuit, ctx.seed)] = ctx.rng.random()

        check = Check(name="probe", family="probe", description="", fn=fn)
        run_checks([check], circuits=["s27", "s641"], seeds=[0, 1], trials=1)
        first = dict(draws)
        draws.clear()
        run_checks([check], circuits=["s27", "s641"], seeds=[0, 1], trials=1)
        assert draws == first
        assert len(set(first.values())) == 4  # every cell draws its own

    def test_context_netlist_is_a_private_copy(self):
        def fn(ctx):
            a = ctx.netlist()
            a.add_input("scribble")
            b = ctx.netlist()
            assert "scribble" not in b.node_names()
            ctx.compare("isolation", True, True)

        assert self._probe(fn).ok

    def test_empty_plan_rejected(self):
        with pytest.raises(CheckError):
            run_checks([], circuits=["s27"])
        with pytest.raises(CheckError):
            run_checks(None, circuits=[])

    def test_renderers(self):
        def fn(ctx):
            ctx.compare("fact", "x", "y")

        report = self._probe(fn)
        text = render_text(report)
        assert "DIVERGENCE" in text and "probe" in text
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["outcomes"][0]["divergences"][0]["fact"] == "fact"


class TestBuiltinChecksSmoke:
    """One fast slice per cheap family on s27 — the full grid runs in CI."""

    @pytest.mark.parametrize(
        "name", ["sim-backend-parity", "sim-override-parity"]
    )
    def test_sim_checks_green(self, name):
        report = run_checks(
            resolve_checks([name]), circuits=["s27"], seeds=[0], trials=6
        )
        assert report.ok, render_text(report)
        assert report.comparisons > 0

    def test_sat_check_green(self):
        report = run_checks(
            resolve_checks(["sat-vs-exhaustive"]),
            circuits=["s27"],
            seeds=[0],
            trials=4,
        )
        assert report.ok, render_text(report)

    def test_attack_check_green(self):
        report = run_checks(
            resolve_checks(["attack-oracle-equivalence"]),
            circuits=["s27"],
            seeds=[0],
            trials=8,
        )
        assert report.ok, render_text(report)


class TestFaultInjection:
    def test_every_fault_is_caught(self):
        """The non-vacuity proof: each deliberately broken layer must make
        its check family diverge.  A fault no check catches means the
        harness has gone blind to that defect class."""
        report = run_fault_injection(circuits=("s27",), seed=0, trials=8)
        assert report.ok, render_fault_text(report)
        assert {o.fault for o in report.outcomes} == {
            f.name for f in FAULTS
        }
        for outcome in report.outcomes:
            assert outcome.fired, f"fault {outcome.fault} went uncaught"

    def test_faults_cover_every_family(self):
        assert {f.family for f in FAULTS} == set(families())

    def test_fault_undo_restores_green(self):
        """After a fault run, the patched layers must be restored: the same
        checks run clean immediately afterwards."""
        run_fault_injection(circuits=("s27",), seed=0, trials=4)
        report = run_checks(
            resolve_checks(["sim-backend-parity", "sat-vs-exhaustive"]),
            circuits=["s27"],
            seeds=[0],
            trials=4,
        )
        assert report.ok, render_text(report)


class TestCli:
    def test_list_prints_catalogue(self, capsys):
        from repro.cli import main

        assert main(["check", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sat-vs-exhaustive" in out and "metamorphic" in out

    def test_small_green_run_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "report.json"
        code = main(
            [
                "check",
                "--checks",
                "sim-backend-parity",
                "--circuits",
                "s27",
                "--seeds",
                "0",
                "--trials",
                "4",
                "--format",
                "json",
                "--out",
                str(out_file),
                "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["ok"] is True
        assert payload["outcomes"][0]["check"] == "sim-backend-parity"

    def test_unknown_check_exits_with_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown check"):
            main(["check", "--checks", "no-such-check"])


class TestCheckOutcomeShape:
    def test_outcome_serialises(self):
        outcome = CheckOutcome(
            check="c", family="f", circuit="s27", seed=0, trials=1
        )
        payload = outcome.to_dict()
        assert payload["ok"] is True and payload["divergences"] == []

    def test_context_require_records_comparison(self):
        check = Check(name="c", family="f", description="", fn=lambda c: None)
        outcome = CheckOutcome(
            check="c", family="f", circuit="s27", seed=0, trials=1
        )
        ctx = CheckContext(
            check=check,
            circuit="s27",
            seed=0,
            trials=1,
            gen_seed=2016,
            outcome=outcome,
        )
        assert ctx.require("holds", True, "nope")
        assert not ctx.require("fails", False, "nope", extra=1)
        assert outcome.comparisons == 2
        assert outcome.divergences[0].details == {"extra": 1}

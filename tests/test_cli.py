"""End-to-end tests of the repro-lock command line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.netlist import bench_io
from repro.sat import check_equivalence


@pytest.fixture
def s27_file(tmp_path):
    from repro.circuits import load_benchmark

    path = tmp_path / "s27.bench"
    bench_io.dump(load_benchmark("s27"), path)
    return path


class TestGen:
    def test_gen_writes_bench(self, tmp_path, capsys):
        out = tmp_path / "c.bench"
        assert main(["gen", "s820", "--out", str(out)]) == 0
        n = bench_io.load(out)
        assert len(n.gates) == 289
        assert "wrote" in capsys.readouterr().out

    def test_gen_s27(self, tmp_path):
        out = tmp_path / "s27.bench"
        assert main(["gen", "s27", "--out", str(out)]) == 0
        assert len(bench_io.load(out)) == 17


class TestLock:
    @pytest.mark.parametrize("algorithm", ["independent", "dependent", "parametric"])
    def test_lock_produces_three_artifacts(self, algorithm, s27_file, tmp_path, capsys):
        out = tmp_path / f"{algorithm}.bench"
        assert main([
            "lock", str(s27_file), "--algorithm", algorithm, "--out", str(out),
        ]) == 0
        assert out.exists()
        foundry = out.with_name(out.stem + "_foundry.bench")
        assert foundry.exists()
        assert out.with_suffix(".stt").exists()
        hybrid = bench_io.load(out)
        assert hybrid.luts
        foundry_netlist = bench_io.load(foundry)
        assert all(
            foundry_netlist.node(l).lut_config is None
            for l in foundry_netlist.luts
        )
        assert "replaced" in capsys.readouterr().out

    def test_lock_benchmark_by_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["lock", "s27", "--algorithm", "independent"]) == 0

    def test_unknown_circuit(self):
        with pytest.raises(SystemExit):
            main(["lock", "no-such-circuit"])


class TestProgramAndAnalyze:
    def test_program_roundtrip(self, s27_file, tmp_path, capsys):
        out = tmp_path / "h.bench"
        main(["lock", str(s27_file), "--algorithm", "independent", "--out", str(out)])
        foundry = out.with_name("h_foundry.bench")
        provisioned = tmp_path / "prov.bench"
        assert main([
            "program", str(foundry), str(out.with_suffix(".stt")),
            "--out", str(provisioned),
        ]) == 0
        original = bench_io.load(s27_file)
        result = check_equivalence(original, bench_io.load(provisioned))
        assert result.equivalent
        assert "programmed" in capsys.readouterr().out

    def test_analyze_prints_metrics(self, s27_file, tmp_path, capsys):
        out = tmp_path / "h.bench"
        main(["lock", str(s27_file), "--algorithm", "independent", "--out", str(out)])
        assert main(["analyze", str(s27_file), str(out), "--formula", "independent"]) == 0
        text = capsys.readouterr().out
        assert "performance degradation %" in text
        assert "test clocks" in text


class TestAttackCommand:
    def test_sat_attack_breaks_s27(self, s27_file, tmp_path, capsys):
        out = tmp_path / "h.bench"
        main(["lock", str(s27_file), "--algorithm", "independent", "--out", str(out)])
        foundry = out.with_name("h_foundry.bench")
        code = main(["attack", str(foundry), str(out), "--attack", "sat"])
        assert code == 0
        assert "KEY FOUND" in capsys.readouterr().out

    def test_brute_attack(self, s27_file, tmp_path, capsys):
        out = tmp_path / "h.bench"
        main([
            "lock", str(s27_file), "--algorithm", "independent", "--out", str(out),
        ])
        foundry = out.with_name("h_foundry.bench")
        main(["attack", str(foundry), str(out), "--attack", "brute"])
        assert "brute force" in capsys.readouterr().out

    def test_sat_attack_without_scan_is_an_error_line(self, s27_file, tmp_path):
        out = tmp_path / "h.bench"
        main(["lock", str(s27_file), "--algorithm", "independent", "--out", str(out)])
        foundry = out.with_name("h_foundry.bench")
        src = Path(repro.__file__).resolve().parent.parent
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "attack", str(foundry),
                str(out), "--attack", "sat", "--no-scan",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == 1
        assert done.stderr.strip() == (
            "error: the SAT attack requires scan access; drop --no-scan"
        )
        assert "Traceback" not in done.stderr
        assert done.stdout == ""


class TestFlowCommand:
    def test_flow_produces_report_and_artifacts(self, s27_file, tmp_path, capsys):
        code = main([
            "flow", str(s27_file), "--level", "basic",
            "--out-dir", str(tmp_path / "release"), "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert (tmp_path / "release").exists()
        assert list((tmp_path / "release").glob("*.stt"))

    def test_flow_levels(self, s27_file, capsys):
        for level in ("basic", "strong", "strong-timing-aware"):
            assert main(["flow", str(s27_file), "--level", level]) == 0
        assert "missing gates" in capsys.readouterr().out


class TestMlAttackCommand:
    def test_ml_attack_runs(self, s27_file, tmp_path, capsys):
        out = tmp_path / "h.bench"
        main(["lock", str(s27_file), "--algorithm", "independent", "--out", str(out)])
        foundry = out.with_name("h_foundry.bench")
        main(["attack", str(foundry), str(out), "--attack", "ml", "--seed", "2"])
        assert "ml attack" in capsys.readouterr().out

    @pytest.mark.parametrize("width", ["0", "-3", "two"])
    def test_batch_width_below_one_rejected_at_parse_time(
        self, s27_file, tmp_path, capsys, width
    ):
        out = tmp_path / "h.bench"
        main(["lock", str(s27_file), "--algorithm", "independent", "--out", str(out)])
        foundry = out.with_name("h_foundry.bench")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["attack", str(foundry), str(out), "--attack", "ml",
                  "--batch-width", width])
        assert exit_info.value.code == 2
        assert "--batch-width" in capsys.readouterr().err


class TestLintCommand:
    def test_lint_clean_benchmark_exits_zero(self, capsys):
        assert main(["lint", "s27"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "NL101" in out and "SEC201" in out and "TIM301" in out

    def test_lint_multi_driver_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.bench"
        bad.write_text(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n"
        )
        assert main(["lint", str(bad), "--format", "json"]) == 1
        data = __import__("json").loads(capsys.readouterr().out)
        assert data["summary"]["errors"] == 1
        assert data["findings"][0]["rule"] == "NL113"

    def test_lint_sarif_output(self, s27_file, capsys):
        assert main(["lint", str(s27_file), "--format", "sarif"]) == 0
        sarif = __import__("json").loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_lint_hybrid_after_lock_is_error_free(self, s27_file, tmp_path, capsys):
        out = tmp_path / "h.bench"
        main(["lock", str(s27_file), "--algorithm", "parametric", "--out", str(out)])
        capsys.readouterr()
        assert main(["lint", str(out)]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert "clean" in head or "0 error(s)" in head

    def test_lint_disable_suppresses_rule(self, tmp_path, capsys):
        bench = tmp_path / "f.bench"
        bench.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(unused)\nOUTPUT(y)\ny = AND(a, b)\n"
        )
        assert main(["lint", str(bench)]) == 0
        assert "NL106" in capsys.readouterr().out
        assert main(["lint", str(bench), "--disable", "NL106"]) == 0
        assert "suppressed" in capsys.readouterr().out

    def test_lint_writes_output_file(self, s27_file, tmp_path, capsys):
        out = tmp_path / "report.sarif"
        assert main(["lint", str(s27_file), "--format", "sarif", "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_lint_without_netlist_errors(self):
        with pytest.raises(SystemExit):
            main(["lint"])

    def test_load_preflight_blocks_broken_input(self, tmp_path, capsys):
        broken = tmp_path / "broken.bench"
        broken.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
        with pytest.raises(SystemExit):
            main(["lock", str(broken)])
        assert "NL101" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "attack"])
    def test_two_netlist_commands_run_the_preflight(
        self, command, tmp_path, capsys
    ):
        broken = tmp_path / "broken.bench"
        broken.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
        with pytest.raises(SystemExit):
            main([command, str(broken), str(broken)])
        assert "NL101" in capsys.readouterr().err

    def test_parser_choices_match_the_enums(self):
        """The parser spells out the ``--category``/``--level`` choices so
        building it loads neither the lint engine nor the flow."""
        import argparse

        from repro.cli import LINT_CATEGORIES, SECURITY_LEVELS, build_parser
        from repro.lint import Category, Severity
        from repro.locking import SecurityLevel

        assert LINT_CATEGORIES == tuple(c.value for c in Category)
        assert SECURITY_LEVELS == tuple(lvl.value for lvl in SecurityLevel)
        (sub,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        choices = {
            (command, action.dest): tuple(action.choices)
            for command in ("lint", "flow")
            for action in sub.choices[command]._actions
            if action.choices is not None
        }
        assert choices[("lint", "category")] == LINT_CATEGORIES
        assert choices[("lint", "fail_on")] == tuple(s.value for s in Severity)
        assert choices[("flow", "level")] == SECURITY_LEVELS


class TestReport:
    def test_report_lists_benches(self, capsys):
        assert main(["report"]) == 0
        assert "pytest benchmarks/" in capsys.readouterr().out


class TestLintFailOn:
    @pytest.fixture
    def locked_file(self, s27_file, tmp_path):
        out = tmp_path / "locked.bench"
        main(["lock", str(s27_file), "--algorithm", "independent",
              "--seed", "0", "--out", str(out)])
        return out

    def test_default_threshold_ignores_warnings(self, locked_file, capsys):
        # A fresh lock lints warning/note-clean of errors: exit 0 by default.
        assert main(["lint", str(locked_file)]) == 0
        capsys.readouterr()

    def test_warning_threshold_fails(self, locked_file, capsys):
        assert main(["lint", str(locked_file), "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_note_threshold_is_strictest(self, locked_file, capsys):
        assert main(["lint", str(locked_file), "--fail-on", "note"]) == 1
        capsys.readouterr()

    def test_clean_circuit_passes_every_threshold(self, capsys):
        for threshold in ("error", "warning", "note"):
            assert main(["lint", "s27", "--fail-on", threshold]) == 0
            capsys.readouterr()


class TestAuditCommand:
    def test_audit_locked_benchmark_text(self, capsys):
        assert main(["audit", "s27", "--algorithm", "independent",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "audit: " in out
        assert "verification:" in out

    def test_audit_requires_luts_or_algorithm(self, s27_file):
        with pytest.raises(SystemExit, match="no LUTs"):
            main(["audit", str(s27_file)])

    def test_audit_json_contains_verification(self, capsys):
        assert main(["audit", "s27", "--algorithm", "parametric",
                     "--seed", "0", "--format", "json"]) == 0
        data = __import__("json").loads(capsys.readouterr().out)
        assert data["tool"] == "repro-audit"
        assert data["verification"]["ok"] is True
        assert data["summary"]["key_bits"] > 0

    def test_audit_sarif_shape(self, capsys):
        assert main(["audit", "s27", "--algorithm", "independent",
                     "--seed", "0", "--format", "sarif"]) == 0
        sarif = __import__("json").loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-audit"
        assert sarif["runs"][0]["results"]

    def test_audit_writes_output_file(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        assert main(["audit", "s27", "--algorithm", "independent",
                     "--seed", "0", "--format", "json",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_audit_fail_on_inferable(self, capsys):
        # Small circuits always leak a few bits: the stricter threshold
        # fails even though every claim verifies.
        assert main(["audit", "s27", "--algorithm", "independent",
                     "--seed", "0", "--fail-on", "inferable"]) == 1
        capsys.readouterr()

    def test_audit_unverified_claims_fail_by_default(self, capsys):
        assert main(["audit", "s27", "--algorithm", "independent",
                     "--seed", "0", "--no-verify"]) == 1
        capsys.readouterr()
        assert main(["audit", "s27", "--algorithm", "independent",
                     "--seed", "0", "--no-verify", "--fail-on",
                     "never"]) == 0
        capsys.readouterr()

    def test_audit_foundry_view_is_unverifiable(self, tmp_path, capsys):
        # Lock, strip the configurations, audit the bare foundry view:
        # strong claims exist but nothing can verify them.
        hybrid = tmp_path / "h.bench"
        main(["lock", "s27", "--algorithm", "independent", "--seed", "0",
              "--out", str(hybrid)])
        from repro.lut.mapping import HybridMapper

        foundry = HybridMapper().strip_configs(bench_io.load(hybrid))
        stripped = tmp_path / "foundry.bench"
        bench_io.dump(foundry, stripped)
        capsys.readouterr()
        assert main(["audit", str(stripped)]) == 1
        assert "unverifiable" in capsys.readouterr().out

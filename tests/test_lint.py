"""Tests for ``repro.lint`` — the rule registry, one good/bad fixture pair
per rule, suppressions, serialisation (text/JSON/SARIF), and the flow and
selection-algorithm integration points."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    Category,
    Finding,
    LintConfig,
    LintReport,
    Linter,
    LockMetadata,
    Rule,
    Severity,
    Suppressions,
    all_rules,
    lint_bench_source,
    lint_netlist,
    parse_suppressions,
    register,
    rule_ids,
)
from repro.locking import (
    DependentSelection,
    IndependentSelection,
    ParametricSelection,
    SecurityDrivenFlow,
    SecurityLevel,
    SecurityRequirement,
)
from repro.netlist import GateType, Netlist, NetlistError

pytestmark = pytest.mark.lint


# ---------------------------------------------------------------------------
# Fixture builders: one (good, bad) pair per rule.  Each returns
# (subject, run_kwargs) where subject is a Netlist or raw .bench source.
# ---------------------------------------------------------------------------


def _clean():
    n = Netlist("clean")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g1", GateType.NAND, ["a", "b"])
    n.add_gate("y", GateType.NOR, ["g1", "b"])
    n.add_output("y")
    return n


def _locked_clean():
    """A lock no security or timing rule should flag: internal fan-in,
    3-input LUT (8 key bits), balanced configuration, and a long NAND chain
    that keeps the (slow) LUT off the critical path."""
    n = Netlist("locked")
    for pi in ("a", "b", "c"):
        n.add_input(pi)
    n.add_gate("g1", GateType.NAND, ["a", "b"])
    n.add_gate("l1", GateType.LUT, ["g1", "b", "c"], lut_config=0x96)
    n.add_output("l1")
    prev = "a"
    for i in range(12):
        gate = f"c{i}"
        n.add_gate(gate, GateType.NAND, [prev, "b"])
        prev = gate
    n.add_output(prev)
    return n


def _nand_chain(name, length, lut_at=None):
    """a,b -> chain of NAND2s -> output; optionally one link is a LUT."""
    n = Netlist(name)
    n.add_input("a")
    n.add_input("b")
    prev = "a"
    for i in range(length):
        gate = f"g{i}"
        if i == lut_at:
            n.add_gate(gate, GateType.LUT, [prev, "b"], lut_config=0x6)
        else:
            n.add_gate(gate, GateType.NAND, [prev, "b"])
        prev = gate
    n.add_output(prev)
    return n


def _usl_gap_netlist():
    n = Netlist("uslgap")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("u", GateType.NAND, ["a", "b"])
    n.add_gate("n", GateType.NOR, ["u", "b"])
    n.add_output("n")
    return n


def good_nl101():
    return _clean(), {}


def bad_nl101():
    n = Netlist("bad")
    n.add_input("a")
    n.add_gate("y", GateType.AND, ["a", "ghost"])
    n.add_output("y")
    return n, {}


def good_nl102():
    return _clean(), {}


def bad_nl102():
    n = _clean()
    n.add_output("phantom")
    return n, {}


def good_nl103():
    return _clean(), {}


def bad_nl103():
    # add_gate rejects bad arity up front, so corrupt the node afterwards —
    # exactly the "later edit" scenario the linter audits.
    n = Netlist("bad")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("y", GateType.NOT, ["a"])
    n.add_output("y")
    n.node("y").fanin.append("b")
    return n, {}


def good_nl104():
    return _clean(), {}


def bad_nl104():
    n = Netlist("bad")
    n.add_input("a")
    n.add_gate("x", GateType.AND, ["w", "a"])
    n.add_gate("w", GateType.OR, ["x", "a"])
    n.add_output("x")
    return n, {}


def good_nl105():
    return _clean(), {}


def bad_nl105():
    n = _clean()
    n.add_gate("dead", GateType.NOT, ["a"])
    return n, {}


def good_nl106():
    return _clean(), {}


def bad_nl106():
    n = _clean()
    n.add_input("unused")
    return n, {}


def good_nl107():
    return _clean(), {}


def bad_nl107():
    n = Netlist("bad")
    n.add_input("a")
    n.add_gate("y", GateType.AND, ["a", "a"])
    n.add_output("y")
    return n, {}


def good_nl108():
    return _locked_clean(), {}


def bad_nl108():
    n = Netlist("bad")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("l", GateType.LUT, ["a", "b"], lut_config=None)
    n.add_output("l")
    return n, {}


def good_nl109():
    return _locked_clean(), {}


def bad_nl109():
    n = Netlist("bad")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("l", GateType.LUT, ["a", "b"], lut_config=0x100)
    n.add_output("l")
    return n, {}


def good_nl110():
    return _clean(), {}


def bad_nl110():
    n = Netlist("bad")
    n.add_input("a")
    n.add_gate("g", GateType.NOT, ["a"])
    return n, {}


def good_nl111():
    n = Netlist("good")
    n.add_input("a")
    n.add_gate("r", GateType.DFF, ["a"])
    n.add_output("r")
    return n, {}


def bad_nl111():
    n = Netlist("bad")
    n.add_input("a")
    n.add_gate("r", GateType.DFF, ["r"])
    n.add_gate("y", GateType.AND, ["r", "a"])
    n.add_output("y")
    return n, {}


def good_nl112():
    return _clean(), {}


def bad_nl112():
    n = _clean()
    # g_dead has fan-out (leaf) but the whole cone misses every output.
    n.add_gate("g_dead", GateType.AND, ["a", "b"])
    n.add_gate("leaf", GateType.NOT, ["g_dead"])
    return n, {}


GOOD_SOURCE = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"


def good_nl113():
    return GOOD_SOURCE, {}


def bad_nl113():
    return GOOD_SOURCE + "y = OR(a, b)\n", {}


def good_nl114():
    return GOOD_SOURCE, {}


def bad_nl114():
    return "OUTPUT(y)\n" + GOOD_SOURCE, {}


def good_sec201():
    return _locked_clean(), {}


def bad_sec201():
    n = Netlist("bad")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("l", GateType.LUT, ["a", "b"], lut_config=0x6)
    n.add_output("l")
    return n, {}


def good_sec202():
    return _locked_clean(), {}


def bad_sec202():
    n = Netlist("bad")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g1", GateType.NAND, ["a", "b"])
    n.add_gate("l", GateType.LUT, ["g1", "b"], lut_config=0x8)
    n.add_output("l")
    return n, {}


def good_sec203():
    return _locked_clean(), {}


def bad_sec203():
    n = Netlist("bad")
    n.add_input("a")
    n.add_gate("g1", GateType.NOT, ["a"])
    n.add_gate("l", GateType.LUT, ["g1"], lut_config=0x2)
    n.add_output("l")
    return n, {}


def good_sec204():
    n = _usl_gap_netlist()
    metadata = LockMetadata(
        algorithm="parametric", usl_gates=["u"], skipped_neighbours=["n"]
    )
    return n, {"metadata": metadata}


def bad_sec204():
    n = _usl_gap_netlist()
    metadata = LockMetadata(algorithm="parametric", usl_gates=["u"])
    return n, {"metadata": metadata}


def good_sec205():
    return _locked_clean(), {}


def bad_sec205():
    n = Netlist("bad")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g1", GateType.NAND, ["a", "b"])
    n.add_gate("l", GateType.LUT, ["g1", "b"], lut_config=0x6)
    n.add_output("l")
    return n, {}


def _pi_lut():
    """A LUT fed straight from primary inputs and driving a PO: every
    row is concretely selectable and directly observed — the dataflow
    engine proves all four key bits inferable."""
    n = Netlist("pilut")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("l", GateType.LUT, ["a", "b"], lut_config=0x6)
    n.add_output("l")
    return n


def _serial_lock():
    """Two unknown LUTs in series: the downstream one blinds the
    upstream one (weak), the upstream X blinds row selection of the
    downstream one (opaque) — no bit is provably inferable."""
    n = Netlist("serial")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("l1", GateType.LUT, ["a", "b"], lut_config=0x6)
    n.add_gate("l2", GateType.LUT, ["l1", "b"], lut_config=0x9)
    n.add_output("l2")
    return n


def good_sec401():
    return _serial_lock(), {}


def bad_sec401():
    return _pi_lut(), {}


def good_sec402():
    return _pi_lut(), {}


def bad_sec402():
    n = Netlist("dup")
    n.add_input("a")
    n.add_gate("l", GateType.LUT, ["a", "a"], lut_config=0x6)
    n.add_output("l")
    return n, {}


def good_sec403():
    return _pi_lut(), {}


def bad_sec403():
    return _serial_lock(), {}


def good_sec404():
    return _locked_clean(), {}


def bad_sec404():
    n = Netlist("mux")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g1", GateType.NAND, ["a", "b"])
    # 0xA: out == pin 0 for every row — the LUT is a buffer in disguise.
    n.add_gate("l", GateType.LUT, ["g1", "b"], lut_config=0xA)
    n.add_output("l")
    return n, {}


def good_tim301():
    original = _nand_chain("orig", 3)
    hybrid = _nand_chain("orig", 3)
    metadata = LockMetadata(algorithm="test", original=original)
    return hybrid, {"metadata": metadata}


def bad_tim301():
    original = _nand_chain("orig", 3)
    hybrid = _nand_chain("hyb", 3, lut_at=1)  # LUT is ~6.5x a NAND2
    metadata = LockMetadata(algorithm="test", original=original)
    return hybrid, {"metadata": metadata}


def good_tim302():
    # Long NAND chain dominates timing; the LUT sits on a short side path.
    original = _nand_chain("orig", 10)
    original.add_gate("h1", GateType.NAND, ["a", "b"])
    original.add_output("h1")
    hybrid = _nand_chain("hyb", 10)
    hybrid.add_gate("h1", GateType.LUT, ["a", "b"], lut_config=0x7)
    hybrid.add_output("h1")
    metadata = LockMetadata(algorithm="test", original=original)
    return hybrid, {"metadata": metadata}


def bad_tim302():
    original = _nand_chain("orig", 3)
    hybrid = _nand_chain("hyb", 3, lut_at=1)
    metadata = LockMetadata(algorithm="test", original=original)
    return hybrid, {"metadata": metadata}


FIXTURES = {
    "NL101": (good_nl101, bad_nl101),
    "NL102": (good_nl102, bad_nl102),
    "NL103": (good_nl103, bad_nl103),
    "NL104": (good_nl104, bad_nl104),
    "NL105": (good_nl105, bad_nl105),
    "NL106": (good_nl106, bad_nl106),
    "NL107": (good_nl107, bad_nl107),
    "NL108": (good_nl108, bad_nl108),
    "NL109": (good_nl109, bad_nl109),
    "NL110": (good_nl110, bad_nl110),
    "NL111": (good_nl111, bad_nl111),
    "NL112": (good_nl112, bad_nl112),
    "NL113": (good_nl113, bad_nl113),
    "NL114": (good_nl114, bad_nl114),
    "SEC201": (good_sec201, bad_sec201),
    "SEC202": (good_sec202, bad_sec202),
    "SEC203": (good_sec203, bad_sec203),
    "SEC204": (good_sec204, bad_sec204),
    "SEC205": (good_sec205, bad_sec205),
    "SEC401": (good_sec401, bad_sec401),
    "SEC402": (good_sec402, bad_sec402),
    "SEC403": (good_sec403, bad_sec403),
    "SEC404": (good_sec404, bad_sec404),
    "TIM301": (good_tim301, bad_tim301),
    "TIM302": (good_tim302, bad_tim302),
}


def _run_one(rule_id, builder):
    subject, kwargs = builder()
    linter = Linter(rules=[rule_id])
    if isinstance(subject, str):
        return linter.run(None, source_text=subject, **kwargs)
    return linter.run(subject, **kwargs)


class TestRuleFixtures:
    def test_every_rule_has_a_fixture_pair(self):
        assert set(FIXTURES) == set(RULES)

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_bad_fixture_triggers(self, rule_id):
        report = _run_one(rule_id, FIXTURES[rule_id][1])
        assert {f.rule_id for f in report.findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_good_fixture_is_clean(self, rule_id):
        report = _run_one(rule_id, FIXTURES[rule_id][0])
        assert report.findings == []

    def test_clean_netlist_passes_every_rule(self):
        assert lint_netlist(_clean()).findings == []

    def test_locked_clean_passes_every_rule(self):
        report = lint_netlist(_locked_clean())
        # The proof-carrying SEC4xx family is expected to flag a lock
        # this small (a toy cone always leaks or wastes rows); the
        # classic pattern-matching families must stay silent.
        classic = [
            f for f in report.findings if not f.rule_id.startswith("SEC4")
        ]
        assert classic == []
        assert {f.rule_id for f in report.findings} <= {
            "SEC401",
            "SEC402",
            "SEC403",
        }


# ---------------------------------------------------------------------------
# Registry and engine behaviour
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_at_least_fifteen_rules(self):
        assert len(RULES) >= 15

    def test_ids_follow_family_prefixes(self):
        for rule_id, cls in RULES.items():
            prefix = {
                "structural": ("NL1",),
                "security": ("SEC2", "SEC4"),
                "timing": ("TIM3",),
            }[cls.category.value]
            assert rule_id.startswith(prefix), rule_id

    def test_slugs_are_unique(self):
        slugs = [cls.slug for cls in RULES.values()]
        assert len(slugs) == len(set(slugs))

    def test_every_family_represented(self):
        categories = {cls.category for cls in RULES.values()}
        assert categories == {
            Category.STRUCTURAL,
            Category.SECURITY,
            Category.TIMING,
        }

    def test_duplicate_registration_rejected(self):
        existing = next(iter(RULES.values()))

        with pytest.raises(ValueError, match="duplicate"):

            @register
            class Clone(existing):  # type: ignore[misc, valid-type]
                pass

        assert RULES[existing.id] is existing

    def test_all_rules_sorted_by_id(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids) == rule_ids()

    def test_resolve_by_slug_and_class(self):
        by_slug = Linter(rules=["undriven-net"])
        by_cls = Linter(rules=[RULES["NL101"]])
        assert [r.id for r in by_slug.rules] == ["NL101"]
        assert [r.id for r in by_cls.rules] == ["NL101"]
        with pytest.raises(KeyError):
            Linter(rules=["no-such-rule"])

    def test_strict_lut_config_escalates_nl108(self):
        subject, _ = bad_nl108()
        config = LintConfig(allow_unprogrammed_luts=False)
        report = Linter(rules=["NL108"], config=config).run(subject)
        assert report.has_errors


class TestSuppressions:
    def test_suppress_by_id_and_slug(self):
        finding = Finding(
            "NL105", "floating-net", Severity.WARNING,
            Category.STRUCTURAL, "m", net="x",
        )
        assert Suppressions(rules={"NL105"}).suppresses(finding)
        assert Suppressions(rules={"floating-net"}).suppresses(finding)
        assert Suppressions(per_net={("NL105", "x")}).suppresses(finding)
        assert not Suppressions(per_net={("NL105", "y")}).suppresses(finding)

    def test_suppressed_findings_are_counted(self):
        subject, _ = bad_nl105()
        report = Linter(rules=["NL105"]).run(
            subject, suppressions=Suppressions(rules={"NL105"})
        )
        assert report.findings == []
        assert report.n_suppressed == 1
        assert "suppressed" in report.summary()

    def test_parse_suppressions_directives(self):
        text = (
            "# lint: disable=NL105, floating-net\n"
            "INPUT(a)\n"
            "# lint: disable=SEC201@g17\n"
        )
        sup = parse_suppressions(text)
        assert "NL105" in sup.rules and "floating-net" in sup.rules
        assert ("SEC201", "g17") in sup.per_net

    def test_source_directive_silences_rule(self):
        n = Netlist("bad")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("y", GateType.AND, ["a", "b"])
        n.add_output("y")
        n.add_input("unused")
        source = "# lint: disable=unused-input\n"
        report = Linter(rules=["NL106"]).run(n, source_text=source)
        assert report.findings == [] and report.n_suppressed == 1


# ---------------------------------------------------------------------------
# Serialisation: text, JSON, SARIF 2.1.0
# ---------------------------------------------------------------------------


def _report_with_findings():
    subject, _ = bad_nl105()
    subject.add_output("phantom")  # one error + one warning
    return Linter().run(
        subject, categories={Category.STRUCTURAL}, artifact="bad.bench"
    )


class TestRenderings:
    def test_text_rendering(self):
        report = _report_with_findings()
        text = report.render_text()
        assert "NL102" in text and "NL105" in text
        assert "error(s)" in text and "fix:" in text

    def test_clean_text_rendering(self):
        assert "clean" in lint_netlist(_clean()).render_text()

    def test_json_roundtrip(self):
        report = _report_with_findings()
        data = json.loads(report.to_json())
        assert data == report.to_json_dict()
        assert data["tool"] == "repro-lint"
        assert data["artifact"] == "bad.bench"
        assert data["summary"]["errors"] == 1
        rules = {f["rule"] for f in data["findings"]}
        assert {"NL102", "NL105"} <= rules
        for f in data["findings"]:
            assert set(f) == {
                "rule", "slug", "severity", "category",
                "message", "net", "autofix",
            }

    def test_sarif_shape(self):
        report = _report_with_findings()
        sarif = json.loads(report.to_sarif())
        assert sarif == report.to_sarif_dict()
        assert sarif["version"] == "2.1.0"
        assert "sarif-2.1.0" in sarif["$schema"]
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        declared = [rule["id"] for rule in driver["rules"]]
        assert declared == sorted(declared)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in ("error", "warning")
        for result in run["results"]:
            # ruleIndex must point at the matching catalogue entry.
            assert declared[result["ruleIndex"]] == result["ruleId"]
            assert result["level"] in ("error", "warning")
            assert result["message"]["text"]
            location = result["locations"][0]
            assert location["logicalLocations"][0]["kind"] == "element"
            uri = location["physicalLocation"]["artifactLocation"]["uri"]
            assert uri == "bad.bench"

    def test_sarif_empty_report(self):
        sarif = lint_netlist(_clean()).to_sarif_dict()
        assert sarif["runs"][0]["results"] == []
        assert sarif["runs"][0]["tool"]["driver"]["rules"] == []

    def test_sarif_note_level(self):
        """NOTE-severity findings map onto SARIF's third level."""
        subject, _ = bad_sec402()
        report = Linter(rules=["SEC402"]).run(subject)
        (result,) = report.to_sarif_dict()["runs"][0]["results"]
        assert result["level"] == "note"

    def test_sarif_serialisation_roundtrip(self):
        """to_sarif → json.loads must reproduce to_sarif_dict exactly,
        for a report mixing error, warning, and note findings."""
        subject, _ = bad_nl105()
        subject.add_output("phantom")
        report = Linter().run(subject, artifact="bad.bench")
        assert json.loads(report.to_sarif()) == report.to_sarif_dict()


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestSarifGoldens:
    """Byte-level regressions for the SARIF output of one structural and
    one security rule.  ``driver.version`` is normalised so releases do
    not churn the goldens; everything else must match exactly."""

    @pytest.mark.parametrize(
        "rule_id, golden_name",
        [
            ("NL101", "lint_nl101.sarif.json"),
            ("SEC201", "lint_sec201.sarif.json"),
        ],
    )
    def test_golden_sarif(self, rule_id, golden_name):
        subject, kwargs = FIXTURES[rule_id][1]()
        report = Linter(rules=[rule_id]).run(
            subject, artifact="subject.bench", **kwargs
        )
        sarif = report.to_sarif_dict()
        sarif["runs"][0]["tool"]["driver"]["version"] = "0.0.0"
        golden = json.loads((GOLDEN_DIR / golden_name).read_text())
        assert sarif == golden


class TestCorruptedFixtures:
    """The acceptance fixtures: each corruption pattern must surface its
    expected rule ID in both JSON and SARIF output."""

    @pytest.mark.parametrize(
        "builder, expected",
        [
            (bad_nl113, "NL113"),
            (bad_sec201, "SEC201"),
            (bad_tim302, "TIM302"),
        ],
    )
    def test_corruption_reports_rule_in_json_and_sarif(self, builder, expected):
        subject, kwargs = builder()
        if isinstance(subject, str):
            report = Linter().run(None, source_text=subject, **kwargs)
        else:
            report = Linter().run(subject, **kwargs)
        json_rules = {f["rule"] for f in report.to_json_dict()["findings"]}
        sarif = report.to_sarif_dict()
        sarif_rules = {r["ruleId"] for r in sarif["runs"][0]["results"]}
        assert expected in json_rules
        assert expected in sarif_rules
        assert expected in {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}


# ---------------------------------------------------------------------------
# Source-level linting
# ---------------------------------------------------------------------------


class TestSourceLint:
    def test_multi_driver_counts_drivers(self):
        findings = lint_bench_source(GOOD_SOURCE + "y = OR(a, b)\ny = NOR(a, b)\n")
        (finding,) = [f for f in findings if f.rule_id == "NL113"]
        assert "3 drivers" in finding.message and finding.net == "y"

    def test_input_redeclared_as_gate_is_multi_driver(self):
        findings = lint_bench_source("INPUT(a)\nOUTPUT(a)\na = AND(a, a)\n")
        assert "NL113" in {f.rule_id for f in findings}

    def test_clean_source(self):
        assert lint_bench_source(GOOD_SOURCE) == []

    def test_source_rules_skipped_without_text(self):
        report = Linter(rules=["NL113", "NL114"]).run(_clean())
        assert report.findings == []


# ---------------------------------------------------------------------------
# Lock metadata and the real selection algorithms
# ---------------------------------------------------------------------------


class TestLockMetadata:
    def test_from_selection_reads_params(self, s27, rng):
        algorithm = ParametricSelection(seed=3)
        result = algorithm.run(s27)
        metadata = LockMetadata.from_selection(result, original=s27)
        assert metadata.algorithm == "parametric"
        assert metadata.replaced == list(result.replaced)
        assert metadata.usl_gates == result.params["usl_gates"]
        assert metadata.skipped_neighbours == result.params["skipped_neighbours"]

    def test_metadata_rules_skipped_without_metadata(self):
        subject, kwargs = bad_sec204()
        report = Linter(rules=["SEC204"]).run(subject)  # no metadata
        assert report.findings == []


class TestRealLocks:
    """`repro-lock lint` on bundled circuits after selection: zero errors."""

    @pytest.mark.parametrize(
        "algorithm_cls",
        [IndependentSelection, DependentSelection, ParametricSelection],
    )
    def test_s27_locks_have_no_errors(self, s27, algorithm_cls):
        result = algorithm_cls(seed=1).run(s27)
        metadata = LockMetadata.from_selection(result, original=s27)
        report = Linter().run(result.hybrid, metadata=metadata)
        assert not report.has_errors, report.render_text()

    def test_s641_parametric_lock_has_no_errors(self, s641):
        result = ParametricSelection(seed=0).run(s641)
        metadata = LockMetadata.from_selection(result, original=s641)
        report = Linter().run(result.hybrid, metadata=metadata)
        assert not report.has_errors, report.render_text()


# ---------------------------------------------------------------------------
# flow gates
# ---------------------------------------------------------------------------


class TestFlowGates:
    def test_preflight_aborts_on_structural_error(self):
        subject, _ = bad_nl101()
        flow = SecurityDrivenFlow()
        with pytest.raises(NetlistError, match="pre-flight"):
            flow.run(subject, SecurityRequirement(level=SecurityLevel.BASIC))

    def test_postflight_report_lands_in_flow_report(self, s27):
        flow = SecurityDrivenFlow()
        report = flow.run(
            s27, SecurityRequirement(level=SecurityLevel.BASIC, seed=1)
        )
        assert isinstance(report.lint, LintReport)
        assert not report.lint.has_errors
        assert all(
            f.category in (Category.SECURITY, Category.TIMING)
            for f in report.lint.findings
        )
        assert "lint:" in report.summary()


class TestCustomRules:
    def test_rule_instance_can_run_unregistered(self):
        class AlwaysFires(Rule):
            id = "X999"
            slug = "always-fires"
            title = "test rule"
            severity = Severity.WARNING
            category = Category.STRUCTURAL

            def check(self, ctx):
                yield self.finding("fired", net="a")

        report = Linter(rules=[AlwaysFires()]).run(_clean())
        assert [f.rule_id for f in report.findings] == ["X999"]

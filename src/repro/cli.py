"""Command-line interface: the security-driven design flow as a tool.

    repro-lock lock s641.bench --algorithm parametric --out hybrid.bench
    repro-lock analyze s641.bench hybrid.bench
    repro-lock attack hybrid_foundry.bench hybrid.bench --attack sat
    repro-lock sweep --circuits s641,s1238 --seeds 0:8 --workers 4
    repro-lock lint hybrid.bench --format sarif
    repro-lock check --seeds 0:3 --trials 25 --format json
    repro-lock gen s5378a --out s5378a.bench
    repro-lock report

``lock`` writes three artifacts next to ``--out``: the provisioned hybrid
netlist, the foundry view (``*_foundry.bench``, configurations withheld),
and the provisioning bitstream (``*.stt``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .analysis.ppa import PpaAnalyzer
from .attacks import (
    BruteForceAttack,
    ConfiguredOracle,
    MlAttack,
    SatAttack,
    TestingAttack,
)
from .circuits import PAPER_BENCHMARK_ORDER, load_benchmark
from .lint import Category, LintConfig, Linter, Severity, Suppressions, all_rules
from .locking import (
    ALGORITHMS,
    SecurityAnalyzer,
    SecurityDrivenFlow,
    SecurityLevel,
    SecurityRequirement,
)
from .lut import HybridMapper, bitstream
from .netlist import bench_io
from .obs import Recorder, span, to_chrome_trace, use_recorder
from .sim.keybatch import DEFAULT_BATCH_WIDTH
from .reporting import format_scientific, format_table


def _load(path_or_name: str):
    """Resolve a circuit argument and run the structural lint pre-flight.

    Error-severity findings print as rendered lint output and exit non-zero
    — every finding at once, instead of the first :class:`NetlistError` the
    old ``netlist.validate()`` call would have raised.
    """
    path = Path(path_or_name)
    if path.exists():
        text = path.read_text()
        try:
            netlist = bench_io.loads(text, path.stem, validate=False)
        except bench_io.BenchFormatError as exc:
            # Too broken to even parse (e.g. a multi-driven net): run the
            # source-level rules so the user sees every such defect at once.
            report = Linter().run_source(text, path.stem, artifact=str(path))
            if report.findings:
                print(report.render_text(), file=sys.stderr)
            raise SystemExit(f"error: {path}: {exc}")
        report = Linter().run(
            netlist,
            categories={Category.STRUCTURAL},
            artifact=str(path),
            source_text=text,
        )
    elif path_or_name in PAPER_BENCHMARK_ORDER or path_or_name == "s27":
        netlist = load_benchmark(path_or_name)
        report = Linter().run(netlist, categories={Category.STRUCTURAL})
    else:
        raise SystemExit(
            f"error: {path_or_name!r} is neither a file nor a known benchmark"
        )
    if report.has_errors:
        print(report.render_text(), file=sys.stderr)
        raise SystemExit(1)
    return netlist


def cmd_gen(args: argparse.Namespace) -> int:
    netlist = load_benchmark(args.circuit, seed=args.seed)
    out = Path(args.out or f"{args.circuit}.bench")
    bench_io.dump(netlist, out)
    print(f"wrote {out} ({netlist.stats()})")
    return 0


def cmd_lock(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    try:
        algorithm_cls = ALGORITHMS[args.algorithm]
    except KeyError:
        raise SystemExit(
            f"error: unknown algorithm {args.algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        )
    algorithm = algorithm_cls(
        seed=args.seed, decoy_inputs=args.decoys, absorb=args.absorb
    )
    result = algorithm.run(netlist)
    out = Path(args.out or f"{netlist.name}_{args.algorithm}.bench")
    bench_io.dump(result.hybrid, out)
    foundry_path = out.with_name(out.stem + "_foundry.bench")
    bench_io.dump(result.hybrid, foundry_path, include_config=False)
    bits_path = out.with_suffix(".stt")
    bitstream.dump(result.provisioning, bits_path)
    print(
        f"{args.algorithm}: replaced {result.n_stt} gates "
        f"in {result.cpu_seconds:.2f}s"
    )
    print(f"  hybrid (provisioned): {out}")
    print(f"  foundry view:         {foundry_path}")
    print(f"  bitstream:            {bits_path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    original = _load(args.original)
    hybrid = _load(args.hybrid)
    ppa = PpaAnalyzer()
    overhead = ppa.overhead(original, hybrid, algorithm="cli")
    security = SecurityAnalyzer().analyze(hybrid, algorithm=args.formula)
    rows = [
        ("performance degradation %", f"{overhead.performance_degradation_pct:.2f}"),
        ("power overhead %", f"{overhead.power_overhead_pct:.2f}"),
        ("area overhead %", f"{overhead.area_overhead_pct:.2f}"),
        ("STT LUTs", overhead.n_stt),
        ("size (gates)", overhead.size),
        (
            f"test clocks (Eq. {args.formula})",
            format_scientific(security.log10_test_clocks(args.formula)),
        ),
        ("years @1e9 patt/s", format_cell_years(security, args.formula)),
    ]
    print(format_table(["metric", "value"], rows, title=f"{hybrid.name} vs {original.name}"))
    return 0


def format_cell_years(security, formula: str) -> str:
    years = security.years_to_break(formula)
    if years == float("inf") or years > 1e300:
        return ">1e300"
    if years >= 1e6:
        return format_scientific(security.log10_test_clocks(formula) - 16.5)
    return f"{years:.3g}"


def cmd_attack(args: argparse.Namespace) -> int:
    foundry = _load(args.foundry)
    provisioned = _load(args.provisioned)
    oracle = ConfiguredOracle(provisioned, scan=not args.no_scan)
    if args.attack == "testing":
        attack = TestingAttack(foundry, oracle, seed=args.seed)
        # (the testing attack's deduction lanes batch inherently; the
        # --batch-width knob applies to the hypothesis-sweeping attacks)
        result = attack.run()
        print(
            f"testing attack: {len(result.resolved)} resolved, "
            f"{len(result.unresolved)} unresolved, "
            f"{result.test_clocks} test clocks"
        )
        return 0 if result.success else 1
    if args.attack == "brute":
        attack = BruteForceAttack(
            foundry, oracle, seed=args.seed, batch_width=args.batch_width
        )
        result = attack.run()
        print(
            f"brute force: tested {result.hypotheses_tested} of "
            f"{result.hypotheses_total} hypotheses, "
            f"{'KEY FOUND' if result.success else 'failed'}, "
            f"{result.test_clocks} test clocks"
        )
        return 0 if result.success else 1
    if args.attack == "sat":
        attack = SatAttack(foundry, oracle)
        result = attack.run()
        print(
            f"sat attack: {result.iterations} iterations, "
            f"{'KEY FOUND' if result.success else 'gave up'}, "
            f"{result.test_clocks} test clocks"
        )
        return 0 if result.success else 1
    if args.attack == "ml":
        attack = MlAttack(
            foundry, oracle, seed=args.seed, batch_width=args.batch_width
        )
        result = attack.run()
        print(
            f"ml attack: {result.iterations} iterations over "
            f"{result.key_bits} key bits, best agreement "
            f"{result.best_agreement:.3f}, "
            f"{'KEY FOUND' if result.success else 'failed'}"
        )
        return 0 if result.success else 1
    raise SystemExit(f"error: unknown attack {args.attack!r}")


def cmd_program(args: argparse.Namespace) -> int:
    foundry = _load(args.foundry)
    record = bitstream.load(args.bitstream)
    mapper = HybridMapper()
    mapper.program(foundry, record)
    out = Path(args.out or f"{foundry.name}_provisioned.bench")
    bench_io.dump(foundry, out)
    energy, time_ns = mapper.program_cost(record)
    print(
        f"programmed {len(record)} LUTs ({record.total_bits} bits, "
        f"{energy:.1f} pJ, {time_ns / 1000:.1f} µs serial); wrote {out}"
    )
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    requirement = SecurityRequirement(
        level=SecurityLevel(args.level),
        decoy_inputs=args.decoys,
        absorb=args.absorb,
        disable_scan_on_release=not args.keep_scan,
        seed=args.seed,
    )
    flow = SecurityDrivenFlow()
    report = flow.run(netlist, requirement, output_dir=args.out_dir)
    print(report.summary())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(
                f"{rule.id}  {rule.slug:<22} [{rule.severity.value:<7}] "
                f"({rule.category.value}) {rule.title}"
            )
        return 0
    if not args.netlist:
        raise SystemExit("error: lint requires a netlist (or --list-rules)")
    config = LintConfig(
        allow_unprogrammed_luts=not args.strict_luts,
        min_key_bits=args.min_key_bits,
    )
    linter = Linter(rules=args.rules or None, config=config)
    suppressions = Suppressions(rules=set(args.disable or []))
    categories = (
        {Category(c) for c in args.category} if args.category else None
    )
    path = Path(args.netlist)
    if path.exists():
        text = path.read_text()
        parse_error = None
        try:
            netlist = bench_io.loads(text, path.stem, validate=False)
        except bench_io.BenchFormatError as exc:
            netlist, parse_error = None, exc
        report = linter.run(
            netlist,
            suppressions=suppressions,
            categories=categories,
            artifact=str(path),
            source_text=text,
        )
        if parse_error is not None and not report.has_errors:
            # Parse failure the source rules did not explain — surface it.
            print(f"error: {path}: {parse_error}", file=sys.stderr)
            return 1
    elif args.netlist in PAPER_BENCHMARK_ORDER or args.netlist == "s27":
        netlist = load_benchmark(args.netlist)
        report = linter.run(
            netlist, suppressions=suppressions, categories=categories
        )
    else:
        raise SystemExit(
            f"error: {args.netlist!r} is neither a file nor a known benchmark"
        )
    if args.format == "json":
        rendered = report.to_json(indent=2)
    elif args.format == "sarif":
        rendered = report.to_sarif(indent=2)
    else:
        rendered = report.render_text()
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        print(f"wrote {args.out} ({report.summary()})")
    else:
        print(rendered)
    threshold = Severity(args.fail_on)
    return 1 if report.fails_at(threshold) else 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Static key-leakage audit (repro.dataflow) with verified verdicts."""
    import json as _json

    from .dataflow import AuditConfig, KeyLeakAnalyzer, verify_report

    netlist = _load(args.circuit)
    if args.algorithm:
        try:
            algorithm_cls = ALGORITHMS[args.algorithm]
        except KeyError:
            raise SystemExit(
                f"error: unknown algorithm {args.algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        result = algorithm_cls(seed=args.seed).run(netlist)
        target = result.hybrid
    else:
        target = netlist
        if not target.luts:
            raise SystemExit(
                "error: nothing to audit — the netlist has no LUTs; "
                "pass --algorithm to lock it first"
            )
    analyzer = KeyLeakAnalyzer(AuditConfig(max_support=args.max_support))
    report = analyzer.analyze(target)
    verification = None
    if not args.no_verify:
        # Replays every provably-inferable claim against the provisioned
        # ground truth and SAT-proves every don't-care claim.  On a pure
        # foundry view (no configurations) the claims are unverifiable,
        # which the default --fail-on refuses to wave through.
        verification = verify_report(report, target)
    if args.format == "json":
        rendered = _json.dumps(report.to_json_dict(), indent=2)
    elif args.format == "sarif":
        rendered = _json.dumps(report.to_sarif_dict(), indent=2)
    else:
        rendered = report.render_text()
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        print(f"wrote {args.out} ({report.summary()})")
    else:
        print(rendered)
    if args.fail_on == "never":
        return 0
    refuted = verification is not None and not verification.ok
    unverified = report.n_inferable > 0 and verification is None
    if refuted or unverified:
        return 1
    if args.fail_on == "inferable" and report.n_inferable:
        return 1
    if args.fail_on == "weak" and (report.n_inferable or report.n_weak):
        return 1
    return 0


def _parse_int_list(text: str) -> List[int]:
    """``"0,3,5"`` and range shorthand ``"0:8"`` (half-open), mixable."""
    out: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            out.extend(range(int(lo), int(hi)))
        else:
            out.append(int(part))
    if not out:
        raise SystemExit(f"error: empty integer list {text!r}")
    return out


def _parse_name_list(text: str) -> List[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise SystemExit(f"error: empty list {text!r}")
    return names


def _sweep_progress_printer():
    """Progress sink rendering the runner's events to stderr."""

    def progress(event: dict) -> None:
        kind = event.get("event")
        if kind == "resume":
            # The runner emits this event unconditionally (it sizes the
            # run); only a warm cache is worth a line of output.
            if event["cached"]:
                print(
                    f"[sweep] {event['cached']} of {event['total']} trials "
                    "already cached",
                    file=sys.stderr,
                    flush=True,
                )
            return
        if kind == "job":
            print(
                f"[sweep] lease job {event.get('job_id')} "
                f"({event.get('trials')} trials) at {event.get('job_dir')}",
                file=sys.stderr,
                flush=True,
            )
            return
        if kind != "trial":
            return
        eta = f"  eta {event['eta']:.0f}s" if event["eta"] else ""
        print(
            f"[sweep {event['done']}/{event['total']}] {event['label']} "
            f"{event['status']} ({event['trial_seconds']:.1f}s){eta}",
            file=sys.stderr,
            flush=True,
        )

    return progress


def _load_spec_file(path: str):
    from .sweep import SweepSpec

    import json as _json

    try:
        return SweepSpec.from_dict(_json.loads(Path(path).read_text()))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {path}: {exc}")


def cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import (
        SweepSpec,
        default_workers,
        load_circuit,
        render_csv,
        render_table,
        run_sweep,
    )

    if args.spec:
        spec = _load_spec_file(args.spec)
    else:
        spec = SweepSpec(
            circuits=_parse_name_list(args.circuits),
            algorithms=_parse_name_list(args.algorithms),
            seeds=_parse_int_list(args.seeds),
            attacks=_parse_name_list(args.attacks),
            analyses=_parse_name_list(args.analyses),
            gen_seed=args.gen_seed,
        )
    if args.max_gates:
        spec.circuits = [
            name
            for name in spec.circuits
            if len(load_circuit(name, spec.gen_seed).gates) <= args.max_gates
        ]
        if not spec.circuits:
            raise SystemExit("error: --max-gates filtered out every circuit")

    result = run_sweep(
        spec,
        workers=args.workers if args.workers > 0 else default_workers(),
        cache_dir=None if args.no_cache else args.cache_dir,
        resume=args.resume,
        progress=None if args.quiet else _sweep_progress_printer(),
    )

    if args.format == "json":
        import json as _json

        rendered = _json.dumps(
            {
                "spec": spec.to_dict(),
                "stats": vars(result.stats),
                "rows": result.rows,
            },
            indent=2,
            sort_keys=True,
        )
    elif args.format == "csv":
        rendered = render_csv(result.rows).rstrip("\n")
    else:
        rendered = render_table(result.rows)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered)
    print(result.stats.summary(), file=sys.stderr)
    return 1 if result.stats.failed else 0


def cmd_sweep_worker(args: argparse.Namespace) -> int:
    from .sweep.backends import default_owner, work_stealing_worker
    from .sweep.cache import ResultCache

    cache = ResultCache(args.cache_dir, reap_tmp_ttl=None)
    job_id = args.job
    if not job_id:
        jobs_root = cache.root / "jobs"
        candidates = (
            [p for p in jobs_root.iterdir() if (p / "manifest.json").exists()]
            if jobs_root.is_dir()
            else []
        )
        if not candidates:
            raise SystemExit(f"error: no lease jobs under {jobs_root}")
        job_id = max(
            candidates, key=lambda p: (p / "manifest.json").stat().st_mtime
        ).name
    owner = args.owner or default_owner("cli")
    print(
        f"[worker] {owner} joining job {job_id} at {cache.root}",
        file=sys.stderr,
        flush=True,
    )
    executed = work_stealing_worker(
        cache.root, job_id, owner, poll_interval=args.poll
    )
    print(f"[worker] {owner} executed {executed} trials", file=sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import (
        MINI_SUITE,
        CheckError,
        all_checks,
        render_fault_json,
        render_fault_text,
        render_json,
        render_text,
        resolve_checks,
        run_checks,
        run_fault_injection,
    )

    if args.list:
        for check in all_checks():
            print(f"{check.name:<26} [{check.family:<11}] {check.description}")
        return 0

    seeds = _parse_int_list(args.seeds)

    if args.fault_injection:
        circuits = (
            _parse_name_list(args.circuits) if args.circuits else ["s27"]
        )

        def fault_progress(outcome) -> None:
            status = "caught" if outcome.fired else "NOT CAUGHT"
            print(
                f"[check] fault {outcome.fault} [{outcome.family}]: "
                f"{status} ({outcome.seconds:.1f}s)",
                file=sys.stderr,
                flush=True,
            )

        fault_report = run_fault_injection(
            circuits=circuits,
            seed=seeds[0],
            trials=args.trials,
            gen_seed=args.gen_seed,
            progress=None if args.quiet else fault_progress,
        )
        rendered = (
            render_fault_json(fault_report)
            if args.format == "json"
            else render_fault_text(fault_report)
        )
        if args.out:
            Path(args.out).write_text(rendered + "\n")
            print(f"wrote {args.out} ({fault_report.summary()})")
        else:
            print(rendered)
        return 0 if fault_report.ok else 1

    try:
        checks = resolve_checks(
            _parse_name_list(args.checks) if args.checks else None
        )
    except CheckError as exc:
        raise SystemExit(f"error: {exc}")
    circuits = (
        _parse_name_list(args.circuits) if args.circuits else list(MINI_SUITE)
    )

    def progress(outcome) -> None:
        status = "ok" if outcome.ok else "FAIL"
        print(
            f"[check] {outcome.check} {outcome.circuit}/s{outcome.seed} "
            f"{status} ({outcome.comparisons} comparisons, "
            f"{outcome.seconds:.1f}s)",
            file=sys.stderr,
            flush=True,
        )

    report = run_checks(
        checks=checks,
        circuits=circuits,
        seeds=seeds,
        trials=args.trials,
        gen_seed=args.gen_seed,
        progress=None if args.quiet else progress,
    )
    rendered = (
        render_json(report) if args.format == "json" else render_text(report)
    )
    if args.out:
        Path(args.out).write_text(rendered + "\n")
        print(f"wrote {args.out} ({report.summary()})")
    else:
        print(rendered)
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import summarize_chrome_trace

    import json as _json

    try:
        document = _json.loads(Path(args.file).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {args.file}: {exc}")
    print(summarize_chrome_trace(document))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    print(
        "Benchmark reports are generated by the pytest-benchmark harness:\n"
        "  pytest benchmarks/ --benchmark-only -q\n"
        "The underlying experiment grids can be run (in parallel, with a\n"
        "resumable result cache) via the sweep engine:\n"
        "  repro-lock sweep --workers 4 --seeds 0:8 --format table\n"
        "Individual tables/figures:\n"
        "  pytest benchmarks/test_fig1_stt_vs_cmos.py --benchmark-only\n"
        "  pytest benchmarks/test_table1_ppa_overhead.py --benchmark-only\n"
        "  pytest benchmarks/test_table2_cpu_time.py --benchmark-only\n"
        "  pytest benchmarks/test_fig3_test_clocks.py --benchmark-only"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lock",
        description="Hybrid STT-CMOS logic obfuscation (DAC 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every subcommand: record the run's span tree and write it
    # as Chrome trace-event JSON (chrome://tracing / Perfetto / `repro-lock
    # trace summarize`).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans/counters for this command and write them as "
        "Chrome trace-event JSON to PATH",
    )

    p_gen = sub.add_parser(
        "gen", parents=[common], help="generate a benchmark circuit"
    )
    p_gen.add_argument("circuit", help="benchmark name (e.g. s641, s38584, s27)")
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--seed", type=int, default=2016)
    p_gen.set_defaults(func=cmd_gen)

    p_lock = sub.add_parser("lock", parents=[common], help="run a selection algorithm")
    p_lock.add_argument("circuit", help=".bench file or benchmark name")
    p_lock.add_argument(
        "--algorithm",
        default="parametric",
        choices=sorted(ALGORITHMS),
    )
    p_lock.add_argument("--out", default=None)
    p_lock.add_argument("--seed", type=int, default=0)
    p_lock.add_argument("--decoys", type=int, default=0)
    p_lock.add_argument("--absorb", action="store_true")
    p_lock.set_defaults(func=cmd_lock)

    p_analyze = sub.add_parser("analyze", parents=[common], help="PPA + security of a hybrid")
    p_analyze.add_argument("original")
    p_analyze.add_argument("hybrid")
    p_analyze.add_argument(
        "--formula",
        default="parametric",
        choices=["independent", "dependent", "parametric"],
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_attack = sub.add_parser("attack", parents=[common], help="attack a foundry-view netlist")
    p_attack.add_argument("foundry")
    p_attack.add_argument("provisioned", help="oracle: the configured chip")
    p_attack.add_argument(
        "--attack", default="sat", choices=["testing", "brute", "sat", "ml"]
    )
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--no-scan", action="store_true")
    p_attack.add_argument(
        "--batch-width",
        type=int,
        default=DEFAULT_BATCH_WIDTH,
        help="candidate LUT configurations packed per compiled pass for "
        "the brute/ml attacks (1 = serial per-key loop)",
    )
    p_attack.set_defaults(func=cmd_attack)

    p_program = sub.add_parser("program", parents=[common], help="provision a foundry netlist")
    p_program.add_argument("foundry")
    p_program.add_argument("bitstream")
    p_program.add_argument("--out", default=None)
    p_program.set_defaults(func=cmd_program)

    p_flow = sub.add_parser(
        "flow", parents=[common], help="run the full security-driven flow (Fig. 2)"
    )
    p_flow.add_argument("circuit", help=".bench file or benchmark name")
    p_flow.add_argument(
        "--level",
        default="strong-timing-aware",
        choices=[lvl.value for lvl in SecurityLevel],
    )
    p_flow.add_argument("--out-dir", default=None)
    p_flow.add_argument("--seed", type=int, default=0)
    p_flow.add_argument("--decoys", type=int, default=0)
    p_flow.add_argument("--absorb", action="store_true")
    p_flow.add_argument("--keep-scan", action="store_true")
    p_flow.set_defaults(func=cmd_flow)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="run a circuits × algorithms × seeds × attacks experiment grid",
    )
    p_sweep.add_argument(
        "--spec",
        default=None,
        help="JSON SweepSpec file (overrides the grid flags below)",
    )
    p_sweep.add_argument(
        "--circuits",
        default=",".join(PAPER_BENCHMARK_ORDER),
        help="comma-separated benchmark names or .bench paths "
        "(default: the paper's 12-circuit suite)",
    )
    p_sweep.add_argument(
        "--algorithms", default="independent,dependent,parametric"
    )
    p_sweep.add_argument(
        "--seeds",
        default="0",
        help="comma list with range shorthand, e.g. '0:8' or '1,2,9'",
    )
    p_sweep.add_argument(
        "--attacks",
        default="none",
        help="comma list of none/testing/brute/sat/ml",
    )
    p_sweep.add_argument("--analyses", default="ppa,security")
    p_sweep.add_argument("--gen-seed", type=int, default=2016)
    p_sweep.add_argument(
        "--max-gates",
        type=int,
        default=0,
        help="skip circuits larger than this many gates (0 = no limit)",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="lease-worker process count (0 = one per CPU, capped at 8; "
        "1 = run inline, no worker processes)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=".sweep-cache",
        help="content-addressed result store (default: .sweep-cache)",
    )
    p_sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="run without reading or writing the result store (lease "
        "workers coordinate through a temporary one)",
    )
    p_sweep.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve completed trials from the cache (--no-resume re-runs "
        "everything but still records results)",
    )
    p_sweep.add_argument(
        "--format", default="table", choices=["table", "json", "csv"]
    )
    p_sweep.add_argument("--out", default=None, help="write output to a file")
    p_sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_worker = sub.add_parser(
        "sweep-worker",
        parents=[common],
        help="join a lease-worker sweep job as an extra worker "
        "(runs on any host sharing the cache directory)",
    )
    p_worker.add_argument(
        "--cache-dir",
        default=".sweep-cache",
        help="the shared result store the job was started against",
    )
    p_worker.add_argument(
        "--job",
        default=None,
        help="job id under <cache>/jobs/ (default: the newest)",
    )
    p_worker.add_argument(
        "--owner", default=None, help="worker identity for lease accounting"
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.05, help="poll interval seconds"
    )
    p_worker.set_defaults(func=cmd_sweep_worker)

    p_lint = sub.add_parser(
        "lint", parents=[common], help="static analysis: structural/security/timing rules"
    )
    p_lint.add_argument(
        "netlist", nargs="?", help=".bench file or benchmark name"
    )
    p_lint.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"]
    )
    p_lint.add_argument("--out", default=None, help="write output to a file")
    p_lint.add_argument(
        "--category",
        action="append",
        choices=[c.value for c in Category],
        help="restrict to a rule family (repeatable)",
    )
    p_lint.add_argument(
        "--rules",
        action="append",
        metavar="RULE",
        help="run only this rule ID or slug (repeatable)",
    )
    p_lint.add_argument(
        "--disable",
        action="append",
        metavar="RULE",
        help="suppress a rule ID or slug (repeatable)",
    )
    p_lint.add_argument(
        "--strict-luts",
        action="store_true",
        help="treat unprogrammed LUTs as errors (NL108)",
    )
    p_lint.add_argument("--min-key-bits", type=int, default=8)
    p_lint.add_argument(
        "--fail-on",
        default="error",
        choices=["error", "warning", "note"],
        help="exit non-zero when any finding is at least this severe "
        "(default: error)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    p_lint.set_defaults(func=cmd_lint)

    p_audit = sub.add_parser(
        "audit",
        parents=[common],
        help="static key-leakage audit of a locked netlist (verdicts + "
        "SAT-verified witnesses)",
    )
    p_audit.add_argument("circuit", help=".bench file or benchmark name")
    p_audit.add_argument(
        "--algorithm",
        default=None,
        choices=sorted(ALGORITHMS),
        help="lock the circuit with this algorithm before auditing",
    )
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"]
    )
    p_audit.add_argument("--out", default=None, help="write output to a file")
    p_audit.add_argument(
        "--max-support",
        type=int,
        default=12,
        help="largest cone support analysed exhaustively (2**N patterns "
        "per forced run; larger cones are sampled)",
    )
    p_audit.add_argument(
        "--no-verify",
        action="store_true",
        help="skip ground-truth verification of the strong verdicts",
    )
    p_audit.add_argument(
        "--fail-on",
        default="unverified",
        choices=["unverified", "inferable", "weak", "never"],
        help="exit non-zero condition; 'unverified' (default) fails on "
        "any refuted or unverifiable strong claim",
    )
    p_audit.set_defaults(func=cmd_audit)

    p_check = sub.add_parser(
        "check",
        parents=[common],
        help="differential verification: cross-check redundant computations",
    )
    p_check.add_argument(
        "--checks",
        default=None,
        help="comma list of check names or families (default: all; "
        "see --list)",
    )
    p_check.add_argument(
        "--circuits",
        default=None,
        help="comma-separated benchmark names or .bench paths "
        "(default: the mini ISCAS suite s27,s641)",
    )
    p_check.add_argument(
        "--seeds",
        default="0:3",
        help="comma list with range shorthand, e.g. '0:3' or '1,2,9'",
    )
    p_check.add_argument(
        "--trials",
        type=int,
        default=25,
        help="randomized trials per check run (expensive checks scale "
        "this down by their declared divisor)",
    )
    p_check.add_argument("--gen-seed", type=int, default=2016)
    p_check.add_argument(
        "--format", default="text", choices=["text", "json"]
    )
    p_check.add_argument("--out", default=None, help="write output to a file")
    p_check.add_argument(
        "--fault-injection",
        action="store_true",
        help="self-test: inject a defect per check family and demand the "
        "family catches it (guards against vacuous checks)",
    )
    p_check.add_argument(
        "--list", action="store_true", help="print the check catalogue"
    )
    p_check.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    p_check.set_defaults(func=cmd_check)

    p_trace = sub.add_parser(
        "trace", help="inspect a Chrome-trace file written by --trace"
    )
    p_trace.add_argument("action", choices=["summarize"])
    p_trace.add_argument("file", help="trace JSON written by --trace PATH")
    p_trace.set_defaults(func=cmd_trace)

    p_report = sub.add_parser("report", parents=[common], help="how to regenerate the paper's tables")
    p_report.set_defaults(func=cmd_report)
    return parser


def _write_trace(recorder: Recorder, trace_path: str) -> None:
    import json as _json

    try:
        Path(trace_path).write_text(
            _json.dumps(to_chrome_trace(recorder), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"[trace] wrote {trace_path}", file=sys.stderr)
    except OSError as exc:
        print(
            f"error: could not write trace {trace_path}: {exc}",
            file=sys.stderr,
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    recorder = Recorder() if trace_path else None
    try:
        if recorder is None:
            return args.func(args)
        with use_recorder(recorder):
            with span(f"cli.{args.command}") as cli_span:
                code = args.func(args)
                cli_span.set(exit_code=code)
        return code
    except KeyboardInterrupt:
        # Never folded into the generic handlers below: an interrupt must
        # surface as the conventional 128+SIGINT exit, not a silent 0.
        if recorder is not None:
            recorder.record_error("interrupted", command=args.command)
        return 130
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — normal exit.
        # Closing stdout may fail a second time on the same dead pipe
        # (or on an already-detached stream); only those failures are
        # expected here, and they are recorded rather than swallowed.
        try:
            sys.stdout.close()
        except (BrokenPipeError, OSError, ValueError) as exc:
            if recorder is not None:
                recorder.record_error(
                    f"stdout close failed: {type(exc).__name__}: {exc}",
                    command=args.command,
                )
        return 0
    finally:
        if recorder is not None and trace_path:
            _write_trace(recorder, str(trace_path))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Fault-injection self-test: prove the checks are not vacuous.

A differential check that never fires is worse than no check — it
launders confidence.  Each :class:`Fault` here deliberately breaks one
layer the checks guard (a stale compiled kernel, a stale netlist view,
wiring kernels shared across different wiring, a lying SAT solver, a
non-canonical SAT-attack key, a tampered sweep-cache row, an oracle
that forgets to bill memoized replays, a simplify pass that miswires a
gate, a short ML match counter, an implication schedule that misses
config writes), runs the corresponding check family, and demands at
least one divergence.  The faults are installed by monkeypatching the real code
paths — the checks themselves are byte-for-byte the ones the normal run
uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs import Stopwatch, span
from .core import CheckReport, resolve_checks, run_checks


@dataclass(frozen=True)
class Fault:
    """One deliberate defect and the check family expected to catch it."""

    name: str
    family: str
    description: str
    inject: Callable[[], Callable[[], None]]  # install; returns the undo


# ----------------------------------------------------------------------
# the injected defects
# ----------------------------------------------------------------------
def _inject_stale_compiled_kernel() -> Callable[[], None]:
    """Compiled programs bake each LUT's configuration in at build time.
    Config writes bump no revision, so the memoized program keeps
    simulating the configs it was built with."""
    from types import SimpleNamespace

    from ..sim.compiled import CompiledProgram

    original = CompiledProgram.__init__

    def baking_init(self, netlist):
        original(self, netlist)
        self.lut_nodes = [
            SimpleNamespace(
                name=node.name, n_inputs=node.n_inputs, lut_config=node.lut_config
            )
            for node in self.lut_nodes
        ]

    CompiledProgram.__init__ = baking_init  # type: ignore[method-assign]

    def undo() -> None:
        CompiledProgram.__init__ = original  # type: ignore[method-assign]

    return undo


def _inject_sat_always_unsat() -> Callable[[], None]:
    """The CDCL solver reports UNSAT for every formula, which makes every
    miter 'equivalent' — the SAT layer silently lying."""
    from ..sat.solver import Solver

    original = Solver.solve
    Solver.solve = lambda self, assumptions=(): False  # type: ignore[method-assign]

    def undo() -> None:
        Solver.solve = original  # type: ignore[method-assign]

    return undo


def _inject_sweep_cache_tamper() -> Callable[[], None]:
    """Warm cache reads return silently corrupted rows (bit-rot that
    JSON still parses — the corruption quarantine cannot see it)."""
    from ..sweep.cache import ResultCache

    original = ResultCache.get

    def tampered_get(self, key):
        row = original(self, key)
        if isinstance(row, dict) and isinstance(row.get("metrics"), dict):
            row = dict(row)
            row["metrics"] = dict(row["metrics"])
            row["metrics"]["tampered"] = True
        return row

    ResultCache.get = tampered_get  # type: ignore[method-assign]

    def undo() -> None:
        ResultCache.get = original  # type: ignore[method-assign]

    return undo


def _inject_oracle_free_replays() -> Callable[[], None]:
    """The oracle stops billing memo-served replays — the exact counter
    bug the query memo could have introduced (Eq. 1-3 counts applied
    patterns, so replays must stay on the bill)."""
    from ..attacks.oracle import ConfiguredOracle

    original = ConfiguredOracle.query

    def unbilled_query(self, inputs, state=None, width=1):
        hits_before = self.cache_hits
        result = original(self, inputs, state, width)
        if self.cache_hits > hits_before:
            self.queries -= width
            self.test_clocks -= width * (1 if self.scan else self.depth)
        return result

    ConfiguredOracle.query = unbilled_query  # type: ignore[method-assign]

    def undo() -> None:
        ConfiguredOracle.query = original  # type: ignore[method-assign]

    return undo


def _inject_broken_simplify() -> Callable[[], None]:
    """simplify.sweep miswires the design: after the real pass it flips
    one surviving gate's function (a subtly wrong rewrite rule)."""
    from ..netlist import simplify
    from ..netlist.gates import GateType

    flipped = {
        GateType.AND: GateType.NAND,
        GateType.NAND: GateType.AND,
        GateType.OR: GateType.NOR,
        GateType.NOR: GateType.OR,
        GateType.XOR: GateType.XNOR,
        GateType.XNOR: GateType.XOR,
    }
    original = simplify.sweep

    def broken_sweep(netlist):
        stats = original(netlist)
        for name in netlist.gates:
            gate_type = netlist.node(name).gate_type
            if gate_type in flipped:
                netlist.set_gate_type(name, flipped[gate_type])
                break
        return stats

    simplify.sweep = broken_sweep

    def undo() -> None:
        simplify.sweep = original

    return undo


def _inject_non_canonical_key() -> Callable[[], None]:
    """SAT-attack key extraction returns the lex-*max* consistent key: a
    key that still matches every DI response, but not the canonical one
    the extraction contract promises."""
    from ..attacks import sat_attack

    original = sat_attack.extract_canonical_key

    def lex_max_key(solver, keys, assumptions=()):
        ordered = sorted(keys.items())
        fixed: List[int] = []
        for _, var in ordered:
            ok = solver.solve(list(assumptions) + fixed + [var])
            fixed.append(var if ok else -var)
        key: Dict[str, int] = {}
        for ((lut, row), _), lit in zip(ordered, fixed):
            key[lut] = key.get(lut, 0) | (int(lit > 0) << row)
        return key

    sat_attack.extract_canonical_key = lex_max_key

    def undo() -> None:
        sat_attack.extract_canonical_key = original

    return undo


def _inject_keybatch_lane_corruption() -> Callable[[], None]:
    """Batched screening corrupts lane 0 of every survivor mask (an
    off-by-one in the lane→hypothesis mapping): the serial path is
    untouched, so the keybatch parity checks must diverge."""
    from ..sim import keybatch

    original = keybatch.surviving_lanes

    def corrupted(alive: int, lanes: int):
        return original(alive ^ 1, lanes)

    keybatch.surviving_lanes = corrupted

    def undo() -> None:
        keybatch.surviving_lanes = original

    return undo


def _inject_score_count_corruption() -> Callable[[], None]:
    """Batched ML scoring drops the top counter plane, so every count at
    or above its power of two loses it (a counter one plane too short)."""
    from ..sim import keybatch

    original = keybatch.lane_counts

    def truncated(planes, lanes):
        return original(planes[:-1], lanes)

    keybatch.lane_counts = truncated

    def undo() -> None:
        keybatch.lane_counts = original

    return undo


def _inject_implication_stale_config() -> Callable[[], None]:
    """The implication schedule folds LUT configs at build time.  Config
    writes bump no revision, so the memoized schedule keeps implying the
    configs it was built with."""
    from types import SimpleNamespace

    from ..sim.justify import _LUT, _Schedule

    original = _Schedule.__init__

    def folding_init(self, netlist):
        original(self, netlist)
        self.steps = [
            step[:3] + (SimpleNamespace(lut_config=step[3].lut_config),) + step[4:]
            if step[1] == _LUT
            else step
            for step in self.steps
        ]

    _Schedule.__init__ = folding_init  # type: ignore[method-assign]

    def undo() -> None:
        _Schedule.__init__ = original  # type: ignore[method-assign]

    return undo


def _inject_dataflow_verdict_corruption() -> Callable[[], None]:
    """The key-leakage analyzer starts lying about its strong claims:
    every witness predicts the *inverted* responses and every witnessed
    bit is additionally claimed don't-care.  Recovery replays decode the
    wrong bit and SAT refutes the redundancy claims — both verification
    paths must fire."""
    from ..dataflow import engine

    original = engine.KeyLeakAnalyzer.analyze

    def corrupted_analyze(self, netlist):
        report = original(self, netlist)
        for audit in report.luts:
            for bit in audit.bits:
                if bit.witness is None:
                    continue
                bit.witness = engine.Witness(
                    pattern=bit.witness.pattern,
                    observe=bit.witness.observe,
                    value_if_zero=bit.witness.value_if_one,
                    value_if_one=bit.witness.value_if_zero,
                    queries=bit.witness.queries,
                )
                bit.dont_care = True
        return report

    engine.KeyLeakAnalyzer.analyze = corrupted_analyze  # type: ignore[method-assign]

    def undo() -> None:
        engine.KeyLeakAnalyzer.analyze = original  # type: ignore[method-assign]

    return undo


def _inject_csr_edge_corruption() -> Callable[[], None]:
    """Freshly built CSR views carry one corrupted fan-in edge: the first
    eligible combinational node reads a startpoint instead of its real
    driver (a transposed index during construction).  The networkx
    references are built from the ``Node`` dicts, never from the arrays,
    so the graph parity checks must diverge."""
    from ..netlist.csr import CsrView

    original = CsrView.__init__

    def corrupted_init(self, netlist):
        original(self, netlist)
        startpoint = next(
            (j for j in range(self.n) if self.is_input[j] or self.is_seq[j]),
            None,
        )
        if startpoint is None:
            return
        for i in range(self.n):
            if not self.is_comb[i]:
                continue
            pins = list(
                self.fanin_idx[self.fanin_ptr[i] : self.fanin_ptr[i + 1]]
            )
            # Only corrupt a node that doesn't already read the startpoint,
            # so the corrupted fan-in *set* provably differs from the truth.
            if startpoint in pins:
                continue
            for k in range(self.fanin_ptr[i], self.fanin_ptr[i + 1]):
                if self.fanin_idx[k] >= 0:
                    self.fanin_idx[k] = startpoint
                    return

    CsrView.__init__ = corrupted_init  # type: ignore[method-assign]

    def undo() -> None:
        CsrView.__init__ = original  # type: ignore[method-assign]

    return undo


def _inject_stale_view() -> Callable[[], None]:
    """``replace_with_lut`` skips the revision bump, so views built before
    LUT insertion keep the old gate types and STA times a hybrid as if it
    were the original design (Table I's performance column reads 0 %)."""
    from ..netlist.netlist import Netlist

    original = Netlist.replace_with_lut

    def unbumped(self, name, program=True):
        revision = self._structure_revision
        node = original(self, name, program)
        self._structure_revision = revision
        return node

    Netlist.replace_with_lut = unbumped  # type: ignore[method-assign]

    def undo() -> None:
        Netlist.replace_with_lut = original  # type: ignore[method-assign]

    return undo


def _inject_wiring_share_collision() -> Callable[[], None]:
    """The wiring-share key drops ``fanin_idx``: a copy rewired with the
    same pin counts finds its original's :class:`~repro.netlist.csr.
    Wiring` and inherits levels, depths and guide distances that belong
    to the old wiring."""
    from ..netlist import csr

    original = csr._wiring_key

    def collision_prone_key(view):
        key = original(view)
        return key[:2] + key[3:]

    csr._wiring_key = collision_prone_key

    def undo() -> None:
        csr._wiring_key = original

    return undo


FAULTS: List[Fault] = [
    Fault(
        name="stale-compiled-kernel",
        family="sim",
        description="compiled programs bake LUT configs in at build time",
        inject=_inject_stale_compiled_kernel,
    ),
    Fault(
        name="sat-always-unsat",
        family="sat",
        description="the CDCL solver claims UNSAT for every formula",
        inject=_inject_sat_always_unsat,
    ),
    Fault(
        name="non-canonical-key",
        family="sat",
        description="SAT-attack key extraction returns the lex-max "
        "consistent key instead of the lex-min",
        inject=_inject_non_canonical_key,
    ),
    Fault(
        name="sweep-cache-tamper",
        family="sweep",
        description="warm cache reads return silently corrupted rows",
        inject=_inject_sweep_cache_tamper,
    ),
    Fault(
        name="oracle-free-replays",
        family="attack",
        description="the oracle stops billing memo-served replays",
        inject=_inject_oracle_free_replays,
    ),
    Fault(
        name="broken-simplify",
        family="metamorphic",
        description="simplify.sweep flips one gate function",
        inject=_inject_broken_simplify,
    ),
    Fault(
        name="dataflow-verdict-corruption",
        family="dataflow",
        description="the key-leakage analyzer inverts every witness "
        "prediction and over-claims don't-cares",
        inject=_inject_dataflow_verdict_corruption,
    ),
    Fault(
        name="keybatch-lane-corruption",
        family="keybatch",
        description="batched screening corrupts lane 0 of every survivor mask",
        inject=_inject_keybatch_lane_corruption,
    ),
    Fault(
        name="score-count-corruption",
        family="keybatch",
        description="batched score_keys drops the top bit-sliced counter "
        "plane",
        inject=_inject_score_count_corruption,
    ),
    Fault(
        name="implication-stale-config",
        family="attack",
        description="the implication schedule folds LUT configs at build "
        "time and misses later lut_config writes",
        inject=_inject_implication_stale_config,
    ),
    Fault(
        name="csr-edge-corruption",
        family="graph",
        description="CSR views are built with one fan-in edge redirected "
        "onto a startpoint",
        inject=_inject_csr_edge_corruption,
    ),
    Fault(
        name="stale-view",
        family="graph",
        description="replace_with_lut skips the revision bump, so warm "
        "views keep the pre-lock gate types",
        inject=_inject_stale_view,
    ),
    Fault(
        name="wiring-share-collision",
        family="graph",
        description="the wiring-share key ignores fanin_idx, so a rewired "
        "copy inherits its original's wiring kernels",
        inject=_inject_wiring_share_collision,
    ),
]


# ----------------------------------------------------------------------
# the self-test runner
# ----------------------------------------------------------------------
@dataclass
class FaultOutcome:
    """Result of running one fault's check family under the fault."""

    fault: str
    family: str
    description: str
    fired: bool
    divergences: int
    comparisons: int
    seconds: float
    report: Optional[CheckReport] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fault": self.fault,
            "family": self.family,
            "description": self.description,
            "fired": self.fired,
            "divergences": self.divergences,
            "comparisons": self.comparisons,
            "seconds": round(self.seconds, 3),
        }


@dataclass
class FaultInjectionReport:
    outcomes: List[FaultOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Every injected fault was caught by its check family."""
        return all(outcome.fired for outcome in self.outcomes)

    def summary(self) -> str:
        caught = sum(1 for o in self.outcomes if o.fired)
        return (
            f"fault injection: {caught}/{len(self.outcomes)} faults caught "
            f"in {self.wall_seconds:.1f}s"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "summary": self.summary(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def run_fault_injection(
    circuits: Sequence[str] = ("s27",),
    seed: int = 0,
    trials: int = 16,
    gen_seed: int = 2016,
    progress: Optional[Callable[[FaultOutcome], None]] = None,
) -> FaultInjectionReport:
    """Inject every fault in turn and run its check family against it.

    A fault whose family reports zero divergences means the family is
    vacuous for that defect class — the self-test fails.
    """
    clock = Stopwatch()
    report = FaultInjectionReport()
    for fault in FAULTS:
        undo = fault.inject()
        fault_clock = Stopwatch()
        with span(
            "check.fault", fault=fault.name, family=fault.family
        ) as fault_span:
            try:
                family_report = run_checks(
                    checks=resolve_checks([fault.family]),
                    circuits=circuits,
                    seeds=(seed,),
                    trials=trials,
                    gen_seed=gen_seed,
                )
            finally:
                undo()
            fault_span.set(
                fired=bool(family_report.divergences),
                divergences=len(family_report.divergences),
            )
        outcome = FaultOutcome(
            fault=fault.name,
            family=fault.family,
            description=fault.description,
            fired=bool(family_report.divergences),
            divergences=len(family_report.divergences),
            comparisons=family_report.comparisons,
            seconds=fault_clock.elapsed(),
            report=family_report,
        )
        report.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    report.wall_seconds = clock.elapsed()
    return report

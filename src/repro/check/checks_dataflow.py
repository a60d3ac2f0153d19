"""Dataflow-engine differential checks.

The :mod:`repro.dataflow` audit makes three kinds of claims, each with an
independent ground truth to check against:

* a ``provably-inferable`` verdict carries a distinguishing-input witness
  — replaying it against the *provisioned* hybrid (which the analyzer
  never saw: it audits the stripped foundry view) must recover the true
  configuration bit;
* a don't-care claim says flipping the bit cannot change the circuit —
  the SAT equivalence checker must prove the flipped netlist equivalent;
* the ternary lattice itself must be an abstraction of concrete
  simulation: for any completion of the unknowns (X inputs, withheld
  configs), every concrete net value must lie inside the abstract rails.

The first two replay the same machinery ``repro-lock audit`` uses
(:func:`repro.dataflow.verify_report`); the third drives the propagator
directly against the reference simulator
(:func:`~repro.sim.logicsim.reference_evaluate`).
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..netlist.netlist import Netlist
from ..netlist.transform import replace_gates_with_luts
from .checks_attacks import _lock_small
from .core import CheckContext, register


@register(
    name="dataflow-inferable-recovery",
    family="dataflow",
    description="every provably-inferable key bit's witness, replayed "
    "against the provisioned hybrid, must recover the true configuration "
    "bit, and every don't-care claim must be SAT-proved redundant",
    trial_divisor=4,
)
def dataflow_inferable_recovery(ctx: CheckContext) -> None:
    from ..dataflow import KeyLeakAnalyzer, verify_report

    rng = ctx.rng
    analyzer = KeyLeakAnalyzer()
    for round_no in range(ctx.trials):
        hybrid = _lock_small(ctx.netlist(), rng)
        if hybrid is None:
            return
        # The analyzer strips the configurations itself; auditing the
        # hybrid is auditing the foundry view.
        report = analyzer.analyze(hybrid)
        verification = verify_report(report, hybrid)
        ctx.require(
            "audited hybrid is fully verifiable",
            not verification.unverifiable_luts,
            "the provisioned hybrid left LUTs without ground truth: "
            f"{verification.unverifiable_luts}",
            round=round_no,
        )
        recoveries = [r for r in verification.results if r.kind == "recovery"]
        ctx.compare(
            "one recovery replay per provably-inferable bit",
            len(recoveries),
            report.n_inferable,
            round=round_no,
        )
        for result in verification.results:
            ctx.require(
                f"{result.kind} claim for {result.lut}[{result.row}] holds",
                result.ok,
                f"dataflow verdict refuted by ground truth: {result.detail}",
                round=round_no,
                lut=result.lut,
                row=result.row,
                kind=result.kind,
                recovered=result.recovered,
                expected=result.expected,
            )


def _lock_duplicated_pin(
    netlist: Netlist, rng: random.Random
) -> Optional[Tuple[str, str]]:
    """Lock one 2-input gate and rewire pin 0 onto pin 1's driver.

    With both pins fed by the same net, rows 1 and 2 (pin values 01/10)
    can never be selected — two guaranteed don't-care key bits.
    """
    candidates = [
        name
        for name in netlist.gates
        if netlist.node(name).is_combinational
        and not netlist.node(name).is_lut
        and netlist.node(name).n_inputs == 2
    ]
    if not candidates:
        return None
    picked = rng.choice(candidates)
    replace_gates_with_luts(netlist, [picked], program=True)
    shared = netlist.node(picked).fanin[1]
    netlist.rewire_fanin(picked, 0, shared)
    return picked, shared


@register(
    name="dataflow-dontcare-sat",
    family="dataflow",
    description="a LUT with a duplicated input pin has two provably "
    "unreachable rows: the audit must claim them don't-care and the SAT "
    "checker must prove each flip redundant",
    trial_divisor=4,
)
def dataflow_dontcare_sat(ctx: CheckContext) -> None:
    from ..dataflow import AuditConfig, KeyLeakAnalyzer, verify_report

    rng = ctx.rng
    analyzer = KeyLeakAnalyzer(AuditConfig(max_support=16))
    for round_no in range(ctx.trials):
        netlist = ctx.netlist()
        locked = _lock_duplicated_pin(netlist, rng)
        if locked is None:
            return
        lut_name, shared = locked
        report = analyzer.analyze(netlist)
        audit = next(a for a in report.luts if a.lut == lut_name)
        ctx.require(
            "duplicated-pin rows 1 and 2 are claimed don't-care",
            {1, 2} <= set(audit.dont_care_rows),
            f"LUT {lut_name!r} with both pins on {shared!r} should have "
            f"rows 1 and 2 unreachable; audit claims {audit.dont_care_rows}",
            round=round_no,
            lut=lut_name,
            dont_care_rows=audit.dont_care_rows,
        )
        verification = verify_report(report, netlist)
        proofs = [r for r in verification.results if r.kind == "dont-care"]
        ctx.require(
            "at least the two unreachable rows were SAT-checked",
            len(proofs) >= 2,
            f"expected >= 2 don't-care SAT proofs, got {len(proofs)}",
            round=round_no,
        )
        for result in proofs:
            ctx.require(
                f"don't-care claim for {result.lut}[{result.row}] "
                "SAT-proved",
                result.ok,
                f"SAT refuted a don't-care claim: {result.detail}",
                round=round_no,
                lut=result.lut,
                row=result.row,
            )


@register(
    name="dataflow-ternary-soundness",
    family="dataflow",
    description="the ternary lattice abstracts concrete simulation: for "
    "random completions of the unknowns (X inputs, withheld configs), "
    "every concrete net value must lie inside the propagated rails",
)
def dataflow_ternary_soundness(ctx: CheckContext) -> None:
    from ..dataflow import TernaryPropagator, TernaryWord
    from ..lut.mapping import HybridMapper
    from ..sim.logicsim import reference_evaluate

    rng = ctx.rng
    for round_no in range(ctx.trials):
        hybrid = _lock_small(ctx.netlist(), rng)
        if hybrid is None:
            return
        foundry = HybridMapper().strip_configs(hybrid)
        propagator = TernaryPropagator(foundry)

        # Partial-concrete abstract inputs; every X gets a concrete
        # completion for the simulator.
        inputs3, state3 = {}, {}
        concrete_in, concrete_state = {}, {}
        for pi in foundry.inputs:
            concrete_in[pi] = rng.randrange(2)
            if rng.random() < 0.5:
                inputs3[pi] = TernaryWord.const(concrete_in[pi], 1)
        for ff in foundry.flip_flops:
            concrete_state[ff] = rng.randrange(2)
            if rng.random() < 0.5:
                state3[ff] = TernaryWord.const(concrete_state[ff], 1)
        rails = propagator.propagate(inputs=inputs3, width=1, state=state3)

        # One random completion of the withheld configurations.
        completed = foundry.copy(foundry.name + "_completed")
        for name in completed.luts:
            node = completed.node(name)
            if node.lut_config is None:
                node.lut_config = rng.randrange(1 << (1 << node.n_inputs))
        sim = reference_evaluate(completed, concrete_in, concrete_state)

        violations = [
            net
            for net, word in rails.items()
            if not (
                (word.can1 if sim[net] & 1 else word.can0) & 1
            )
        ]
        ctx.require(
            "concrete completion lies inside the abstract rails",
            not violations,
            "ternary propagation excluded a reachable concrete value "
            f"on net(s) {violations[:5]}",
            round=round_no,
            violations=violations[:20],
        )

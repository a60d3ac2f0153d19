"""Structural rules (``NL1xx``): is the netlist a well-formed design?

These migrate and extend the historical ``repro.netlist.validate`` checks,
whose deprecated shim has since been removed.
"""

from __future__ import annotations

from typing import Iterator

from ..netlist.csr import csr_view
from ..netlist.gates import max_arity, min_arity
from ..netlist.graph import CombinationalLoopError, topological_order
from .core import Category, Finding, LintContext, Rule, Severity, register


@register
class UndrivenNet(Rule):
    id = "NL101"
    slug = "undriven-net"
    title = "Gate reads a net no node drives"
    severity = Severity.ERROR
    category = Category.STRUCTURAL
    rationale = (
        "Every fan-in must name an existing node; a dangling reference makes "
        "simulation, STA, and SAT translation undefined."
    )
    autofix = "declare the missing net or rewire the pin to an existing one"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        netlist = ctx.netlist
        for node in netlist:
            for src in node.fanin:
                if src not in netlist:
                    yield self.finding(
                        f"node {node.name!r} reads undriven net {src!r}",
                        net=node.name,
                    )


@register
class UndrivenOutput(Rule):
    id = "NL102"
    slug = "undriven-output"
    title = "Primary output has no driver"
    severity = Severity.ERROR
    category = Category.STRUCTURAL
    rationale = "An OUTPUT declaration must refer to a driven net."
    autofix = "drive the output net or drop the OUTPUT declaration"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for po in ctx.netlist.outputs:
            if po not in ctx.netlist:
                yield self.finding(
                    f"primary output {po!r} has no driver", net=po
                )


@register
class BadArity(Rule):
    id = "NL103"
    slug = "bad-arity"
    title = "Gate fan-in outside the type's legal arity"
    severity = Severity.ERROR
    category = Category.STRUCTURAL
    rationale = (
        "Gate evaluation and the technology libraries only define cells "
        "within each type's arity window."
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.netlist:
            lo, hi = min_arity(node.gate_type), max_arity(node.gate_type)
            if not lo <= node.n_inputs <= hi:
                yield self.finding(
                    f"{node.gate_type.value} node {node.name!r} has "
                    f"{node.n_inputs} inputs (allowed {lo}..{hi})",
                    net=node.name,
                )


@register
class CombinationalLoop(Rule):
    id = "NL104"
    slug = "combinational-loop"
    title = "Combinational logic forms a cycle"
    severity = Severity.ERROR
    category = Category.STRUCTURAL
    rationale = (
        "Loops not broken by a flip-flop have no topological order: "
        "levelized simulation and STA both diverge."
    )
    autofix = "break the cycle with a DFF or rewire the feedback arc"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        netlist = ctx.netlist
        # Undriven nets would produce a false loop diagnosis (their readers
        # never become ready in Kahn's algorithm) — NL101 owns that case.
        for node in netlist:
            for src in node.fanin:
                if src not in netlist:
                    return
        try:
            topological_order(netlist)
        except CombinationalLoopError as exc:
            yield self.finding(str(exc))


@register
class FloatingNet(Rule):
    id = "NL105"
    slug = "floating-net"
    title = "Net with no fan-out that is not an output"
    severity = Severity.WARNING
    category = Category.STRUCTURAL
    rationale = (
        "A fanout-free internal net does nothing; it usually indicates an "
        "incomplete edit or logic that should have been swept."
    )
    autofix = "run repro.netlist.simplify.sweep() or declare it an output"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        view = csr_view(ctx.netlist)
        names = view.names
        for i in range(view.n):
            if view.is_input[i] or view.is_po[i]:
                continue
            if not view.fanout_degree(i):
                yield self.finding(
                    f"net {names[i]!r} has no fan-out and is not an output",
                    net=names[i],
                )


@register
class UnusedInput(Rule):
    id = "NL106"
    slug = "unused-input"
    title = "Primary input drives nothing"
    severity = Severity.WARNING
    category = Category.STRUCTURAL
    rationale = (
        "An unread input widens the attack surface model (Eq. 3 counts "
        "accessible nets) without contributing function."
    )
    autofix = "remove the input or connect it"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        view = csr_view(ctx.netlist)
        names = view.names
        for i in range(view.n):
            if not view.is_input[i] or view.is_po[i]:
                continue
            if not view.fanout_degree(i):
                yield self.finding(
                    f"primary input {names[i]!r} drives nothing",
                    net=names[i],
                )


@register
class DuplicatePin(Rule):
    id = "NL107"
    slug = "duplicate-pin"
    title = "Gate reads the same net on multiple pins"
    severity = Severity.WARNING
    category = Category.STRUCTURAL
    rationale = (
        "Duplicate pins are legal but almost always a wiring mistake; for "
        "LUTs they waste configuration rows the security model counts."
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.netlist:
            if len(set(node.fanin)) != len(node.fanin):
                yield self.finding(
                    f"node {node.name!r} reads the same net on multiple pins",
                    net=node.name,
                )


@register
class UnprogrammedLut(Rule):
    id = "NL108"
    slug = "unprogrammed-lut"
    title = "LUT has no configuration"
    severity = Severity.WARNING
    category = Category.STRUCTURAL
    rationale = (
        "Unprogrammed LUTs are expected in a foundry view but must not "
        "survive provisioning; strict mode raises this to an error."
    )
    autofix = "program the LUT from the provisioning bitstream"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        severity = (
            Severity.WARNING
            if ctx.config.allow_unprogrammed_luts
            else Severity.ERROR
        )
        for node in ctx.netlist:
            if node.is_lut and node.lut_config is None:
                yield self.finding(
                    f"LUT {node.name!r} has no configuration",
                    net=node.name,
                    severity=severity,
                )


@register
class OversizedConfig(Rule):
    id = "NL109"
    slug = "oversized-config"
    title = "LUT configuration wider than its truth table"
    severity = Severity.ERROR
    category = Category.STRUCTURAL
    rationale = (
        "A k-input LUT stores exactly 2^k bits; excess bits cannot be "
        "provisioned and signal a mis-built configuration word."
    )
    autofix = "mask the configuration to 2**n_inputs bits"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.netlist:
            if not node.is_lut or node.lut_config is None:
                continue
            rows = 1 << node.n_inputs
            if node.lut_config >= (1 << rows):
                yield self.finding(
                    f"LUT {node.name!r} config 0x{node.lut_config:X} does "
                    f"not fit {node.n_inputs} inputs",
                    net=node.name,
                )


@register
class NoOutputs(Rule):
    id = "NL110"
    slug = "no-outputs"
    title = "Netlist declares no primary outputs"
    severity = Severity.WARNING
    category = Category.STRUCTURAL
    rationale = "A design with no outputs cannot be observed or verified."

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.netlist.outputs:
            yield self.finding("netlist has no primary outputs")


@register
class FfSelfLoop(Rule):
    id = "NL111"
    slug = "ff-self-loop"
    title = "Flip-flop latches only its own output"
    severity = Severity.WARNING
    category = Category.STRUCTURAL
    rationale = (
        "A DFF whose D pin is its own Q net can never change state — the "
        "model's analogue of a dangling clock/reset hookup."
    )
    autofix = "drive the D pin from real logic or remove the register"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.netlist:
            if node.is_sequential and node.fanin and node.fanin[0] == node.name:
                yield self.finding(
                    f"flip-flop {node.name!r} feeds its own D pin; its "
                    "state can never change",
                    net=node.name,
                )


@register
class UnreachableCone(Rule):
    id = "NL112"
    slug = "unreachable-cone"
    title = "Logic cone that reaches no primary output"
    severity = Severity.WARNING
    category = Category.STRUCTURAL
    rationale = (
        "Whole cones of dead logic inflate PPA and — if they contain LUTs — "
        "key bits that defend nothing (NL105 only sees the cone's leaves)."
    )
    autofix = "run repro.netlist.simplify.sweep()"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        netlist = ctx.netlist
        if not netlist.outputs:
            return  # NL110 owns this case
        # Backwards reachability from the outputs, tolerant of undriven
        # references (those are NL101's findings, not crashes here).
        view = csr_view(netlist)
        reachable = set(view.backward_ids(view.output_ids))
        names, gate_types = view.names, view.gate_types
        for i in range(view.n):
            if view.is_input[i] or i in reachable:
                continue
            if view.fanout_degree(i):
                yield self.finding(
                    f"{gate_types[i].value} node {names[i]!r} reaches no "
                    "primary output (dead logic cone)",
                    net=names[i],
                )

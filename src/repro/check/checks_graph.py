"""Graph-kernel differential checks: CSR arrays vs dict walks vs networkx.

The CSR refactor rebuilt every traversal-heavy stage (topological order,
levels, cones, BFS guides, STA, path selection, the lint structural
walks) on int-indexed flat arrays.  These checks confront each CSR
kernel with two independent computations of the same fact:

* the **pre-refactor dict walks**, preserved verbatim in
  :mod:`repro.check.reference_graph` — the bit-identity baseline (same
  floats, same tie-breaks, same rng consumption);
* a **networkx object graph** built straight off the ``Node`` dicts —
  never from the CSR arrays, so a corrupted CSR edge cannot leak into
  the reference (the ``csr-edge-corruption`` fault relies on this).

Circuits come from two sources per round: the ISCAS circuit under check
and a small synthetic circuit generated from the check's own rng, so
both curated and randomized structures are covered.
"""

from __future__ import annotations

import random

from ..circuits.generator import CircuitSpec, generate
from ..netlist.csr import csr_view
from ..netlist.graph import (
    PathGuide,
    combinational_cone,
    find_io_path,
    flip_flop_depths,
    levelize,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)
from ..netlist.netlist import Netlist
from . import reference_graph as ref
from .core import CheckContext, register


def _random_circuit(ctx: CheckContext, round_no: int) -> Netlist:
    """A small synthetic sequential circuit from the check's rng stream."""
    rng = ctx.rng
    spec = CircuitSpec(
        name=f"rnd{round_no}",
        n_inputs=rng.randint(3, 8),
        n_outputs=rng.randint(2, 6),
        n_flip_flops=rng.randint(2, 10),
        n_gates=rng.randint(20, 120),
        seed=rng.getrandbits(32),
    )
    return generate(spec)


def _circuits(ctx: CheckContext, round_no: int):
    yield ctx.circuit, ctx.netlist()
    yield "random", _random_circuit(ctx, round_no)


@register(
    name="graph-structure-parity",
    family="graph",
    description="CSR topological order, levels, fan-in/fan-out sets, "
    "flip-flop depths, and cone membership must match both the "
    "pre-refactor dict walks and an independent networkx graph",
    trial_divisor=4,
)
def graph_structure_parity(ctx: CheckContext) -> None:
    for round_no in range(ctx.trials):
        for label, netlist in _circuits(ctx, round_no):
            view = csr_view(netlist)

            order = topological_order(netlist)
            problems = ref.validate_topological_order(netlist, order)
            ctx.require(
                "CSR topological order is a valid topological order",
                not problems,
                f"invalid order on {label}: {problems[:5]}",
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "topological order (CSR vs dict walk)",
                list(order),
                ref.dict_topological_order(netlist),
                round=round_no,
                circuit=label,
            )

            ctx.compare(
                "logic levels (CSR vs dict walk)",
                dict(levelize(netlist)),
                ref.dict_levelize(netlist),
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "logic levels (CSR vs networkx longest path)",
                dict(levelize(netlist)),
                ref.nx_levels(netlist),
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "flip-flop depths (CSR vs dict relaxation)",
                flip_flop_depths(netlist),
                ref.dict_flip_flop_depths(netlist),
                round=round_no,
                circuit=label,
            )

            nx_fi = ref.nx_fanin_sets(netlist)
            nx_fo = ref.nx_fanout_sets(netlist)
            names = view.names
            csr_fi = {
                names[i]: {
                    names[j] for j in view.fanin_ids(i) if j >= 0
                }
                for i in range(view.n)
            }
            csr_fo = {
                names[i]: {names[j] for j in view.fanout_ids(i)}
                for i in range(view.n)
            }
            ctx.compare(
                "per-node fan-in sets (CSR vs networkx)",
                csr_fi,
                nx_fi,
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "per-node fan-out sets (CSR vs networkx)",
                csr_fo,
                nx_fo,
                round=round_no,
                circuit=label,
            )

            # Cone membership through random roots, against all three
            # implementations.
            node_names = list(netlist.node_names())
            for root in ctx.rng.sample(node_names, min(3, len(node_names))):
                ctx.compare(
                    f"transitive fan-in cone of {root!r} (CSR vs nx)",
                    transitive_fanin(netlist, [root]),
                    ref.nx_ancestors(netlist, root),
                    round=round_no,
                    circuit=label,
                )
                ctx.compare(
                    f"transitive fan-out cone of {root!r} (CSR vs nx)",
                    transitive_fanout(netlist, [root]),
                    ref.nx_descendants(netlist, root),
                    round=round_no,
                    circuit=label,
                )
                ctx.compare(
                    f"combinational cone of {root!r} (CSR vs dict walk)",
                    combinational_cone(netlist, [root]),
                    ref.dict_combinational_cone(netlist, [root]),
                    round=round_no,
                    circuit=label,
                )


@register(
    name="graph-sta-path-parity",
    family="graph",
    description="STA arrival times / critical path and rng-driven I/O "
    "path selection over the CSR arrays must be bit-identical to the "
    "pre-refactor dict-walk implementations",
    trial_divisor=4,
)
def graph_sta_path_parity(ctx: CheckContext) -> None:
    from ..analysis.sta import TimingAnalyzer

    analyzer = TimingAnalyzer()
    for round_no in range(ctx.trials):
        for label, netlist in _circuits(ctx, round_no):
            report = analyzer.analyze(netlist)
            max_delay, path, arrival, endpoint = ref.dict_sta(
                netlist, analyzer
            )
            ctx.compare(
                "STA max delay (CSR vs dict walk, bit-identical)",
                report.max_delay_ns,
                max_delay,
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "STA critical path (CSR vs dict walk)",
                report.critical_path,
                path,
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "STA endpoint (CSR vs dict walk)",
                report.endpoint,
                endpoint,
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "STA per-net arrivals (CSR vs dict walk, bit-identical)",
                report.arrival_ns,
                arrival,
                round=round_no,
                circuit=label,
            )

            # Path guides: the name-keyed distance maps must agree.
            guide = PathGuide(netlist)
            dict_guide = ref.DictPathGuide(netlist)
            ctx.compare(
                "guide distances to startpoints (CSR vs dict BFS)",
                guide.to_startpoint,
                dict_guide.to_startpoint,
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "guide distances to endpoints (CSR vs dict BFS)",
                guide.to_endpoint,
                dict_guide.to_endpoint,
                round=round_no,
                circuit=label,
            )

            # rng-driven path DFS: identical seeds must select identical
            # paths (the CSR walk consumes the rng exactly like the dict
            # walk did).
            gates = netlist.gates
            if not gates:
                continue
            for through in ctx.rng.sample(gates, min(3, len(gates))):
                dfs_seed = ctx.rng.getrandbits(48)
                found = find_io_path(
                    netlist,
                    through=through,
                    rng=random.Random(dfs_seed),
                    guide=guide,
                )
                expected = ref.dict_find_io_path(
                    netlist,
                    through=through,
                    rng=random.Random(dfs_seed),
                    guide=dict_guide,
                )
                ctx.compare(
                    f"I/O path through {through!r} "
                    "(CSR vs dict DFS, same rng)",
                    found,
                    expected,
                    round=round_no,
                    circuit=label,
                    dfs_seed=dfs_seed,
                )


@register(
    name="graph-warm-view-freshness",
    family="graph",
    description="after LUT insertion on a netlist whose views are "
    "already warm, STA and the CSR kernels must agree with the same "
    "queries on a fresh copy() of the locked netlist",
    trial_divisor=4,
)
def graph_warm_view_freshness(ctx: CheckContext) -> None:
    from ..analysis.sta import TimingAnalyzer

    analyzer = TimingAnalyzer()

    def facts(netlist: Netlist) -> dict:
        view = csr_view(netlist)
        report = analyzer.analyze(netlist)
        return {
            "STA max delay": report.max_delay_ns,
            "STA critical path": report.critical_path,
            "STA per-net arrivals": report.arrival_ns,
            "CSR LUT column": sorted(
                view.names[i] for i in range(view.n) if view.is_lut[i]
            ),
            "topological order": list(topological_order(netlist)),
            "logic levels": dict(levelize(netlist)),
        }

    for round_no in range(ctx.trials):
        for label, netlist in _circuits(ctx, round_no):
            facts(netlist)  # warm every view before locking
            candidates = [
                g
                for g in netlist.gates
                if 2 <= netlist.node(g).n_inputs <= 8
                and not netlist.node(g).is_lut
            ]
            for name in ctx.rng.sample(candidates, min(5, len(candidates))):
                netlist.replace_with_lut(name)
            warm, fresh = facts(netlist), facts(netlist.copy())
            for fact, value in warm.items():
                ctx.compare(
                    f"{fact} after LUT insertion (warm view vs copy())",
                    value,
                    fresh[fact],
                    round=round_no,
                    circuit=label,
                )


@register(
    name="graph-lint-dataflow-parity",
    family="graph",
    description="the CSR-backed lint structural walks (NL105/NL106/NL112) "
    "and dataflow observation points must flag exactly the nets the "
    "pre-refactor dict walks flagged",
    trial_divisor=4,
)
def graph_lint_dataflow_parity(ctx: CheckContext) -> None:
    from ..dataflow.cones import observation_points_of
    from ..lint import Category, lint_netlist

    for round_no in range(ctx.trials):
        for label, netlist in _circuits(ctx, round_no):
            # Degrade the structure a little so the rules have something
            # to flag: rewire every reader of a couple of victim gates
            # onto a primary input, leaving the victims floating and
            # their private cones unreachable.
            inputs = netlist.inputs
            candidates = [
                g for g in netlist.gates if g not in set(netlist.outputs)
            ]
            if inputs and candidates:
                for victim in ctx.rng.sample(
                    candidates, min(2, len(candidates))
                ):
                    for reader in list(netlist.fanout(victim)):
                        node = netlist.node(reader)
                        for pin, src in enumerate(node.fanin):
                            if src == victim:
                                netlist.rewire_fanin(
                                    reader, pin, ctx.rng.choice(inputs)
                                )

            report = lint_netlist(
                netlist, categories={Category.STRUCTURAL}
            )
            flagged = {
                rule_id: sorted(
                    f.net for f in report.findings if f.rule_id == rule_id
                )
                for rule_id in ("NL105", "NL106", "NL112")
            }
            ctx.compare(
                "NL105 floating nets (CSR rule vs dict walk)",
                flagged["NL105"],
                sorted(ref.dict_floating_nets(netlist)),
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "NL106 unused inputs (CSR rule vs dict walk)",
                flagged["NL106"],
                sorted(ref.dict_unused_inputs(netlist)),
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "NL112 unreachable cones (CSR rule vs dict walk)",
                flagged["NL112"],
                sorted(ref.dict_unreachable_cones(netlist)),
                round=round_no,
                circuit=label,
            )

            gates = netlist.gates
            for lut in ctx.rng.sample(gates, min(3, len(gates))):
                ctx.compare(
                    f"observation points of {lut!r} (CSR vs dict walk)",
                    observation_points_of(netlist, lut),
                    ref.dict_observation_points(netlist, lut),
                    round=round_no,
                    circuit=label,
                )

"""Graph-kernel checks: CSR arrays vs networkx and plain per-node loops.

The CSR refactor rebuilt every traversal-heavy stage (topological order,
levels, cones, BFS guides, STA, path selection, the lint structural
walks) on int-indexed flat arrays.  These checks confront each CSR
kernel with a computation that shares no code with it:

* a **networkx object graph** built straight off the ``Node`` dicts —
  never from the CSR arrays, so a corrupted CSR edge cannot leak into
  the reference (the ``csr-edge-corruption`` fault relies on this) —
  for orders, levels, fan-in/fan-out sets, cones, guide distances and
  the lint/dataflow reachability queries;
* a plain per-node STA loop over networkx's topological order, which
  must reproduce the CSR arrival floats bit for bit;
* capped relaxations for flip-flop depths and the paper's D_i, which no
  library computes.

The wiring kernels are shared by every view of equal wiring
(:class:`repro.netlist.csr.Wiring`), so one check rewires a copy of a
netlist whose kernels are warm and confronts the copy's kernels with the
oracles: a share keyed on less than the full wiring (the
``wiring-share-collision`` fault) hands the copy its original's values.

The rng-driven path DFS is the one exception: the golden Table I rows
depend on its exact draw order, so the name-based DFS below is the spec
the CSR walk must replay, and every path it returns is also checked for
the properties Section IV-A asks of an I/O path.

Circuits come from two sources per round: the ISCAS circuit under check
and a small synthetic circuit generated from the check's own rng, so
both curated and randomized structures are covered.

With the debug view in :mod:`repro.netlist.graph`, this module is the
only place allowed to import :mod:`networkx` (see the ``TID251``
configuration in ``pyproject.toml``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..circuits.generator import CircuitSpec, generate
from ..netlist.csr import csr_view
from ..netlist.graph import (
    MAX_TRACKED_FF_DEPTH,
    combinational_cone,
    find_io_path,
    flip_flop_depths,
    levelize,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)
from ..netlist.netlist import Netlist
from .core import CheckContext, register

#: The flip-flop bounds every sampled I/O path is searched with.
_MIN_FFS, _MAX_FFS = 2, 10

#: I/O paths replayed per circuit and round.  A walk that reuses state
#: left by an earlier walk over the same view (say, a child list it
#: reordered) only diverges from the name-based DFS on a later walk, so
#: one view needs many walks: 3 showed one such defect once at the
#: fault-injection defaults, 16 shows it 14-26 times over seeds 0-5.
_DFS_REPLAYS = 16

Guide = Tuple[Dict[str, int], Dict[str, int]]


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


# ----------------------------------------------------------------------
# oracles over the Node dicts
# ----------------------------------------------------------------------
def nx_graph(netlist: Netlist, cut_flip_flops: bool = False) -> nx.DiGraph:
    """A driver → reader object graph built straight off the ``Node``
    dicts; ``cut_flip_flops`` drops the edges into DFF D-pins."""
    graph = nx.DiGraph(name=netlist.name)
    for node in netlist:
        graph.add_node(node.name)
    for node in netlist:
        if cut_flip_flops and node.is_sequential:
            continue
        for src in node.fanin:
            graph.add_edge(src, node.name)
    return graph


def _feeds_ff(netlist: Netlist, full: nx.DiGraph, name: str) -> bool:
    return any(netlist.node(r).is_sequential for r in full.successors(name))


def validate_topological_order(
    netlist: Netlist, order: Sequence[str]
) -> List[str]:
    """Problems with *order* as a topological order of the cut view.

    Returns human-readable violation strings (empty = valid): wrong
    cardinality, duplicates, or an edge whose reader precedes its driver.
    """
    problems: List[str] = []
    if len(order) != len(netlist):
        problems.append(
            f"order has {len(order)} entries for {len(netlist)} nodes"
        )
    if len(set(order)) != len(order):
        problems.append("order contains duplicates")
    position = {name: i for i, name in enumerate(order)}
    for node in netlist:
        if node.is_input or node.is_sequential:
            continue
        for src in node.fanin:
            if position.get(src, -1) >= position.get(node.name, -1):
                problems.append(
                    f"edge {src!r} -> {node.name!r} violates the order"
                )
    return problems


def nx_levels(netlist: Netlist, cut: nx.DiGraph) -> Dict[str, int]:
    """Logic levels: longest path from a startpoint over the cut graph."""
    levels: Dict[str, int] = {}
    for name in nx.topological_sort(cut):
        node = netlist.node(name)
        if node.is_input or node.is_sequential:
            levels[name] = 0
        else:
            preds = cut.predecessors(name)
            levels[name] = 1 + max((levels[p] for p in preds), default=0)
    return levels


def capped_ff_depths(netlist: Netlist) -> Dict[str, int]:
    """Max DFFs on a path from a PI to each net, by plain relaxation,
    saturating at the same cap as the CSR kernel."""
    cap = max(min(len(netlist.flip_flops), MAX_TRACKED_FF_DEPTH), 1)
    depth = {name: 0 for name in netlist.node_names()}
    changed, iterations = True, 0
    while changed and iterations <= cap + 1:
        changed, iterations = False, iterations + 1
        for node in netlist:
            if node.is_input:
                continue
            bump = 1 if node.is_sequential else 0
            new = max((depth.get(s, 0) + bump for s in node.fanin), default=0)
            new = min(new, cap)
            if new > depth[node.name]:
                depth[node.name] = new
                changed = True
    return depth


def capped_output_depths(netlist: Netlist) -> Dict[str, int]:
    """The paper's D_i by plain reverse relaxation: sweeps in node order,
    in place, at most ``cap + 1`` of them, with the CSR kernel's cap.
    Dangling fan-in nets get entries in the order they are first raised."""
    cap = max(min(len(netlist.flip_flops), MAX_TRACKED_FF_DEPTH), 1)
    depth = {name: 0 for name in netlist.node_names()}
    changed, iterations = True, 0
    while changed and iterations <= cap + 1:
        changed, iterations = False, iterations + 1
        for node in netlist:
            through = depth[node.name] + (1 if node.is_sequential else 0)
            for src in node.fanin:
                if through > depth.get(src, 0):
                    depth[src] = through
                    changed = True
    return depth


def nx_guide(netlist: Netlist, full: nx.DiGraph, cut: nx.DiGraph) -> Guide:
    """``(to_startpoint, to_endpoint)`` hop counts by multi-source
    Dijkstra over the cut graph and its reverse."""
    starts = [n.name for n in netlist if n.is_input or n.is_sequential]
    outputs = set(netlist.outputs)
    ends = [
        n.name
        for n in netlist
        if n.name in outputs or _feeds_ff(netlist, full, n.name)
    ]
    to_start = nx.multi_source_dijkstra_path_length(cut, starts)
    to_end = nx.multi_source_dijkstra_path_length(cut.reverse(), ends)
    return (
        {n: d for n, d in to_start.items() if n in netlist},
        {n: d for n, d in to_end.items() if n in netlist},
    )


def csr_guide(netlist: Netlist) -> Guide:
    """``(to_startpoint, to_endpoint)`` of the CSR view's BFS guide
    kernels, keyed by net name; unreachable nets are left out."""
    view = csr_view(netlist)
    names = view.names
    return (
        {names[i]: d for i, d in enumerate(view.startpoint_dist()) if d >= 0},
        {names[i]: d for i, d in enumerate(view.endpoint_dist()) if d >= 0},
    )


def nx_sta(
    netlist: Netlist, analyzer, cut: nx.DiGraph
) -> Tuple[float, Tuple[str, ...], Dict[str, float], str]:
    """``(max_delay_ns, critical_path, arrival_ns, endpoint)`` by one pass
    over networkx's topological order.  A gate's worst fan-in is the
    first pin with the strictly greatest arrival."""
    arrival: Dict[str, float] = {}
    worst: Dict[str, Optional[str]] = {}
    for name in nx.topological_sort(cut):
        node = netlist.node(name)
        best_src, best_arr = None, 0.0
        if node.is_combinational:
            for src in node.fanin:
                if best_src is None or arrival[src] > best_arr:
                    best_src, best_arr = src, arrival[src]
        arrival[name] = best_arr + analyzer.gate_delay(netlist, name)
        worst[name] = best_src

    endpoint, max_delay = "", 0.0
    for po in netlist.outputs:
        if arrival[po] > max_delay:
            endpoint, max_delay = po, arrival[po]
    for ff in netlist.flip_flops:
        d_pin = netlist.node(ff).fanin[0]
        d_arr = arrival[d_pin] + analyzer.tech.dff.setup_ns
        if d_arr > max_delay:
            endpoint, max_delay = d_pin, d_arr

    path: List[str] = []
    cursor: Optional[str] = endpoint or None
    while cursor is not None:
        path.append(cursor)
        cursor = worst[cursor]
    return max_delay, tuple(reversed(path)), arrival, endpoint


# ----------------------------------------------------------------------
# the path DFS spec
# ----------------------------------------------------------------------
# Not an oracle: the golden Table I rows pin this exact rng draw order, and
# no independent computation can reproduce an rng trajectory.
def dict_find_io_path(
    netlist: Netlist, through: str, rng: random.Random, guide: Guide
) -> Optional[List[str]]:
    """The name-based I/O-path DFS (two boundary searches through
    *through*) that :func:`repro.netlist.graph.find_io_path` replays."""
    reachable_ffs = min(_MAX_FFS, len(netlist.flip_flops))
    backward = _dict_dfs_to_boundary(
        netlist, through, False, rng, set(), guide[0],
        want_ffs=max(reachable_ffs // 2, _MIN_FFS),
        max_ffs=_MAX_FFS,
    )
    if backward is None:
        return None
    prefix, prefix_ffs = backward
    forward = _dict_dfs_to_boundary(
        netlist, through, True, rng, set(prefix[:-1]), guide[1],
        want_ffs=max(reachable_ffs - prefix_ffs, _MIN_FFS - prefix_ffs),
        max_ffs=max(_MAX_FFS - prefix_ffs, 0),
    )
    if forward is None or prefix_ffs + forward[1] < _MIN_FFS:
        return None
    return prefix[:-1] + forward[0]


def _dict_dfs_to_boundary(
    netlist: Netlist,
    start: str,
    forwards: bool,
    rng: random.Random,
    avoid: Set[str],
    distances: Dict[str, int],
    want_ffs: int,
    max_ffs: int,
    max_steps: int = 50_000,
) -> Optional[Tuple[List[str], int]]:
    best: Optional[Tuple[List[str], int]] = None
    steps = 0

    def neighbours(name: str, budget_left: bool) -> List[str]:
        if forwards:
            nxt = netlist.fanout(name)
        else:
            nxt = list(netlist.node(name).fanin)
        rng.shuffle(nxt)

        def rank(n: str) -> Tuple[int, int]:
            seq = n in netlist and netlist.node(n).is_sequential
            return (1 if seq and budget_left else 0, -distances.get(n, 1 << 20))

        nxt.sort(key=rank)
        return nxt

    def at_boundary(name: str) -> bool:
        if forwards:
            return name in netlist.outputs
        return netlist.node(name).is_input

    stack: List[Tuple[str, List[str], Set[str], int]] = [
        (start, [start], {start}, 0)
    ]
    while stack:
        name, path, on_path, n_ffs = stack.pop()
        steps += 1
        if steps > max_steps:
            break
        if at_boundary(name):
            if best is None or n_ffs > best[1]:
                best = (path, n_ffs)
            if n_ffs >= want_ffs:
                break
            continue
        budget_left = n_ffs < max_ffs
        for nxt in neighbours(name, budget_left):
            # A net nothing drives is never entered.
            if nxt in on_path or nxt in avoid or nxt not in netlist:
                continue
            bump = 1 if netlist.node(nxt).is_sequential else 0
            if bump and not budget_left:
                continue
            stack.append((nxt, path + [nxt], on_path | {nxt}, n_ffs + bump))
    if best is None:
        return None
    path, n_ffs = best
    return (path if forwards else path[::-1]), n_ffs


def io_path_problems(
    netlist: Netlist, full: nx.DiGraph, path: List[str], through: str
) -> List[str]:
    """What *path* violates of Section IV-A's I/O path: real driver →
    reader edges, PI to PO, through *through*, simple, and a flip-flop
    count inside the searched bounds."""
    problems = [
        f"{a!r} -> {b!r} is not an edge"
        for a, b in zip(path, path[1:])
        if not full.has_edge(a, b)
    ]
    if not netlist.node(path[0]).is_input:
        problems.append(f"starts at {path[0]!r}, not a primary input")
    if path[-1] not in netlist.outputs:
        problems.append(f"ends at {path[-1]!r}, not a primary output")
    if through not in path:
        problems.append(f"misses {through!r}")
    if len(set(path)) != len(path):
        problems.append("repeats a node")
    n_ffs = sum(netlist.node(n).is_sequential for n in path)
    if not _MIN_FFS <= n_ffs <= _MAX_FFS:
        problems.append(f"crosses {n_ffs} flip-flops")
    return problems


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
@register(
    name="graph-structure-parity",
    family="graph",
    description="CSR topological order, levels, fan-in/fan-out sets, "
    "flip-flop depths, and cone membership must match an independent "
    "networkx graph (and a capped relaxation for the depths)",
    trial_divisor=4,
)
def graph_structure_parity(ctx: CheckContext) -> None:
    for round_no in range(ctx.trials):
        for label, netlist in _circuits(ctx, round_no):
            view = csr_view(netlist)
            full = nx_graph(netlist)
            cut = nx_graph(netlist, cut_flip_flops=True)

            problems = validate_topological_order(
                netlist, topological_order(netlist)
            )
            ctx.require(
                "CSR topological order is a valid topological order",
                not problems,
                f"invalid order on {label}: {problems[:5]}",
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "logic levels (CSR vs networkx longest path)",
                dict(levelize(netlist)),
                nx_levels(netlist, cut),
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "flip-flop depths (CSR vs capped relaxation)",
                flip_flop_depths(netlist),
                capped_ff_depths(netlist),
                round=round_no,
                circuit=label,
            )

            names = view.names
            ctx.compare(
                "per-node fan-in sets (CSR vs networkx)",
                {
                    names[i]: {names[j] for j in view.fanin_ids(i) if j >= 0}
                    for i in range(view.n)
                },
                {n.name: set(full.predecessors(n.name)) for n in netlist},
                round=round_no,
                circuit=label,
            )
            ctx.compare(
                "per-node fan-out sets (CSR vs networkx)",
                {
                    names[i]: {names[j] for j in view.fanout_ids(i)}
                    for i in range(view.n)
                },
                {n.name: set(full.successors(n.name)) for n in netlist},
                round=round_no,
                circuit=label,
            )

            # Cone membership through random roots.
            node_names = list(netlist.node_names())
            for root in ctx.rng.sample(node_names, min(3, len(node_names))):
                ctx.compare(
                    f"transitive fan-in cone of {root!r} (CSR vs nx)",
                    transitive_fanin(netlist, [root]),
                    nx.ancestors(full, root) | {root},
                    round=round_no,
                    circuit=label,
                )
                ctx.compare(
                    f"transitive fan-out cone of {root!r} (CSR vs nx)",
                    transitive_fanout(netlist, [root]),
                    nx.descendants(full, root) | {root},
                    round=round_no,
                    circuit=label,
                )
                ctx.compare(
                    f"combinational cone of {root!r} (CSR vs nx, FFs cut)",
                    combinational_cone(netlist, [root]),
                    nx.ancestors(cut, root) | {root},
                    round=round_no,
                    circuit=label,
                )


@register(
    name="graph-sta-path-parity",
    family="graph",
    description="STA arrival times / critical path over the CSR arrays "
    "must be bit-identical to a per-node loop over networkx's order, "
    "guide distances must match networkx Dijkstra, and rng-driven I/O "
    "paths must replay the name-based DFS and be real PI-to-PO paths",
    trial_divisor=4,
)
def graph_sta_path_parity(ctx: CheckContext) -> None:
    from ..analysis.sta import TimingAnalyzer

    analyzer = TimingAnalyzer()
    for round_no in range(ctx.trials):
        for label, netlist in _circuits(ctx, round_no):
            full = nx_graph(netlist)
            cut = nx_graph(netlist, cut_flip_flops=True)
            report = analyzer.analyze(netlist)
            max_delay, path, arrival, endpoint = nx_sta(netlist, analyzer, cut)
            for fact, left, right in (
                ("max delay", report.max_delay_ns, max_delay),
                ("critical path", report.critical_path, path),
                ("endpoint", report.endpoint, endpoint),
                ("per-net arrivals", report.arrival_ns, arrival),
            ):
                ctx.compare(
                    f"STA {fact} (CSR vs per-node loop, bit-identical)",
                    left,
                    right,
                    round=round_no,
                    circuit=label,
                )

            guide = csr_guide(netlist)
            oracle_guide = nx_guide(netlist, full, cut)
            for side, left, right in (
                ("startpoints", guide[0], oracle_guide[0]),
                ("endpoints", guide[1], oracle_guide[1]),
            ):
                ctx.compare(
                    f"guide distances to {side} (CSR vs nx Dijkstra)",
                    left,
                    right,
                    round=round_no,
                    circuit=label,
                )

            # rng-driven path DFS: identical seeds must select identical
            # paths, and every path must be a real I/O path.
            gates = netlist.gates
            for through in ctx.rng.sample(gates, min(_DFS_REPLAYS, len(gates))):
                dfs_seed = ctx.rng.getrandbits(48)
                found = find_io_path(
                    netlist,
                    through=through,
                    min_flip_flops=_MIN_FFS,
                    max_flip_flops=_MAX_FFS,
                    rng=random.Random(dfs_seed),
                )
                expected = dict_find_io_path(
                    netlist, through, random.Random(dfs_seed), oracle_guide
                )
                ctx.compare(
                    f"I/O path through {through!r} "
                    "(CSR vs name-based DFS, same rng)",
                    found,
                    expected,
                    round=round_no,
                    circuit=label,
                    dfs_seed=dfs_seed,
                )
                if found is not None:
                    problems = io_path_problems(netlist, full, found, through)
                    ctx.require(
                        "I/O path is a simple PI-to-PO path within the "
                        "flip-flop bounds",
                        not problems,
                        f"path through {through!r}: {problems[:5]}",
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
    name="graph-rewired-copy-kernels",
    family="graph",
    description="a copy rewired away from a netlist whose wiring kernels "
    "are warm must not inherit them: its levels, flip-flop depths, D_i "
    "and guide distances must match networkx and the capped relaxations",
    trial_divisor=4,
)
def graph_rewired_copy_kernels(ctx: CheckContext) -> None:
    from ..locking.metrics import depth_to_output

    for round_no in range(ctx.trials):
        for label, netlist in _circuits(ctx, round_no):
            # Warm every wiring kernel of the original.
            csr_guide(netlist)
            levels = csr_view(netlist).levels()
            flip_flop_depths(netlist)
            depth_to_output(netlist)

            # Rewire a deepest gate onto startpoints, pin count unchanged:
            # no loop can form, and its logic level drops to 1.
            view = csr_view(netlist)
            deepest = max(levels)
            gate = ctx.rng.choice(
                [view.names[i] for i in range(view.n) if levels[i] == deepest]
            )
            node = netlist.node(gate)
            starts = [n.name for n in netlist if n.is_input or n.is_sequential]
            fanin = [ctx.rng.choice(starts) for _ in node.fanin]
            rewired = netlist.copy()
            rewired.set_gate_type(gate, node.gate_type, fanin=fanin)

            full = nx_graph(rewired)
            cut = nx_graph(rewired, cut_flip_flops=True)
            guide = csr_guide(rewired)
            to_start, to_end = nx_guide(rewired, full, cut)
            oracles = {
                "logic levels": nx_levels(rewired, cut),
                "flip-flop depths": capped_ff_depths(rewired),
                "D_i": capped_output_depths(rewired),
                "guide distances to startpoints": to_start,
                "guide distances to endpoints": to_end,
            }
            kernels = {
                "logic levels": dict(levelize(rewired)),
                "flip-flop depths": flip_flop_depths(rewired),
                "D_i": dict(depth_to_output(rewired)),
                "guide distances to startpoints": guide[0],
                "guide distances to endpoints": guide[1],
            }
            for fact, value in kernels.items():
                ctx.compare(
                    f"{fact} of a rewired copy (CSR vs oracle)",
                    value,
                    oracles[fact],
                    round=round_no,
                    circuit=label,
                    gate=gate,
                )


@register(
    name="graph-lint-dataflow-parity",
    family="graph",
    description="the CSR-backed lint structural walks (NL105/NL106/NL112) "
    "and dataflow observation points must flag exactly the nets that "
    "networkx degree, ancestor and descendant queries flag",
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

            full = nx_graph(netlist)
            cut = nx_graph(netlist, cut_flip_flops=True)
            outputs = set(netlist.outputs)
            reaches_po = outputs.union(*(nx.ancestors(full, po) for po in outputs))
            unread = [
                n for n in netlist
                if n.name not in outputs and full.out_degree(n.name) == 0
            ]
            expected = {
                "NL105": [n.name for n in unread if not n.is_input],
                "NL106": [n.name for n in unread if n.is_input],
                "NL112": [
                    n.name
                    for n in netlist
                    if outputs
                    and not n.is_input
                    and n.name not in reaches_po
                    and full.out_degree(n.name) > 0
                ],
            }
            report = lint_netlist(
                netlist, categories={Category.STRUCTURAL}
            )
            for rule_id, nets in expected.items():
                ctx.compare(
                    f"{rule_id} flagged nets (CSR rule vs networkx)",
                    sorted(
                        f.net for f in report.findings if f.rule_id == rule_id
                    ),
                    sorted(nets),
                    round=round_no,
                    circuit=label,
                )

            gates = netlist.gates
            for lut in ctx.rng.sample(gates, min(3, len(gates))):
                reach = nx.descendants(cut, lut) | {lut}
                ctx.compare(
                    f"observation points of {lut!r} (CSR vs networkx)",
                    observation_points_of(netlist, lut),
                    [
                        name
                        for name in netlist.node_names()
                        if name in reach
                        and (name in outputs or _feeds_ff(netlist, full, name))
                    ],
                    round=round_no,
                    circuit=label,
                )

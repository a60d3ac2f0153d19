"""Structure-cache behaviour: memoisation, and invalidation on mutation.

The cache (``repro.netlist.cache``) keys every derived view on the netlist's
``structure_revision``; any mutator — including the in-place editing passes
in ``transform``/``techmap``/``simplify``/``scan`` — must bump the revision
so stale topological orders or levelizations are never served.
"""

from __future__ import annotations

import random
import weakref
from typing import Tuple

import pytest

from repro.analysis.area import AreaAnalyzer
from repro.analysis.power import PowerAnalyzer, estimate_activities
from repro.analysis.sta import TimingAnalyzer
from repro.circuits.generator import CircuitSpec, generate
from repro.dataflow.cones import extract_key_cone
from repro.locking.parametric import ParametricSelection
from repro.netlist import GateType, Netlist
from repro.netlist.cache import cached_keys, memoized
from repro.locking.metrics import depth_to_output
from repro.netlist import csr
from repro.netlist.csr import ORDER, WIDE, csr_view
from repro.check.checks_graph import csr_guide
from repro.netlist.graph import (
    combinational_order,
    flip_flop_depths,
    levelize,
    topological_order,
)
from repro.netlist.scan import disable_scan, insert_scan_chain, lock_scan_enable
from repro.netlist.simplify import propagate_constants
from repro.netlist.simplify import sweep as simplify_sweep
from repro.netlist.techmap import decompose_to_max_fanin, map_to_nand
from repro.sim.logicsim import CombinationalSimulator
from repro.netlist.transform import (
    absorb_fanin_gate,
    replace_gates_with_luts,
    widen_lut_with_decoys,
)


class TestMemoization:
    def test_repeat_calls_share_object(self, s27):
        assert topological_order(s27) is topological_order(s27)
        assert combinational_order(s27) is combinational_order(s27)
        assert levelize(s27) is levelize(s27)
        assert csr_view(s27) is csr_view(s27)

    def test_cached_keys_and_invalidate(self, s27):
        topological_order(s27)
        levelize(s27)
        assert {"topo_order", "levels"} <= set(cached_keys(s27))
        s27.add_gate("probe", GateType.NOT, [s27.inputs[0]])
        assert cached_keys(s27) == []

    def test_memoized_recomputes_only_on_revision_change(self, s27):
        calls = []

        def compute(netlist):
            calls.append(netlist.structure_revision)
            return object()

        first = memoized(s27, "probe", compute)
        assert memoized(s27, "probe", compute) is first
        assert len(calls) == 1
        s27.touch_structure()
        second = memoized(s27, "probe", compute)
        assert second is not first
        assert len(calls) == 2


class TestRevisionCounters:
    def test_add_gate_bumps_structure(self, tiny_comb):
        before = tiny_comb.structure_revision
        tiny_comb.add_gate("extra", GateType.NOT, ["a"])
        assert tiny_comb.structure_revision > before

    def test_rewire_bumps_structure(self, tiny_comb):
        before = tiny_comb.structure_revision
        tiny_comb.rewire_fanin("y1", 1, "b")
        assert tiny_comb.structure_revision > before

    def test_remove_node_bumps_structure(self, tiny_comb):
        tiny_comb.add_gate("dead", GateType.NOT, ["a"])
        before = tiny_comb.structure_revision
        tiny_comb.remove_node("dead")
        assert tiny_comb.structure_revision > before

    def test_replace_with_lut_bumps_structure(self, s27):
        # A gate-type rewrite is structural: the CSR view snapshots types.
        structure = s27.structure_revision
        gate = next(
            g
            for g in s27.gates
            if s27.node(g).is_combinational and not s27.node(g).is_lut
        )
        s27.replace_with_lut(gate, program=True)
        assert s27.structure_revision > structure

    def test_lut_config_write_bumps_nothing(self, s27):
        gate = next(
            g
            for g in s27.gates
            if s27.node(g).is_combinational and not s27.node(g).is_lut
        )
        s27.replace_with_lut(gate, program=False)
        structure = s27.structure_revision
        s27.node(gate).lut_config = 0b1010
        assert s27.structure_revision == structure


class TestInvalidationViaTransforms:
    """Satellite check: mutate through the editing passes, then assert the
    cached topological order / levelization are freshly recomputed."""

    def _lock_some(self, netlist, count=3):
        gates = [
            g
            for g in netlist.gates
            if netlist.node(g).is_combinational
            and not netlist.node(g).is_lut
            and netlist.node(g).gate_type
            not in (GateType.CONST0, GateType.CONST1)
        ]
        return replace_gates_with_luts(netlist, gates[:count], program=True)

    def test_widen_lut_invalidates(self, s27):
        rng = random.Random(0)
        locked = self._lock_some(s27)
        order = topological_order(s27)
        levels = levelize(s27)
        decoys = widen_lut_with_decoys(s27, locked[0], 2, rng)
        assert decoys
        new_order = topological_order(s27)
        assert new_order is not order
        assert set(new_order) == set(order)  # decoys reuse existing nets
        new_levels = levelize(s27)
        assert new_levels is not levels
        # The widened LUT's level may have grown; it must still be consistent
        # with its (longer) fan-in list.
        lut_node = s27.node(locked[0])
        assert new_levels[locked[0]] == 1 + max(
            new_levels[src] for src in lut_node.fanin
        )

    def test_absorb_fanin_invalidates(self):
        n = Netlist("absorb")
        for pi in "abc":
            n.add_input(pi)
        n.add_gate("g", GateType.AND, ["a", "b"])
        n.add_gate("y", GateType.OR, ["g", "c"])
        n.add_output("y")
        n.replace_with_lut("y", program=True)
        order = topological_order(n)
        levels = levelize(n)
        assert absorb_fanin_gate(n, "y", 0) == "g"
        new_order = topological_order(n)
        assert new_order is not order
        assert "g" not in new_order
        new_levels = levelize(n)
        assert new_levels is not levels
        assert new_levels["y"] == 1  # the LUT now reads a, b, c directly

    def test_decompose_invalidates(self):
        n = Netlist("wide")
        for pi in "abcd":
            n.add_input(pi)
        n.add_gate("y", GateType.NAND, ["a", "b", "c", "d"])
        n.add_output("y")
        order = topological_order(n)
        created = decompose_to_max_fanin(n, max_fanin=2)
        assert created > 0
        new_order = topological_order(n)
        assert new_order is not order
        assert len(new_order) == len(order) + created

    def test_scan_disable_invalidates(self, s27):
        insert_scan_chain(s27)
        order = topological_order(s27)
        disable_scan(s27)
        assert topological_order(s27) is not order

    def test_constant_propagation_invalidates(self):
        n = Netlist("const")
        n.add_input("a")
        n.add_gate("zero", GateType.CONST0, [])
        n.add_gate("y", GateType.AND, ["a", "zero"])
        n.add_output("y")
        order = topological_order(n)
        assert propagate_constants(n) > 0
        new_order = topological_order(n)
        assert new_order is not order
        assert n.node("y").gate_type is GateType.CONST0


# ----------------------------------------------------------------------
# fresh-rebuild property: warm views never outlive a mutation
# ----------------------------------------------------------------------
def _fresh_base() -> Netlist:
    """A small sequential circuit with programmed LUTs, a scan chain, a
    dead gate and a constant-fed output, so every mutator has a target."""
    netlist = generate(
        CircuitSpec(
            name="fresh",
            n_inputs=6,
            n_outputs=4,
            n_flip_flops=4,
            n_gates=60,
            seed=7,
        )
    )
    # LUTs with a single-fan-out driver, so absorb_fanin_gate has a pin.
    absorbable = [
        g
        for g in netlist.gates
        if netlist.node(g).n_inputs >= 2
        and any(
            netlist.node(src).is_combinational and netlist.fanout(src) == [g]
            for src in netlist.node(g).fanin
        )
    ]
    replace_gates_with_luts(netlist, absorbable[:3], program=True)
    insert_scan_chain(netlist)
    pis = [pi for pi in netlist.inputs if not pi.startswith("scan")]
    netlist.add_gate("dead", GateType.AND, pis[:2])
    netlist.add_gate("k0", GateType.CONST0, [])
    netlist.add_gate("kand", GateType.AND, [pis[0], "k0"])
    netlist.add_output("kand")
    return netlist


def _plain_gates(netlist: Netlist):
    return [
        g
        for g in netlist.gates
        if 2 <= netlist.node(g).n_inputs <= 4 and not netlist.node(g).is_lut
    ]


def _absorb(netlist: Netlist) -> None:
    for lut in sorted(netlist.luts):
        for pin, src in enumerate(netlist.node(lut).fanin):
            node = netlist.node(src)
            if (
                node.is_combinational
                and not node.is_lut
                and netlist.fanout(src) == [lut]
                and src not in netlist.outputs
            ):
                absorb_fanin_gate(netlist, lut, pin)
                return
    raise AssertionError("no absorbable LUT pin")


def _rewire(netlist: Netlist) -> None:
    pi = netlist.inputs[0]
    gate = next(g for g in _plain_gates(netlist) if pi not in netlist.fanin(g))
    netlist.rewire_fanin(gate, 0, pi)


def _techmap(netlist: Netlist) -> None:
    assert decompose_to_max_fanin(netlist, max_fanin=2) > 0
    assert map_to_nand(netlist) > 0


def _flip_lut_row(netlist: Netlist) -> None:
    node = netlist.node(sorted(netlist.luts)[0])
    node.lut_config ^= 1


MUTATORS = {
    "add_gate": lambda n: n.add_gate("extra", GateType.NAND, n.inputs[:2]),
    "add_output": lambda n: n.add_output(_plain_gates(n)[0]),
    "remove_node": lambda n: n.remove_node("dead"),
    "rewire_fanin": _rewire,
    "replace_with_lut": lambda n: n.replace_with_lut(_plain_gates(n)[-1]),
    "simplify.sweep": lambda n: simplify_sweep(n),
    "techmap": _techmap,
    "scan.disable": lambda n: disable_scan(n),
    "scan.lock_enable": lambda n: lock_scan_enable(n),
    "transform.replace_gates_with_luts": lambda n: replace_gates_with_luts(
        n, _plain_gates(n)[-4:]
    ),
    "transform.widen_lut_with_decoys": lambda n: widen_lut_with_decoys(
        n, sorted(n.luts)[0], 2, random.Random(3)
    ),
    "transform.absorb_fanin_gate": _absorb,
    "lut_config write": _flip_lut_row,
}


def _all_expansions(view, forwards: bool) -> list:
    """Every entry of the view's DFS expansion table, building the
    missing ones."""
    table = view.dfs_expansions(forwards)
    return [entry or table.build(i) for i, entry in enumerate(table.entries)]


def _entry_names(names, entry) -> tuple:
    """An expansion-table entry with its node ids read as names."""

    def named(ids):
        return [names[j] if j >= 0 else None for j in ids]

    kind = entry[0]
    if kind == ORDER:
        return kind, [named(o) for o in entry[1]], [named(o) for o in entry[2]]
    if kind == WIDE:
        return (kind,)
    interior = entry[3] and (named(entry[3][0]), entry[3][1])
    return kind, named(entry[1]), entry[2], interior


def _consumer_facts(
    netlist: Netlist,
    timing: TimingAnalyzer,
    twin: Netlist,
    area: AreaAnalyzer,
    powers: Tuple[PowerAnalyzer, PowerAnalyzer],
) -> dict:
    """What every memoized consumer answers about *netlist*, by name;
    *timing*, *area* and *powers* keep their per-view memos across calls.
    The overheads are measured against *twin* in both directions, so
    *netlist* is once the original and once the hybrid.  Each power
    direction has its own analyzer: *netlist*'s memo slot then always
    holds the same direction's activities snapshot."""
    view = csr_view(netlist)
    names = view.names
    roots = sorted(netlist.outputs)[:2] + sorted(netlist.flip_flops)[:2]
    report = timing.analyze(netlist)
    to_startpoint, to_endpoint = csr_guide(netlist)
    plain = _plain_gates(netlist)
    rng = random.Random(11)
    inputs = {pi: rng.getrandbits(64) for pi in sorted(netlist.inputs)}
    state = {ff: rng.getrandbits(64) for ff in sorted(netlist.flip_flops)}
    values = CombinationalSimulator(netlist).evaluate(
        inputs, state, width=64
    )
    return {
        "netlist fan-out": {n: netlist.fanout(n) for n in netlist.node_names()},
        "csr gate types": {
            names[i]: view.gate_types[i].value for i in range(view.n)
        },
        "csr LUT column": sorted(names[i] for i in range(view.n) if view.is_lut[i]),
        "csr fan-in": {
            names[i]: [names[j] if j >= 0 else None for j in view.fanin_ids(i)]
            for i in range(view.n)
        },
        "csr fan-out": {
            names[i]: view.names_of(view.fanout_ids(i)) for i in range(view.n)
        },
        "csr dfs expansions": {
            (names[i], forwards): _entry_names(names, entry)
            for forwards in (False, True)
            for i, entry in enumerate(_all_expansions(view, forwards))
        },
        "csr topo_order": view.names_of(view.topo_order()),
        "csr levels": dict(zip(names, view.levels())),
        "csr forward cones": {
            r: sorted(view.names_of(view.forward_ids([view.id_of(r)])))
            for r in roots
        },
        "csr backward cones": {
            r: sorted(view.names_of(view.backward_ids([view.id_of(r)])))
            for r in roots
        },
        "memo topological_order": list(topological_order(netlist)),
        "memo levelize": dict(levelize(netlist)),
        "sta max delay": report.max_delay_ns,
        "sta critical path": report.critical_path,
        "sta arrivals": report.arrival_ns,
        "compiled sim": values,
        "cone signatures": {
            lut: extract_key_cone(netlist, lut).signature
            for lut in sorted(netlist.luts)
        },
        "ff depths": flip_flop_depths(netlist),
        "depth_to_output": dict(depth_to_output(netlist)),
        "guide to_startpoint": to_startpoint,
        "guide to_endpoint": to_endpoint,
        "activities": dict(estimate_activities(netlist)),
        "cone max delay (first 3)": timing.max_delay(netlist, as_lut=plain[:3]),
        "cone max delay (last 5)": timing.max_delay(netlist, as_lut=plain[-5:]),
        "area overhead": (
            area.area_overhead_pct(netlist, twin),
            area.area_overhead_pct(twin, netlist),
        ),
        "power overhead": (
            powers[0].power_overhead_pct(netlist, twin),
            powers[1].power_overhead_pct(twin, netlist),
        ),
    }


class TestFreshRebuild:
    """After any mutator, every memoized consumer of a netlist whose views
    were warm must answer exactly what it answers on ``netlist.copy()``
    computed from nothing: no cached view, an empty wiring-share table
    (else the copy would read the warm side's kernels) and a new timing
    analyzer.  The area and power analyzers are shared by all three
    calls, so a per-view total served to the wrong view or under stale
    activities shows up as a warm/fresh difference."""

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_warm_views_match_a_fresh_copy(self, mutator, monkeypatch):
        netlist = _fresh_base()
        twin = netlist.copy()
        timing, area = TimingAnalyzer(), AreaAnalyzer()
        powers = PowerAnalyzer(), PowerAnalyzer()
        before = _consumer_facts(netlist, timing, twin, area, powers)  # warm all
        revision = netlist.structure_revision
        MUTATORS[mutator](netlist)
        if mutator == "lut_config write":
            assert netlist.structure_revision == revision
        else:
            assert netlist.structure_revision > revision
        warm = _consumer_facts(netlist, timing, twin, area, powers)
        with monkeypatch.context() as patch:
            patch.setattr(csr, "_WIRINGS", weakref.WeakValueDictionary())
            fresh_netlist = netlist.copy()
            fresh = _consumer_facts(
                fresh_netlist, TimingAnalyzer(), twin, area, powers
            )
            assert csr_view(fresh_netlist).wiring is not csr_view(netlist).wiring
        for fact in fresh:
            assert warm[fact] == fresh[fact], fact
        assert warm != before  # the mutation was visible to some consumer
        if mutator == "lut_config write":
            # Configs bump no revision, so they must be in the memo key.
            assert warm["activities"] != before["activities"]

    def test_wiring_holder_is_shared_by_content(self):
        netlist = _fresh_base()
        holder = csr_view(netlist).wiring
        twin = netlist.copy()
        assert csr_view(twin).wiring is holder
        gate = _plain_gates(netlist)[0]
        node = netlist.node(gate)
        retyped = GateType.NOR if node.gate_type is GateType.AND else GateType.AND
        revision = netlist.structure_revision
        netlist.set_gate_type(gate, retyped)  # a pure gate-type rewrite
        assert netlist.structure_revision > revision
        view = csr_view(netlist)
        assert view.wiring is holder
        assert view.gate_types[view.id_of(gate)] is retyped
        fanin = list(node.fanin)
        new_src = next(pi for pi in netlist.inputs if pi not in fanin)
        twin.set_gate_type(gate, retyped, fanin=[new_src] + fanin[1:])
        assert csr_view(twin).wiring is not holder

    def test_trial_delay_equals_delay_of_a_replaced_copy(self):
        netlist = _fresh_base()
        _consumer_facts(
            netlist,
            TimingAnalyzer(),
            netlist.copy(),
            AreaAnalyzer(),
            (PowerAnalyzer(), PowerAnalyzer()),
        )
        timing = TimingAnalyzer()
        names = [
            g
            for g in timing.analyze(netlist).critical_path
            if g in set(_plain_gates(netlist))
        ]
        assert names
        revision = netlist.structure_revision
        delay = ParametricSelection(seed=0)._trial_delay(netlist, names)
        assert netlist.structure_revision == revision
        assert not any(netlist.node(g).is_lut for g in names)
        locked = netlist.copy()
        replace_gates_with_luts(locked, names)
        assert delay == timing.max_delay(locked)
        assert delay != timing.max_delay(netlist)

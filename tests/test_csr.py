"""Unit tests for the CSR flat-array netlist views (:mod:`repro.netlist.csr`).

The ``graph`` check family confronts the CSR kernels with networkx and
per-node oracles on random circuits; these tests pin the
*contracts* on hand-built netlists where every expected value is written
out by hand — id↔name mapping, pin order, dangling encoding, fan-out
name-sorting and memo identity.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.netlist import GateType, Netlist, NetlistError
from repro.netlist.csr import (
    SEQ_RANK,
    CombinationalLoopError,
    csr_view,
)


def build_seq() -> Netlist:
    """a,b → g1=AND(a,b) → ff=DFF(g1) → g2=OR(ff,a) → g3=NOT(g2) → PO."""
    n = Netlist("seq")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g1", GateType.AND, ["a", "b"])
    n.add_gate("ff", GateType.DFF, ["g1"])
    n.add_gate("g2", GateType.OR, ["ff", "a"])
    n.add_gate("g3", GateType.NOT, ["g2"])
    n.add_output("g3")
    return n


class TestIdNameMapping:
    def test_ids_are_insertion_order(self):
        view = csr_view(build_seq())
        assert view.names == ["a", "b", "g1", "ff", "g2", "g3"]
        assert view.index == {nm: i for i, nm in enumerate(view.names)}
        assert [view.id_of(nm) for nm in view.names] == list(range(view.n))
        assert view.names_of([5, 0, 3]) == ["g3", "a", "ff"]

    def test_unknown_name_raises(self):
        view = csr_view(build_seq())
        with pytest.raises(NetlistError, match="no net named 'nope'"):
            view.id_of("nope")

    def test_typed_columns(self):
        view = csr_view(build_seq())
        assert bytes(view.is_input) == bytes([1, 1, 0, 0, 0, 0])
        assert bytes(view.is_seq) == bytes([0, 0, 0, 1, 0, 0])
        assert bytes(view.is_comb) == bytes([0, 0, 1, 0, 1, 1])
        assert bytes(view.is_po) == bytes([0, 0, 0, 0, 0, 1])
        assert view.output_ids == [5]
        assert view.n_flip_flops == 1
        # g1 is the only net read by a DFF D pin.
        assert bytes(view.feeds_ff) == bytes([0, 0, 1, 0, 0, 0])


class TestAdjacency:
    def test_fanin_preserves_pin_order(self):
        view = csr_view(build_seq())
        assert view.fanin_ids(view.id_of("g1")) == [0, 1]
        assert view.fanin_ids(view.id_of("g2")) == [3, 0]  # ff before a
        assert view.fanin_ids(view.id_of("a")) == []
        assert view.d_pin(view.id_of("ff")) == view.id_of("g1")
        assert view.n_edges == 6

    def test_fanin_preserves_duplicates(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("g", GateType.AND, ["a", "a"])
        view = csr_view(n)
        assert view.fanin_ids(view.id_of("g")) == [0, 0]
        # Kahn indegrees count *distinct* fan-in names.
        assert view.indegree0[view.id_of("g")] == 1

    def test_fanout_matches_netlist_fanout(self):
        n = build_seq()
        view = csr_view(n)
        for name in view.names:
            assert view.names_of(view.fanout_ids(view.id_of(name))) == (
                n.fanout(name)
            ), name
        # 'a' feeds g1 and g2: deduplicated, sorted by reader name.
        assert view.names_of(view.fanout_ids(0)) == ["g1", "g2"]
        assert view.fanout_degree(0) == 2

    def test_dangling_reference_is_minus_one(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("g", GateType.AND, ["a", "missing"])
        view = csr_view(n)
        i = view.id_of("g")
        assert view.fanin_ids(i) == [0, -1]
        assert view.dangling == {(i, 1): "missing"}


class TestKernels:
    def test_topo_order_startpoints_first(self):
        view = csr_view(build_seq())
        # Startpoints (a, b, ff) in id order, then readers as they become
        # ready in name-sorted fan-out order.
        assert view.topo_order() == [0, 1, 3, 2, 4, 5]
        assert view.comb_order() == [2, 4, 5]

    def test_levels(self):
        view = csr_view(build_seq())
        assert view.levels() == [0, 0, 1, 0, 1, 2]

    def test_ff_depths(self):
        view = csr_view(build_seq())
        assert view.ff_depths() == [0, 0, 0, 1, 1, 1]

    def test_combinational_loop_raises(self):
        n = Netlist()
        n.add_input("a")
        n.add_input("b")
        n.add_gate("g1", GateType.AND, ["a", "g2"])
        n.add_gate("g2", GateType.OR, ["g1", "b"])
        with pytest.raises(CombinationalLoopError, match="g1"):
            csr_view(n).topo_order()

    def test_forward_cone(self):
        view = csr_view(build_seq())
        full = view.forward_ids([0])
        assert full[0] == 0  # roots first, discovery order after
        assert sorted(view.names_of(full)) == ["a", "ff", "g1", "g2", "g3"]
        comb = view.forward_ids([0], enter_sequential=False)
        assert sorted(view.names_of(comb)) == ["a", "g1", "g2", "g3"]

    def test_backward_cone(self):
        view = csr_view(build_seq())
        full = view.backward_ids([5])
        assert sorted(view.names_of(full)) == sorted(view.names)
        # Combinational convention: stop at (but include) INPUT/DFF.
        comb = view.backward_ids([5], expand_startpoints=False)
        assert sorted(view.names_of(comb)) == ["a", "ff", "g2", "g3"]

    def test_backward_cone_skips_dangling(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("g", GateType.AND, ["a", "missing"])
        view = csr_view(n)
        assert view.names_of(view.backward_ids([view.id_of("g")])) == [
            "g",
            "a",
        ]

    def test_guide_distances_and_rank(self):
        view = csr_view(build_seq())
        assert view.startpoint_dist() == [0, 0, 1, 0, 1, 2]
        # Endpoints: g3 (PO) and g1 (feeds ff); DFF fan-in never expanded.
        assert view.endpoint_dist() == [1, 1, 0, 2, 1, 0]
        on, off = view.guide_keys(forwards=True)
        assert off == [-1, -1, 0, -2, -1, 0]
        assert on == [-1, -1, 0, SEQ_RANK - 2, -1, 0]
        on, off = view.guide_keys(forwards=False)
        assert on == [0, 0, -1, SEQ_RANK, -1, -2]


class TestMemoization:
    def test_same_revision_same_view(self):
        n = build_seq()
        assert csr_view(n) is csr_view(n)

    def test_structural_mutation_invalidates(self):
        n = build_seq()
        before = csr_view(n)
        before.levels()  # populate a lazy kernel cache
        n.touch_structure()
        after = csr_view(n)
        assert after is not before
        assert csr_view(n) is after

    def test_lut_config_keeps_view_and_lut_replacement_replaces_it(self):
        # lut_config is runtime data and keeps the view; a gate-type
        # rewrite is structural and must replace the gate_types snapshot.
        n = build_seq()
        n.replace_with_lut("g1", program=False)
        before = csr_view(n)
        n.node("g1").lut_config = 0b0110
        assert csr_view(n) is before
        n.replace_with_lut("g3")
        after = csr_view(n)
        assert after is not before
        assert after.gate_types[after.id_of("g3")] is GateType.LUT
        assert after.is_lut[after.id_of("g3")]


# ----------------------------------------------------------------------
# the networkx ban (belt to the ruff TID251 braces)
# ----------------------------------------------------------------------
def test_no_networkx_outside_sanctioned_modules():
    """Traversals run on the CSR views; ``networkx`` imports are allowed
    only in the graph checks' independent oracles
    (``check/checks_graph.py``)."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    allowed = {"check/checks_graph.py"}
    offenders = [
        rel
        for path in sorted(src.rglob("*.py"))
        if (rel := str(path.relative_to(src)).replace("\\", "/"))
        not in allowed
        and any(
            ("import networkx" in line or "from networkx" in line)
            and not line.lstrip().startswith("#")
            for line in path.read_text().splitlines()
        )
    ]
    assert offenders == [], (
        "networkx import outside the sanctioned modules — use "
        f"repro.netlist.csr for traversals: {offenders}"
    )


def test_no_gate_type_writes_outside_netlist():
    """Gate types are structure: every rewrite goes through
    ``Netlist.set_gate_type``, which bumps the structure revision, so no
    module outside ``netlist/netlist.py`` assigns ``.gate_type``."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"

    def writes_gate_type(tree: ast.AST) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and leaf.attr == "gate_type":
                        return True
        return False

    offenders = [
        rel
        for path in sorted(src.rglob("*.py"))
        if (rel := str(path.relative_to(src)).replace("\\", "/"))
        != "netlist/netlist.py"
        and writes_gate_type(ast.parse(path.read_text()))
    ]
    assert offenders == [], (
        "direct .gate_type write outside netlist/netlist.py — use "
        f"Netlist.set_gate_type so views see the change: {offenders}"
    )

"""Tests for graph analysis: orders, depths, path discovery."""

from __future__ import annotations

import random

import pytest

from repro.netlist import (
    CombinationalLoopError,
    GateType,
    Netlist,
    NetlistError,
    combinational_cone,
    combinational_gates_on,
    find_io_path,
    flip_flop_depths,
    levelize,
    logic_depth,
    sequential_depth,
    split_into_timing_paths,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)
from repro.check.checks_graph import csr_guide, nx_graph


class TestTopologicalOrder:
    def test_respects_dependencies(self, s27):
        order = topological_order(s27)
        position = {name: i for i, name in enumerate(order)}
        for node in s27:
            if node.is_input or node.is_sequential:
                continue
            for src in node.fanin:
                assert position[src] < position[node.name]

    def test_combinational_loop_detected(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("x", GateType.AND, ["a", "y"])
        n.add_gate("y", GateType.NOT, ["x"])
        with pytest.raises(CombinationalLoopError):
            topological_order(n)

    def test_sequential_loop_is_fine(self, s27):
        # s27 has FF feedback; that must not be flagged.
        assert len(topological_order(s27)) == len(s27)


class TestLevels:
    def test_levelize_tiny(self, tiny_comb):
        levels = levelize(tiny_comb)
        assert levels["a"] == 0
        assert levels["t_and"] == 1
        assert levels["y1"] == 2

    def test_logic_depth(self, tiny_comb):
        assert logic_depth(tiny_comb) == 2

    def test_dff_is_level_zero(self, tiny_seq):
        levels = levelize(tiny_seq)
        assert levels["reg1"] == 0
        assert levels["m"] == 1


class TestSequentialDepth:
    def test_pipeline_depth(self, tiny_seq):
        assert sequential_depth(tiny_seq) == 2

    def test_s27_depth_positive(self, s27):
        assert sequential_depth(s27) >= 1

    def test_flip_flop_depths_monotone(self, tiny_seq):
        depths = flip_flop_depths(tiny_seq)
        assert depths["x"] == 0
        assert depths["reg1"] == 1
        assert depths["reg2"] == 2
        assert depths["out"] == 2

    def test_saturation_on_feedback(self):
        # A counter-style FF loop must terminate and stay bounded.
        n = Netlist()
        n.add_input("en")
        n.add_gate("q", GateType.DFF, ["d"])
        n.add_gate("d", GateType.XOR, ["q", "en"])
        n.add_output("d")
        depths = flip_flop_depths(n)
        assert depths["d"] <= 32


class TestReachability:
    def test_transitive_fanin(self, tiny_seq):
        cone = transitive_fanin(tiny_seq, ["out"])
        assert cone == {"out", "reg2", "m", "reg1", "b", "x", "a"}

    def test_transitive_fanout(self, tiny_seq):
        assert transitive_fanout(tiny_seq, ["a"]) == {"a", "x", "reg1", "m", "reg2", "out"}

    def test_combinational_cone_stops_at_ffs(self, tiny_seq):
        cone = combinational_cone(tiny_seq, ["m"])
        assert cone == {"m", "reg1", "b"}


class TestDanglingPins:
    """The name walks over undriven references (``-1`` ids in the CSR
    view): expanding a node with a dangling pin is an error, but a
    startpoint the combinational cone stops at is never expanded."""

    @staticmethod
    def _dangling() -> Netlist:
        n = Netlist()
        n.add_input("a")
        n.add_gate("g", GateType.AND, ["a", "ghost"])
        n.add_gate("q", GateType.DFF, ["lost"])
        n.add_gate("h", GateType.OR, ["q", "a"])
        n.add_gate("r", GateType.NOT, ["ghost"])
        n.add_gate("s", GateType.BUF, ["r"])
        n.add_output("g")
        n.add_output("h")
        n.add_output("s")
        return n

    def test_transitive_fanin_raises_on_a_gates_dangling_pin(self):
        n = self._dangling()
        with pytest.raises(NetlistError, match="no net named 'ghost'"):
            transitive_fanin(n, ["g"])
        # The DFF's D pin dangles too, and the walk crosses flip-flops.
        with pytest.raises(NetlistError, match="no net named 'lost'"):
            transitive_fanin(n, ["h"])
        assert transitive_fanin(n, ["a"]) == {"a"}

    def test_combinational_cone_raises_for_gates_not_for_dff_d_pins(self):
        n = self._dangling()
        with pytest.raises(NetlistError, match="no net named 'ghost'"):
            combinational_cone(n, ["g"])
        with pytest.raises(NetlistError, match="no net named 'ghost'"):
            combinational_cone(n, ["s"])
        # The cone stops at q, so its dangling D pin is never expanded.
        assert combinational_cone(n, ["h"]) == {"h", "q", "a"}
        assert combinational_cone(n, ["q"]) == {"q"}

    def test_transitive_fanout_of_an_unknown_root(self):
        n = self._dangling()
        assert transitive_fanout(n, ["ghost"]) == {"ghost", "g", "r", "s"}
        assert transitive_fanout(n, ["lost"]) == {"lost", "q", "h"}
        assert transitive_fanout(n, ["nowhere", "a"]) == {
            "nowhere",
            "a",
            "g",
            "h",
        }


class TestIOPaths:
    def test_find_path_through_pipeline(self, tiny_seq):
        path = find_io_path(tiny_seq, "m", random.Random(0), min_flip_flops=2)
        assert path is not None
        assert tiny_seq.node(path[0]).is_input
        assert path[-1] in tiny_seq.outputs
        ffs = sum(1 for p in path if tiny_seq.node(p).is_sequential)
        assert ffs >= 2
        assert "m" in path

    def test_no_path_when_requirement_too_high(self, tiny_comb):
        assert (
            find_io_path(tiny_comb, "t_and", random.Random(0), min_flip_flops=1)
            is None
        )

    def test_path_is_simple(self, s641):
        rng = random.Random(0)
        for component in rng.sample(s641.gates, 5):
            path = find_io_path(s641, component, rng=rng)
            if path is None:
                continue
            assert len(path) == len(set(path))
            # Consecutive nodes must be connected driver -> reader.
            for a, b in zip(path, path[1:]):
                assert a in s641.node(b).fanin

    def test_max_flip_flops_respected(self, s641):
        rng = random.Random(2)
        path = find_io_path(s641, s641.gates[10], rng=rng, max_flip_flops=3)
        if path is not None:
            ffs = sum(1 for p in path if s641.node(p).is_sequential)
            assert ffs <= 3


class TestTimingPathSplit:
    def test_split_pipeline(self, tiny_seq):
        path = ["a", "x", "reg1", "m", "reg2", "out"]
        segments = split_into_timing_paths(tiny_seq, path)
        assert segments == [
            ["a", "x", "reg1"],
            ["reg1", "m", "reg2"],
            ["reg2", "out"],
        ]

    def test_combinational_gates_on(self, tiny_seq):
        path = ["a", "x", "reg1", "m", "reg2", "out"]
        assert combinational_gates_on(tiny_seq, path) == ["x", "m", "out"]


class TestNetworkx:
    """The graph checks' networkx oracle: driver → reader edges, with the
    DFF D-pin edges dropped in the cut view."""

    def test_full_view_edges(self, tiny_seq):
        g = nx_graph(tiny_seq)
        assert g.has_edge("x", "reg1")
        assert g.has_edge("reg1", "m")

    def test_cut_view_drops_dff_inputs(self, tiny_seq):
        g = nx_graph(tiny_seq, cut_flip_flops=True)
        assert not g.has_edge("x", "reg1")
        assert g.has_edge("reg1", "m")


class TestPathGuide:
    """The BFS distances the path DFS ranks neighbours by."""

    def test_distances(self, tiny_seq):
        to_startpoint, to_endpoint = csr_guide(tiny_seq)
        assert to_startpoint["a"] == 0
        assert to_startpoint["x"] == 1
        # x feeds reg1 directly -> distance 0 to an endpoint.
        assert to_endpoint["x"] == 0
        assert to_endpoint["out"] == 0

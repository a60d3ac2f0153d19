"""Unit tests for the Netlist data structure."""

from __future__ import annotations

import pytest

from repro.netlist import GateType, Netlist, NetlistError, merge_disjoint
from repro.netlist.gates import truth_table


def build_simple() -> Netlist:
    n = Netlist("simple")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g", GateType.AND, ["a", "b"])
    n.add_output("g")
    return n


class TestConstruction:
    def test_basic_counts(self):
        n = build_simple()
        assert len(n) == 3
        assert n.inputs == ["a", "b"]
        assert n.outputs == ["g"]
        assert n.gates == ["g"]
        assert n.flip_flops == []

    def test_duplicate_driver_rejected(self):
        n = build_simple()
        with pytest.raises(NetlistError, match="multiple drivers"):
            n.add_gate("g", GateType.OR, ["a", "b"])

    def test_duplicate_output_rejected(self):
        n = build_simple()
        with pytest.raises(NetlistError, match="duplicate output"):
            n.add_output("g")

    def test_input_via_add_gate_rejected(self):
        n = Netlist()
        with pytest.raises(NetlistError, match="add_input"):
            n.add_gate("x", GateType.INPUT, [])

    def test_lut_config_on_non_lut_rejected(self):
        n = Netlist()
        n.add_input("a")
        n.add_input("b")
        with pytest.raises(NetlistError, match="lut_config"):
            n.add_gate("g", GateType.AND, ["a", "b"], lut_config=0b1000)

    def test_arity_enforced(self):
        n = Netlist()
        n.add_input("a")
        with pytest.raises(Exception):
            n.add_gate("g", GateType.AND, ["a"])

    def test_forward_references_allowed(self):
        """Fan-in may be declared after use (``.bench`` files do this)."""
        n = Netlist()
        n.add_input("a")
        n.add_gate("g", GateType.NOT, ["later"])
        n.add_gate("later", GateType.BUF, ["a"])
        n.validate()

    def test_validate_catches_dangling(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("g", GateType.NOT, ["missing"])
        with pytest.raises(NetlistError, match="undriven"):
            n.validate()


class TestFanout:
    def test_fanout_maintained(self):
        n = build_simple()
        assert n.fanout("a") == ["g"]
        assert n.fanout("g") == []

    def test_rewire_updates_fanout(self):
        n = build_simple()
        n.add_gate("h", GateType.NOT, ["a"])
        n.rewire_fanin("g", 0, "h")
        assert "g" not in n.fanout("a") or n.node("g").fanin.count("a")
        assert "g" in n.fanout("h")
        assert n.node("g").fanin == ["h", "b"]

    def test_rewire_keeps_fanout_when_net_still_used(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("g", GateType.AND, ["a", "a"])
        n.rewire_fanin("g", 0, "a")  # no-op rewire
        assert n.fanout("a") == ["g"]

    def test_rewire_bad_pin(self):
        n = build_simple()
        with pytest.raises(NetlistError, match="no pin"):
            n.rewire_fanin("g", 5, "a")

    def test_remove_node(self):
        n = build_simple()
        n.add_gate("dead", GateType.NOT, ["a"])
        n.remove_node("dead")
        assert "dead" not in n
        assert n.fanout("a") == ["g"]

    def test_remove_with_fanout_rejected(self):
        n = build_simple()
        with pytest.raises(NetlistError, match="still drives"):
            n.remove_node("a")

    def test_remove_output_rejected(self):
        n = build_simple()
        with pytest.raises(NetlistError, match="primary output"):
            n.remove_node("g")


class TestLutReplacement:
    def test_replace_programs_truth_table(self):
        n = build_simple()
        node = n.replace_with_lut("g")
        assert node.gate_type is GateType.LUT
        assert node.lut_config == truth_table(GateType.AND, 2)
        assert node.attrs["locked_from"] == "AND"

    def test_replace_unprogrammed(self):
        n = build_simple()
        node = n.replace_with_lut("g", program=False)
        assert node.lut_config is None
        assert not node.is_programmed

    def test_replace_input_rejected(self):
        n = build_simple()
        with pytest.raises(NetlistError):
            n.replace_with_lut("a")

    def test_replace_dff_rejected(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("q", GateType.DFF, ["a"])
        with pytest.raises(NetlistError):
            n.replace_with_lut("q")

    def test_lut_evaluate(self):
        n = build_simple()
        n.replace_with_lut("g")
        node = n.node("g")
        assert node.evaluate([1, 1]) == 1
        assert node.evaluate([1, 0]) == 0

    def test_unprogrammed_lut_evaluate_raises(self):
        n = build_simple()
        n.replace_with_lut("g", program=False)
        with pytest.raises(NetlistError, match="not programmed"):
            n.node("g").evaluate([1, 1])

    def test_function_mask_of_gate(self):
        n = build_simple()
        assert n.node("g").function_mask() == 0b1000

    def test_function_mask_of_input_raises(self):
        n = build_simple()
        with pytest.raises(NetlistError):
            n.node("a").function_mask()


class TestCopy:
    def test_copy_is_deep(self):
        n = build_simple()
        c = n.copy("clone")
        c.node("g").fanin[0] = "b"
        assert n.node("g").fanin == ["a", "b"]
        assert c.name == "clone"

    def test_copy_preserves_outputs_and_attrs(self):
        n = build_simple()
        n.node("g").attrs["tag"] = 1
        c = n.copy()
        assert c.outputs == ["g"]
        assert c.node("g").attrs == {"tag": 1}
        c.node("g").attrs["tag"] = 2
        assert n.node("g").attrs["tag"] == 1

    @staticmethod
    def _added_one_by_one(netlist: Netlist) -> Netlist:
        """The construction ``copy()`` replaces: one ``_add`` per node."""
        out = Netlist(netlist.name)
        for node in netlist:
            out._add(node.copy())
        out.outputs = list(netlist.outputs)
        return out

    def test_copy_fanout_map_equals_per_node_adds(self, s641):
        from repro import lock_design

        forward = Netlist("forward")  # readers before drivers, and ghosts
        forward.add_gate("r1", GateType.DFF, ["g2"])
        forward.add_input("a")
        forward.add_gate("g1", GateType.AND, ["a", "ghost", "r1", "a"])
        forward.add_gate("g2", GateType.OR, ["g1", "phantom"])
        forward.add_output("g2")
        hybrid = lock_design(s641, "independent", seed=1, decoy_inputs=2).hybrid
        for netlist in (build_simple(), forward, s641, hybrid):
            c = netlist.copy()
            ref = self._added_one_by_one(netlist)
            assert list(c._fanout.items()) == list(ref._fanout.items())
            assert all(c._fanout[k] is not netlist._fanout[k] for k in c._fanout)
            assert c.structure_revision == ref.structure_revision
            assert [vars(n) for n in c] == [vars(n) for n in ref]
            assert c.outputs == ref.outputs

    def test_stats(self, s27):
        stats = s27.stats()
        assert (stats.n_inputs, stats.n_outputs) == (4, 1)
        assert stats.n_flip_flops == 3
        assert stats.n_gates == 10
        assert "s27" in str(stats)


class TestMerge:
    def test_merge_disjoint(self):
        a = build_simple()
        b = Netlist("other")
        b.add_input("x")
        b.add_gate("y", GateType.NOT, ["x"])
        b.add_output("y")
        merged = merge_disjoint("both", [a, b])
        assert set(merged.inputs) == {"a", "b", "x"}
        assert set(merged.outputs) == {"g", "y"}
        merged.validate()

    def test_merge_collision_rejected(self):
        a = build_simple()
        with pytest.raises(NetlistError):
            merge_disjoint("bad", [a, a])

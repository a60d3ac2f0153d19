"""Gate-level netlist substrate: data structures, I/O, graph analysis."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .gates import (
    CANDIDATE_TYPES,
    COMBINATIONAL_TYPES,
    REPLACEABLE_TYPES,
    GateArityError,
    GateType,
    candidate_tables,
    evaluate_gate,
    format_truth_table,
    parse_gate_type,
    similarity,
    truth_table,
    truth_table_to_type,
)
from .netlist import Netlist, NetlistError, NetlistStats, Node, merge_disjoint
from .graph import (
    CombinationalLoopError,
    combinational_cone,
    combinational_gates_on,
    combinational_order,
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
from .transform import (
    absorb_fanin_gate,
    count_replaced,
    extract_cone,
    immediate_neighbours,
    replace_gates_with_luts,
    widen_lut_with_decoys,
)
from . import bench_io, cache

if TYPE_CHECKING:
    from . import verilog_io
    from .scan import (
        SCAN_ENABLE,
        SCAN_IN,
        SCAN_OUT,
        disable_scan,
        has_scan_chain,
        insert_scan_chain,
        lock_scan_enable,
        scan_chain_order,
    )
    from .simplify import (
        SweepStats,
        collapse_buffers,
        propagate_constants,
        remove_dead_logic,
        sweep,
    )
    from .techmap import decompose_to_max_fanin, fanin_histogram, map_to_nand

# Scan insertion, logic clean-up, technology mapping and Verilog I/O run in
# no trial: they load on first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "SCAN_ENABLE": ".scan",
        "SCAN_IN": ".scan",
        "SCAN_OUT": ".scan",
        "disable_scan": ".scan",
        "has_scan_chain": ".scan",
        "insert_scan_chain": ".scan",
        "lock_scan_enable": ".scan",
        "scan_chain_order": ".scan",
        "SweepStats": ".simplify",
        "collapse_buffers": ".simplify",
        "propagate_constants": ".simplify",
        "remove_dead_logic": ".simplify",
        "sweep": ".simplify",
        "decompose_to_max_fanin": ".techmap",
        "fanin_histogram": ".techmap",
        "map_to_nand": ".techmap",
        "verilog_io": ".verilog_io",
    },
)

__all__ = [
    "CANDIDATE_TYPES",
    "COMBINATIONAL_TYPES",
    "REPLACEABLE_TYPES",
    "GateArityError",
    "GateType",
    "candidate_tables",
    "evaluate_gate",
    "format_truth_table",
    "parse_gate_type",
    "similarity",
    "truth_table",
    "truth_table_to_type",
    "Netlist",
    "NetlistError",
    "NetlistStats",
    "Node",
    "merge_disjoint",
    "CombinationalLoopError",
    "combinational_cone",
    "combinational_gates_on",
    "combinational_order",
    "find_io_path",
    "flip_flop_depths",
    "levelize",
    "logic_depth",
    "sequential_depth",
    "split_into_timing_paths",
    "topological_order",
    "transitive_fanin",
    "transitive_fanout",
    "absorb_fanin_gate",
    "count_replaced",
    "extract_cone",
    "immediate_neighbours",
    "replace_gates_with_luts",
    "widen_lut_with_decoys",
    "SCAN_ENABLE",
    "SCAN_IN",
    "SCAN_OUT",
    "disable_scan",
    "has_scan_chain",
    "insert_scan_chain",
    "lock_scan_enable",
    "scan_chain_order",
    "SweepStats",
    "collapse_buffers",
    "propagate_constants",
    "remove_dead_logic",
    "sweep",
    "decompose_to_max_fanin",
    "fanin_histogram",
    "map_to_nand",
    "bench_io",
    "cache",
    "verilog_io",
]

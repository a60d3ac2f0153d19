"""Benchmark circuits: embedded ISCAS'89 s27 and the synthetic suite."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .generator import CircuitSpec, generate, generate_family
from .iscas import (
    PAPER_BENCHMARK_ORDER,
    PAPER_BENCHMARKS,
    S27_BENCH,
    benchmark_suite,
    load_benchmark,
    spec,
)

if TYPE_CHECKING:
    from .arithmetic import (
        ALU_OPS,
        alu,
        alu_reference,
        equality_comparator,
        ripple_carry_adder,
    )

# The arithmetic circuits serve examples and checks, never a trial: they
# load on first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "ALU_OPS": ".arithmetic",
        "alu": ".arithmetic",
        "alu_reference": ".arithmetic",
        "equality_comparator": ".arithmetic",
        "ripple_carry_adder": ".arithmetic",
    },
)

__all__ = [
    "ALU_OPS",
    "alu",
    "alu_reference",
    "equality_comparator",
    "ripple_carry_adder",
    "CircuitSpec",
    "generate",
    "generate_family",
    "PAPER_BENCHMARK_ORDER",
    "PAPER_BENCHMARKS",
    "S27_BENCH",
    "benchmark_suite",
    "load_benchmark",
    "spec",
]

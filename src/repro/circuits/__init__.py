"""Benchmark circuits: embedded ISCAS'89 s27 and the synthetic suite."""

from .generator import CircuitSpec, generate, generate_family
from .iscas import (
    PAPER_BENCHMARK_ORDER,
    PAPER_BENCHMARKS,
    S27_BENCH,
    benchmark_suite,
    load_benchmark,
    spec,
)

__all__ = [
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

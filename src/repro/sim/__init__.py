"""Logic simulation substrate: bit-parallel combinational/sequential
simulation and ATPG-style justification/propagation."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .logicsim import (
    CombinationalSimulator,
    exhaustive_input_words,
    pack,
    random_words,
    reference_evaluate,
    unpack,
)
from .compiled import (
    CompiledProgram,
    PackedConfigs,
    compiled_source,
    evaluate_configs,
    get_program,
    program_for_configs,
)
from .keybatch import (
    DEFAULT_BATCH_WIDTH,
    Hypothesis,
    KeyScorer,
    ScreenOutcome,
    iter_hypotheses,
    score_keys,
    screen_hypotheses,
    surviving_lanes,
)
from .justify import (
    Implication,
    is_observable,
    justify,
    justify_and_propagate,
    random_observable_pattern,
)

if TYPE_CHECKING:
    from .faults import (
        CoverageReport,
        Fault,
        FaultSimulator,
        enumerate_faults,
        fault_coverage,
        random_pattern_coverage,
    )
    from .seqsim import SequentialSimulator, ToggleStats, functional_match

# Fault simulation runs in no trial, and the sequential simulator only in
# simulation-based activity estimation and functional-mode oracle
# queries: they load on first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "SequentialSimulator": ".seqsim",
        "ToggleStats": ".seqsim",
        "functional_match": ".seqsim",
        "CoverageReport": ".faults",
        "Fault": ".faults",
        "FaultSimulator": ".faults",
        "enumerate_faults": ".faults",
        "fault_coverage": ".faults",
        "random_pattern_coverage": ".faults",
    },
)

__all__ = [
    "CombinationalSimulator",
    "CompiledProgram",
    "DEFAULT_BATCH_WIDTH",
    "Hypothesis",
    "KeyScorer",
    "PackedConfigs",
    "ScreenOutcome",
    "compiled_source",
    "evaluate_configs",
    "get_program",
    "iter_hypotheses",
    "program_for_configs",
    "score_keys",
    "screen_hypotheses",
    "surviving_lanes",
    "exhaustive_input_words",
    "pack",
    "random_words",
    "reference_evaluate",
    "unpack",
    "SequentialSimulator",
    "ToggleStats",
    "functional_match",
    "CoverageReport",
    "Fault",
    "FaultSimulator",
    "enumerate_faults",
    "fault_coverage",
    "random_pattern_coverage",
    "Implication",
    "is_observable",
    "justify",
    "justify_and_propagate",
    "random_observable_pattern",
]

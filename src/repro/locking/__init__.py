"""The paper's core contribution: CMOS-gate selection and replacement."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .base import SelectionAlgorithm, SelectionResult, replaceable_gates_on_paths
from .dependent import DependentSelection, DependentSelectionError
from .independent import IndependentSelection
from .parametric import ParametricSelection
from .metrics import (
    PAPER_ALPHA,
    PAPER_P,
    PATTERNS_PER_SECOND,
    SecurityAnalyzer,
    SecurityReport,
    alpha,
    average_similarity,
    depth_to_output,
    p_candidates,
)

if TYPE_CHECKING:
    from .flow import (
        AuditPolicy,
        FlowReport,
        SecurityDrivenFlow,
        SecurityLevel,
        SecurityRequirement,
    )

# The Fig. 2 flow (and through it the lint engine) runs in no trial: it
# loads on first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "AuditPolicy": ".flow",
        "FlowReport": ".flow",
        "SecurityDrivenFlow": ".flow",
        "SecurityLevel": ".flow",
        "SecurityRequirement": ".flow",
    },
)

ALGORITHMS = {
    IndependentSelection.name: IndependentSelection,
    DependentSelection.name: DependentSelection,
    ParametricSelection.name: ParametricSelection,
}

__all__ = [
    "AuditPolicy",
    "FlowReport",
    "SecurityDrivenFlow",
    "SecurityLevel",
    "SecurityRequirement",
    "SelectionAlgorithm",
    "SelectionResult",
    "replaceable_gates_on_paths",
    "DependentSelection",
    "DependentSelectionError",
    "IndependentSelection",
    "ParametricSelection",
    "ALGORITHMS",
    "PAPER_ALPHA",
    "PAPER_P",
    "PATTERNS_PER_SECOND",
    "SecurityAnalyzer",
    "SecurityReport",
    "alpha",
    "average_similarity",
    "depth_to_output",
    "p_candidates",
]

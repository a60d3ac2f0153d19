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
    from .budget import (
        BudgetPlan,
        plan_parametric,
        required_missing_gates,
        years_to_clocks,
    )
    from .flow import (
        AuditPolicy,
        FlowReport,
        SecurityDrivenFlow,
        SecurityLevel,
        SecurityRequirement,
    )

# The Fig. 2 flow (and through it the lint engine) and the budget planner
# run in no trial: they load on first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "BudgetPlan": ".budget",
        "plan_parametric": ".budget",
        "required_missing_gates": ".budget",
        "years_to_clocks": ".budget",
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
    "BudgetPlan",
    "plan_parametric",
    "required_missing_gates",
    "years_to_clocks",
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

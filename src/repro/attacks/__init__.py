"""Attack simulations: the adversaries the paper's defence is judged against."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .oracle import ConfiguredOracle, OracleAccessError
from .testing_attack import TestingAttack, TestingAttackResult
from .brute_force import BruteForceAttack, BruteForceResult, candidate_configs
from .sat_attack import SatAttack, SatAttackResult, verify_key
from .ml_attack import MlAttack, MlAttackResult

if TYPE_CHECKING:
    from .sequential_sat import SequentialSatAttack, SequentialSatResult

# The sweep has no sequential-SAT attack: it loads on first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "SequentialSatAttack": ".sequential_sat",
        "SequentialSatResult": ".sequential_sat",
    },
)

__all__ = [
    "ConfiguredOracle",
    "OracleAccessError",
    "TestingAttack",
    "TestingAttackResult",
    "BruteForceAttack",
    "BruteForceResult",
    "candidate_configs",
    "SatAttack",
    "SatAttackResult",
    "verify_key",
    "MlAttack",
    "MlAttackResult",
    "SequentialSatAttack",
    "SequentialSatResult",
]

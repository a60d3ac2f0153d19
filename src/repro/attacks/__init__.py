"""Attack simulations: the adversaries the paper's defence is judged against."""

from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional, Tuple

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


class AttackKind(NamedTuple):
    """One attack of the sweep grid and of ``repro-lock attack``."""

    label: str  # how the CLI names it
    attack: type
    knobs: Tuple[str, ...]  # the shared knobs (seed, batch_width) it takes
    fields: Callable[[Any], Dict[str, Any]]  # its own row fields


def _values(*names: str) -> Callable[[Any], Dict[str, Any]]:
    return lambda outcome: {name: getattr(outcome, name) for name in names}


def _counts(*names: str) -> Callable[[Any], Dict[str, Any]]:
    return lambda outcome: {name: len(getattr(outcome, name)) for name in names}


#: Every attack by name, in the order the CLI lists them.
ATTACKS: Dict[str, AttackKind] = {
    "testing": AttackKind(
        "testing attack", TestingAttack, ("seed",),
        _counts("resolved", "unresolved"),
    ),
    "brute": AttackKind(
        "brute force", BruteForceAttack, ("seed", "batch_width"),
        _values("hypotheses_tested", "hypotheses_total", "exhausted_budget"),
    ),
    "sat": AttackKind(
        "sat attack", SatAttack, (),
        _values("iterations", "gave_up", "solver_conflicts"),
    ),
    "ml": AttackKind(
        "ml attack", MlAttack, ("seed", "batch_width"),
        _values("iterations", "restarts", "best_agreement", "key_bits"),
    ),
}


def run_attack(
    name: str,
    foundry,
    oracle: ConfiguredOracle,
    seed: int = 0,
    batch_width: Optional[int] = None,
    **params: Any,
) -> Dict[str, Any]:
    """Run attack *name* on the *foundry* view against *oracle* and return
    its row: ``attack``, ``success``, the attack's own fields, then its
    bill (``oracle_queries``, ``test_clocks``).  A SAT key is checked
    against the oracle's netlist (``key_verified``).

    *seed* and *batch_width* reach only the attacks that take them (a
    ``batch_width`` of ``None`` keeps the attack's default); *params* go
    to the attack as they are.
    """
    kind = ATTACKS[name]
    knobs = {"seed": seed, "batch_width": batch_width}
    for knob in kind.knobs:
        if knobs[knob] is not None:
            params[knob] = knobs[knob]
    outcome = kind.attack(foundry, oracle, **params).run()
    row = {
        "attack": name,
        "success": outcome.success,
        **kind.fields(outcome),
        "oracle_queries": outcome.oracle_queries,
        "test_clocks": outcome.test_clocks,
    }
    if name == "sat" and outcome.success:
        row["key_verified"] = bool(verify_key(foundry, outcome.key, oracle.netlist))
    return row


__all__ = [
    "ATTACKS",
    "AttackKind",
    "run_attack",
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

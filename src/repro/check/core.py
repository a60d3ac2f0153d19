"""Differential-check core: registry, context, runner, and report.

A *check* pits two independent computations of the same fact against each
other on randomized inputs — compiled vs reference simulation, a SAT
verdict vs exhaustive simulation, a parallel sweep vs a serial one, an
attack's reported bill vs an external re-count.  The redundancy is the
oracle: when the implementations agree the fact is (probabilistically)
right, and when they disagree at least one of them is wrong and the
divergence is recorded with enough detail to reproduce it.

Determinism contract: a check's random stream is derived (sha256, via
:func:`repro.sweep.spec.derive_seed`) from ``(check name, circuit, seed)``,
so a reported divergence replays exactly from its coordinates alone —
``repro-lock check --checks NAME --circuits CIRCUIT --seeds SEED``.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..obs import Stopwatch, span
from ..sweep.spec import derive_seed

#: The mini ISCAS suite the CI job sweeps: the worked example from the
#: paper's Fig. 1 discussion plus the smallest Table I benchmark.
MINI_SUITE = ("s27", "s641")


class CheckError(RuntimeError):
    """A misconfigured check run (unknown check name, empty plan)."""


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Divergence:
    """One disagreement between two redundant computations."""

    check: str
    circuit: str
    seed: int
    fact: str  # what the two sides were computing
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "circuit": self.circuit,
            "seed": self.seed,
            "fact": self.fact,
            "message": self.message,
            "details": self.details,
        }


@dataclass
class CheckOutcome:
    """One (check, circuit, seed) cell of a check run."""

    check: str
    family: str
    circuit: str
    seed: int
    trials: int
    comparisons: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    seconds: float = 0.0
    error: Optional[str] = None  # the check itself crashed

    @property
    def ok(self) -> bool:
        return not self.divergences and self.error is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "family": self.family,
            "circuit": self.circuit,
            "seed": self.seed,
            "trials": self.trials,
            "comparisons": self.comparisons,
            "divergences": [d.to_dict() for d in self.divergences],
            "seconds": round(self.seconds, 3),
            "error": self.error,
            "ok": self.ok,
        }


@dataclass
class CheckReport:
    """All outcomes of one ``run_checks`` invocation."""

    outcomes: List[CheckOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def divergences(self) -> List[Divergence]:
        return [d for o in self.outcomes for d in o.divergences]

    @property
    def comparisons(self) -> int:
        return sum(o.comparisons for o in self.outcomes)

    def summary(self) -> str:
        failed = sum(1 for o in self.outcomes if not o.ok)
        return (
            f"check: {len(self.outcomes)} runs, {self.comparisons} "
            f"comparisons, {len(self.divergences)} divergences, "
            f"{failed} failed runs in {self.wall_seconds:.1f}s"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "summary": self.summary(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


# ----------------------------------------------------------------------
# check definition and registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Check:
    """A registered differential check.

    ``trial_divisor`` scales the user's ``--trials`` budget for expensive
    checks (a sweep-engine comparison costs hundreds of times more than a
    simulation-parity trial): the check receives
    ``max(1, trials // trial_divisor)`` rounds.
    """

    name: str
    family: str
    description: str
    fn: Callable[["CheckContext"], None]
    trial_divisor: int = 1

    def rounds(self, trials: int) -> int:
        return max(1, trials // max(self.trial_divisor, 1))


_REGISTRY: Dict[str, Check] = {}


def register(
    name: str, family: str, description: str, trial_divisor: int = 1
) -> Callable[[Callable[["CheckContext"], None]], Callable]:
    """Decorator adding a check function to the global registry."""

    def decorate(fn: Callable[["CheckContext"], None]) -> Callable:
        if name in _REGISTRY:
            raise CheckError(f"duplicate check name {name!r}")
        _REGISTRY[name] = Check(
            name=name,
            family=family,
            description=description,
            fn=fn,
            trial_divisor=trial_divisor,
        )
        return fn

    return decorate


def _load_builtin_checks() -> None:
    # Import for the registration side effect; keep cli startup lazy.
    from . import checks_attacks  # noqa: F401
    from . import checks_dataflow  # noqa: F401
    from . import checks_graph  # noqa: F401
    from . import checks_keybatch  # noqa: F401
    from . import checks_metamorphic  # noqa: F401
    from . import checks_obs  # noqa: F401
    from . import checks_sat  # noqa: F401
    from . import checks_sim  # noqa: F401
    from . import checks_sweep  # noqa: F401


def all_checks() -> List[Check]:
    """Every registered check, sorted by (family, name)."""
    _load_builtin_checks()
    return sorted(_REGISTRY.values(), key=lambda c: (c.family, c.name))


def families() -> List[str]:
    return sorted({check.family for check in all_checks()})


def resolve_checks(names: Optional[Iterable[str]]) -> List[Check]:
    """Resolve check names and family names to :class:`Check` objects."""
    checks = all_checks()
    if not names:
        return checks
    by_name = {check.name: check for check in checks}
    out: Dict[str, Check] = {}
    for name in names:
        if name in by_name:
            out.setdefault(name, by_name[name])
            continue
        members = [check for check in checks if check.family == name]
        if not members:
            raise CheckError(
                f"unknown check {name!r}; choose from "
                f"{sorted(by_name)} or families {families()}"
            )
        for check in members:
            out.setdefault(check.name, check)
    return list(out.values())


# ----------------------------------------------------------------------
# execution context
# ----------------------------------------------------------------------
class CheckContext:
    """Everything one check run needs: a private netlist, a deterministic
    RNG, a trial budget, and comparison/recording helpers."""

    def __init__(
        self,
        check: Check,
        circuit: str,
        seed: int,
        trials: int,
        gen_seed: int,
        outcome: CheckOutcome,
    ):
        self.check = check
        self.circuit = circuit
        self.seed = seed
        self.trials = trials
        self.gen_seed = gen_seed
        self.rng = random.Random(
            derive_seed("check", check.name, circuit, seed)
        )
        self.outcome = outcome

    def netlist(self):
        """A fresh private copy of the circuit under check (mutate freely)."""
        from ..sweep.trial import load_circuit

        loaded = load_circuit(self.circuit, self.gen_seed)
        return loaded.copy(loaded.name)

    # -- recording -----------------------------------------------------
    def diverge(self, fact: str, message: str, **details: Any) -> None:
        self.outcome.divergences.append(
            Divergence(
                check=self.check.name,
                circuit=self.circuit,
                seed=self.seed,
                fact=fact,
                message=message,
                details=details,
            )
        )

    def compare(self, fact: str, left: Any, right: Any, **details: Any) -> bool:
        """Record one comparison; on mismatch, record a divergence."""
        self.outcome.comparisons += 1
        if left == right:
            return True
        self.diverge(
            fact,
            f"{fact}: the two computations disagree",
            left=repr(left)[:2000],
            right=repr(right)[:2000],
            **details,
        )
        return False

    def require(self, fact: str, condition: bool, message: str, **details: Any) -> bool:
        """A one-sided invariant (e.g. 'counterexample must reproduce')."""
        self.outcome.comparisons += 1
        if condition:
            return True
        self.diverge(fact, message, **details)
        return False


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
ProgressFn = Callable[[CheckOutcome], None]


def run_checks(
    checks: Optional[Sequence[Check]] = None,
    circuits: Sequence[str] = MINI_SUITE,
    seeds: Sequence[int] = (0,),
    trials: int = 25,
    gen_seed: int = 2016,
    progress: Optional[ProgressFn] = None,
) -> CheckReport:
    """Run *checks* over the (circuit × seed) grid and collect a report.

    A check that raises is recorded as a failed outcome (with the
    traceback), never as a pass — a crashed check proves nothing.
    """
    if checks is None:
        checks = all_checks()
    if not checks:
        raise CheckError("no checks to run")
    if not circuits:
        raise CheckError("no circuits to run checks on")
    clock = Stopwatch()
    report = CheckReport()
    with span(
        "check.run", checks=len(checks), circuits=len(circuits)
    ) as run_span:
        for check in checks:
            for circuit in circuits:
                for seed in seeds:
                    rounds = check.rounds(trials)
                    outcome = CheckOutcome(
                        check=check.name,
                        family=check.family,
                        circuit=circuit,
                        seed=seed,
                        trials=rounds,
                    )
                    context = CheckContext(
                        check=check,
                        circuit=circuit,
                        seed=seed,
                        trials=rounds,
                        gen_seed=gen_seed,
                        outcome=outcome,
                    )
                    cell_clock = Stopwatch()
                    with span(
                        "check.cell",
                        check=check.name,
                        circuit=circuit,
                        seed=seed,
                    ) as cell_span:
                        try:
                            check.fn(context)
                        except Exception:  # noqa: BLE001 - recorded as data
                            outcome.error = traceback.format_exc(limit=8)
                        cell_span.set(
                            passed=outcome.ok,
                            divergences=len(outcome.divergences),
                        )
                    outcome.seconds = cell_clock.elapsed()
                    report.outcomes.append(outcome)
                    if progress is not None:
                        progress(outcome)
        run_span.set(
            passed=sum(1 for o in report.outcomes if o.ok),
            failed=sum(1 for o in report.outcomes if not o.ok),
        )
    report.wall_seconds = clock.elapsed()
    return report

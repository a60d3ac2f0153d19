"""Declarative Monte Carlo sweep specifications.

Every evaluation artifact in the paper (Table I/II, Fig. 3, the variance
and ablation studies) is the same experiment shape: a grid of

    circuits × selection algorithms (+ params) × seeds × attacks × analyses

where each cell is an independent *trial*.  :class:`SweepSpec` is the
declarative form of that grid; :meth:`SweepSpec.trials` expands it into a
deterministic, ordered list of :class:`Trial` records that the runner
executes (inline or on lease workers) and the result cache
addresses by content.

Determinism contract
--------------------
A trial depends only on its own fields, never on its position in the grid
or on which worker executes it:

* the **selection seed** is the grid seed itself (the algorithms already
  derive their RNG stream from ``(seed, algorithm, circuit)``);
* the **attack seed** is :func:`derive_seed` of the trial identity, so two
  trials that differ in any coordinate draw independent streams while the
  same trial always replays the same one.

This is what makes a parallel sweep bit-identical to a serial one, and a
resumed sweep bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Analyses a trial can record (in addition to the selection itself).
KNOWN_ANALYSES = ("ppa", "security")

#: Attack grid values; ``"none"`` runs selection + analyses only.
KNOWN_ATTACKS = ("none", "testing", "brute", "sat", "ml")


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for identities and cache keys."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def derive_seed(*parts: Any) -> int:
    """A stable 63-bit seed derived from arbitrary JSON-able *parts*.

    Independent of ``PYTHONHASHSEED``, the process, and the platform —
    sha256 of the canonical JSON of the parts.
    """
    digest = hashlib.sha256(canonical_json(list(parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Trial:
    """One independent cell of the sweep grid."""

    circuit: str  # benchmark name or path to a .bench file
    algorithm: str  # key into repro.locking.ALGORITHMS
    seed: int  # selection seed (the grid seed)
    attack: str = "none"
    analyses: Tuple[str, ...] = ("ppa", "security")
    params: Tuple[Tuple[str, Any], ...] = ()  # algorithm kwargs, sorted
    attack_params: Tuple[Tuple[str, Any], ...] = ()  # attack kwargs, sorted
    gen_seed: int = 2016  # synthetic-benchmark generator seed

    def identity(self) -> Dict[str, Any]:
        """The trial's JSON identity — everything that determines its
        result except the netlist content (which the cache hashes in
        separately, so editing a ``.bench`` file invalidates its rows)."""
        return {
            "circuit": self.circuit,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "attack": self.attack,
            "analyses": list(self.analyses),
            "params": {k: v for k, v in self.params},
            "attack_params": {k: v for k, v in self.attack_params},
            "gen_seed": self.gen_seed,
        }

    @classmethod
    def from_identity(cls, identity: Mapping[str, Any]) -> "Trial":
        """Rebuild a trial from its :meth:`identity` JSON — the inverse
        used by work-stealing workers reading a job manifest.  Round-trip
        exact: ``Trial.from_identity(t.identity()) == t``."""
        return cls(
            circuit=identity["circuit"],
            algorithm=identity["algorithm"],
            seed=identity["seed"],
            attack=identity.get("attack", "none"),
            analyses=tuple(identity.get("analyses", ("ppa", "security"))),
            params=_sorted_items(identity.get("params", {})),
            attack_params=_sorted_items(identity.get("attack_params", {})),
            gen_seed=identity.get("gen_seed", 2016),
        )

    @property
    def attack_seed(self) -> int:
        """Deterministic per-trial RNG seed for the attack stage."""
        return derive_seed("attack", self.identity())

    def label(self) -> str:
        tail = "" if self.attack == "none" else f"/{self.attack}"
        return f"{self.circuit}/{self.algorithm}/s{self.seed}{tail}"


def _sorted_items(mapping: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(mapping.items()))


@dataclass
class SweepSpec:
    """A declarative experiment grid.

    ``algorithm_params`` / ``attack_params`` map an algorithm / attack name
    to extra keyword arguments for every trial using it (e.g.
    ``{"sat": {"max_iterations": 64}}``).
    """

    circuits: Sequence[str]
    algorithms: Sequence[str] = ("independent", "dependent", "parametric")
    seeds: Sequence[int] = (0,)
    attacks: Sequence[str] = ("none",)
    analyses: Sequence[str] = ("ppa", "security")
    algorithm_params: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict
    )
    attack_params: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict
    )
    gen_seed: int = 2016

    def __post_init__(self) -> None:
        for analysis in self.analyses:
            if analysis not in KNOWN_ANALYSES:
                raise ValueError(
                    f"unknown analysis {analysis!r}; "
                    f"choose from {KNOWN_ANALYSES}"
                )
        for attack in self.attacks:
            if attack not in KNOWN_ATTACKS:
                raise ValueError(
                    f"unknown attack {attack!r}; choose from {KNOWN_ATTACKS}"
                )

    def trials(self) -> List[Trial]:
        """Expand the grid in deterministic row order:
        circuit → algorithm → attack → seed."""
        out: List[Trial] = []
        analyses = tuple(self.analyses)
        for circuit in self.circuits:
            for algorithm in self.algorithms:
                params = _sorted_items(self.algorithm_params.get(algorithm, {}))
                for attack in self.attacks:
                    attack_params = _sorted_items(
                        self.attack_params.get(attack, {})
                    )
                    for seed in self.seeds:
                        out.append(
                            Trial(
                                circuit=circuit,
                                algorithm=algorithm,
                                seed=seed,
                                attack=attack,
                                analyses=analyses,
                                params=params,
                                attack_params=attack_params,
                                gen_seed=self.gen_seed,
                            )
                        )
        return out

    # ------------------------------------------------------------------
    # serialisation (spec files for the CLI; round-trips through JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuits": list(self.circuits),
            "algorithms": list(self.algorithms),
            "seeds": list(self.seeds),
            "attacks": list(self.attacks),
            "analyses": list(self.analyses),
            "algorithm_params": {
                k: dict(v) for k, v in self.algorithm_params.items()
            },
            "attack_params": {
                k: dict(v) for k, v in self.attack_params.items()
            },
            "gen_seed": self.gen_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        known = {
            "circuits",
            "algorithms",
            "seeds",
            "attacks",
            "analyses",
            "algorithm_params",
            "attack_params",
            "gen_seed",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SweepSpec fields: {sorted(unknown)}")
        if "circuits" not in data:
            raise ValueError("SweepSpec requires 'circuits'")
        kwargs = {k: data[k] for k in known & set(data)}
        return cls(**kwargs)

"""Oracle-guided SAT attack (the de-camouflaging adversary, paper ref [11]).

The strongest known adaptive attack on logic locking/camouflaging
(Subramanyan-style, and the formulation behind "IC decamouflaging: reverse
engineering camouflaged ICs within minutes"): encode two copies of the
locked circuit with *independent* key variables but *shared* inputs, assert
that their outputs differ, and ask a SAT solver for a **distinguishing
input** (DI) — a pattern on which two still-plausible keys disagree.  Query
the oracle on the DI and constrain both key hypotheses to reproduce the
observed output.  When no DI exists, every key consistent with the
accumulated I/O constraints is functionally correct; extract one.

The LUT key space is exactly the paper's countermeasure surface: a k-input
STT LUT contributes 2^k key bits, and unlike camouflaged cells it is *not*
limited to a handful of candidate functions — which is why the iteration
count grows with the paper's measures (wide LUTs, decoys, dependent chains).

The attack assumes scan access (state controllable/observable), the threat
model the paper explicitly argues is closed by disabling scan; running it
here quantifies how much security that assumption is carrying.

Both SAT attacks share one refinement loop, :func:`refine_keys`.  This
attack gives it one free-state frame observed at the POs and D-pins, and
asks each DI as one scan query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..netlist.graph import startpoints
from ..netlist.netlist import Netlist
from ..obs import add_counter, span
from ..sat.cnf import Cnf
from ..sat.solver import Solver
from ..sat.tseitin import CircuitEncoder, gated_miter
from .oracle import (
    ConfiguredOracle,
    attribute_cost,
    bump_cost_counters,
    snapshot_cost,
    split_pattern,
)


@dataclass
class RefinementResult:
    """What :func:`refine_keys` reports for either SAT attack."""

    key: Optional[Dict[str, int]] = None  # lut name -> config
    iterations: int = 0
    oracle_queries: int = 0
    test_clocks: int = 0
    #: Total conflicts across the whole run — DI search *and* the final
    #: key extraction (one incremental solver serves both).
    solver_conflicts: int = 0
    gave_up: bool = False

    @property
    def success(self) -> bool:
        return self.key is not None


@dataclass
class SatAttackResult(RefinementResult):
    """Outcome of the oracle-guided SAT attack."""

    #: The recorded (pattern, response) exchanges, in DI order; lets
    #: differential checks replay extraction by enumeration.
    di_constraints: List[Tuple[Dict[str, int], Dict[str, int]]] = field(
        default_factory=list, repr=False
    )


def extract_canonical_key(
    solver: Solver,
    keys: Dict[Tuple[str, int], int],
    assumptions: Sequence[int] = (),
) -> Dict[str, int]:
    """Lexicographically-minimal key consistent with *solver*'s constraints.

    Greedy per-bit refinement under assumptions: walk the key bits in
    sorted ``(lut, row)`` order and pin each to 0 when some solution still
    allows it, else to 1.  Because the result depends only on the *set* of
    keys the formula admits (projected onto ``keys``), it equals the first
    consistent key of a brute-force enumeration over the same DI
    constraints — the contract the ``sat-incremental-extract`` and
    ``sat-sequential-extract`` checks enforce on tiny locks.

    Solves incrementally: every call reuses the solver's learned clauses,
    and each accepted bit shrinks the next solve's search space.
    """
    ordered = sorted(keys.items())
    base = list(assumptions)
    if not solver.solve(base):  # pragma: no cover - real oracles are consistent
        raise RuntimeError("oracle responses are inconsistent")
    model = solver.model()
    fixed: List[int] = []
    for _, var in ordered:
        if not model.get(var, False):
            # The current witness already has this bit at 0 — no solve
            # needed, 0 is achievable and lex-minimal.
            fixed.append(-var)
        elif solver.solve(base + fixed + [-var]):
            model = solver.model()
            fixed.append(-var)
        else:
            fixed.append(var)
    key: Dict[str, int] = {}
    for ((lut, row), _), lit in zip(ordered, fixed):
        key.setdefault(lut, 0)
        if lit > 0:
            key[lut] |= 1 << row
    return key


#: One copy's variables in one frame: ``({input net: var}, {observed: var})``.
Frame = Tuple[Dict[str, int], Dict[str, int]]
#: One oracle dialogue: per frame, the DI stimulus and the oracle's response.
Dialogue = Tuple[List[Dict[str, int]], List[Dict[str, int]]]


def refine_keys(
    tag: str,
    netlist: Netlist,
    oracle: ConfiguredOracle,
    result: RefinementResult,
    max_iterations: int,
    encode: Callable[..., List[Frame]],
    ask: Callable[[List[Dict[str, int]]], List[Dict[str, int]]],
    **attrs,
) -> List[Dialogue]:
    """The distinguishing-input (DI) refinement loop of both SAT attacks.

    ``encode(encoder, prefix, keys, inputs)`` adds one copy of the attack's
    frames, sharing the per-frame input variables *inputs* when given;
    ``ask(stimuli)`` sends a DI to the oracle.  Two copies with their own
    key variables share inputs under a miter gated on ``act``: each
    ``solve([act])`` yields a DI, and one fresh copy per key set is pinned
    to the dialogue.  When no DI remains, the key is extracted from the
    same solver with the miter relaxed (``[-act]``).  At most
    *max_iterations* DIs are asked; ``gave_up`` means a solve found one
    more, not that the cap was reached.  Fills *result*'s
    ``key``, ``iterations``, ``gave_up`` and bill, records the
    ``attack.<tag>`` span tree with its cost attribution, and returns the
    dialogues in DI order.
    """
    cost0 = snapshot_cost(oracle)
    with span(
        f"attack.{tag}", circuit=netlist.name, lut_count=len(netlist.luts), **attrs
    ) as attack_span:
        encoder = CircuitEncoder(Cnf())
        cnf = encoder.cnf
        keys_a: Dict[Tuple[str, int], int] = {}
        keys_b: Dict[Tuple[str, int], int] = {}
        frames_a = encode(encoder, "A.", keys_a, None)
        frames_b = encode(encoder, "B.", keys_b, [ins for ins, _ in frames_a])
        act = cnf.new_var(f"{tag}:act")
        pairs = [
            (seen_a[net], seen_b[net])
            for (_, seen_a), (_, seen_b) in zip(frames_a, frames_b)
            for net in seen_a
        ]
        gated_miter(cnf, pairs, act)
        solver = Solver()
        solver.add_cnf(cnf)
        dialogues: List[Dialogue] = []
        while True:
            with span(
                f"attack.{tag}.iteration", iteration=result.iterations + 1
            ) as iter_span:
                conflicts_before = solver.stats["conflicts"]
                found = solver.solve([act])
                # A DI past the cap is not asked; a run that used exactly
                # the cap still learns here that no DI remains.
                result.gave_up = found and result.iterations >= max_iterations
                if found and not result.gave_up:
                    result.iterations += 1
                    model = solver.model()
                    stimuli = [
                        {net: int(model.get(var, False)) for net, var in ins.items()}
                        for ins, _ in frames_a
                    ]
                    responses = ask(stimuli)
                    dialogues.append((stimuli, responses))
                    for keys in (keys_a, keys_b):
                        prefix = f"C{len(cnf.clauses)}."
                        frames = encode(encoder, prefix, keys, None)
                        for (ins, seen), applied, observed in zip(
                            frames, stimuli, responses
                        ):
                            for net, var in ins.items():
                                cnf.add_clause([var if applied[net] else -var])
                            for net, var in seen.items():
                                cnf.add_clause([var if observed[net] else -var])
                    solver.add_cnf(cnf)
                iter_span.set(
                    distinguishing_input=found,
                    solver_conflicts=solver.stats["conflicts"] - conflicts_before,
                )
            # On giving up, the bill and the conflicts below are still
            # reported, as on the solved path.
            if not found or result.gave_up:
                break
        if not result.gave_up:
            with span(
                f"attack.{tag}.extract", constraints=len(dialogues)
            ) as extract_span:
                conflicts_before = solver.stats["conflicts"]
                # With the miter relaxed, the formula's projection onto
                # keys_a is exactly the keys consistent with every dialogue.
                result.key = extract_canonical_key(solver, keys_a, [-act])
                extract_span.set(
                    solver_conflicts=solver.stats["conflicts"] - conflicts_before
                )
        result.oracle_queries = oracle.queries
        result.test_clocks = oracle.test_clocks
        result.solver_conflicts = solver.stats["conflicts"]
        deltas = attribute_cost(attack_span, oracle, cost0)
        attack_span.set(
            success=result.success,
            iterations=result.iterations,
            gave_up=result.gave_up,
            solver_conflicts=result.solver_conflicts,
        )
        bump_cost_counters(deltas)
        add_counter("sat.solver_conflicts", result.solver_conflicts)
    return dialogues


class SatAttack:
    """Iterative distinguishing-input refinement with a CDCL solver."""

    def __init__(
        self,
        foundry_netlist: Netlist,
        oracle: ConfiguredOracle,
        max_iterations: int = 256,
    ):
        if not oracle.scan:
            raise ValueError(
                "the SAT attack requires scan access; construct the oracle "
                "with scan=True (and see the module docstring for why)"
            )
        self.netlist = foundry_netlist
        self.oracle = oracle
        self.max_iterations = max_iterations

    def run(self) -> SatAttackResult:
        netlist = self.netlist
        # One free-state frame: every startpoint is an input, and the
        # observed nets are the POs then the D-pins (scan reads both).
        inputs, flip_flops = startpoints(netlist)
        starts = inputs + flip_flops
        points = list(dict.fromkeys(self.oracle.observation_points()))

        def encode(encoder, prefix, keys, shared):
            net_vars = encoder.encode(
                netlist, prefix, shared[0] if shared else None, key_vars=keys
            ).net_vars
            return [
                (
                    {sp: net_vars[sp] for sp in starts},
                    {point: net_vars[point] for point in points},
                )
            ]

        def ask(stimuli):
            observed = self.oracle.query(*split_pattern(netlist, stimuli[0]))
            return [{point: observed[point] for point in points}]

        result = SatAttackResult()
        dialogues = refine_keys(
            "sat", netlist, self.oracle, result, self.max_iterations, encode, ask
        )
        result.di_constraints = [
            (stimuli[0], responses[0]) for stimuli, responses in dialogues
        ]
        return result


def verify_key(
    foundry_netlist: Netlist,
    key: Dict[str, int],
    reference: Netlist,
) -> bool:
    """Program *key* into the foundry netlist and check combinational
    equivalence against the reference (the provisioned chip).

    The proof runs in an ``attack.sat.verify`` span whose
    ``solver_conflicts`` attribute is its share of the ``sat.conflicts``
    counter (a row's ``solver_conflicts`` covers the attack's solver only).
    """
    from ..sat.equivalence import EquivalenceSession

    candidate = foundry_netlist.copy(f"{foundry_netlist.name}_candidate")
    for name, config in key.items():
        candidate.node(name).lut_config = config
    for name in candidate.luts:
        if candidate.node(name).lut_config is None:
            return False
    with span("attack.sat.verify", circuit=reference.name) as verify_span:
        session = EquivalenceSession(candidate)
        equivalent = session.check(reference).equivalent
        verify_span.set(
            equivalent=equivalent,
            solver_conflicts=session.stats["conflicts"],
        )
    return equivalent

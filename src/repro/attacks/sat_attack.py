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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.netlist import Netlist
from ..obs import add_counter, span
from ..sat.cnf import Cnf
from ..sat.solver import Solver
from ..sat.tseitin import CircuitEncoder
from .oracle import (
    ConfiguredOracle,
    attribute_cost,
    bump_cost_counters,
    snapshot_cost,
)


@dataclass
class SatAttackResult:
    """Outcome of the oracle-guided SAT attack."""

    key: Optional[Dict[str, int]] = None  # lut name -> config
    iterations: int = 0
    oracle_queries: int = 0
    test_clocks: int = 0
    #: Total conflicts across the whole run — DI search *and* the final
    #: key extraction (one incremental solver serves both).
    solver_conflicts: int = 0
    gave_up: bool = False
    #: The recorded (pattern, response) exchanges, in DI order; lets
    #: differential checks replay extraction against a rebuilt formula.
    di_constraints: List[Tuple[Dict[str, int], Dict[str, int]]] = field(
        default_factory=list, repr=False
    )

    @property
    def success(self) -> bool:
        return self.key is not None


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
    constraints — the contract the ``sat-incremental-extract`` check
    enforces on tiny locks.

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
        result = SatAttackResult()
        cost0 = snapshot_cost(self.oracle)
        with span(
            "attack.sat",
            circuit=self.netlist.name,
            lut_count=len(self.netlist.luts),
        ) as attack_span:
            outcome = self._run_inner(result)
            deltas = attribute_cost(attack_span, self.oracle, cost0)
            attack_span.set(
                success=outcome.success,
                iterations=outcome.iterations,
                gave_up=outcome.gave_up,
                solver_conflicts=outcome.solver_conflicts,
            )
            bump_cost_counters(deltas)
            add_counter("sat.solver_conflicts", outcome.solver_conflicts)
        return outcome

    def _run_inner(self, result: SatAttackResult) -> SatAttackResult:
        startpoints = list(self.netlist.inputs) + list(self.netlist.flip_flops)
        observation = self._observation_pairs()

        encoder = CircuitEncoder(Cnf())
        # Two *independent* key hypotheses over shared inputs: a satisfying
        # assignment is a distinguishing input — a pattern on which two
        # still-plausible configurations disagree.
        keys_a: Dict[Tuple[str, int], int] = {}
        keys_b: Dict[Tuple[str, int], int] = {}
        enc_a = encoder.encode(self.netlist, prefix="A.", key_vars=keys_a)
        shared_inputs = {name: enc_a.net_vars[name] for name in startpoints}
        enc_b = encoder.encode(
            self.netlist,
            prefix="B.",
            input_vars=shared_inputs,
            key_vars=keys_b,
        )
        cnf = encoder.cnf
        # Miter: at least one observation point differs between the copies.
        # The clause is gated on an activation literal so the *same* solver
        # serves both phases: solve([act]) searches for a distinguishing
        # input, solve([-act, ...]) extracts the key with the difference
        # requirement relaxed — no rebuild, all learned clauses retained.
        act = cnf.new_var("sat_attack:act")
        diff_lits: List[int] = []
        for point in observation:
            a_var, b_var = enc_a.net_vars[point], enc_b.net_vars[point]
            d = cnf.new_var()
            cnf.add_clause([-d, a_var, b_var])
            cnf.add_clause([-d, -a_var, -b_var])
            cnf.add_clause([d, -a_var, b_var])
            cnf.add_clause([d, a_var, -b_var])
            diff_lits.append(d)
        cnf.add_clause(diff_lits + [-act])

        solver = Solver()
        solver.add_cnf(cnf)
        self._clause_cursor = len(cnf.clauses)
        di_constraints = result.di_constraints

        inputs, flip_flops = self.netlist.inputs, self.netlist.flip_flops
        while result.iterations < self.max_iterations:
            with span(
                "attack.sat.iteration", iteration=result.iterations + 1
            ) as iter_span:
                conflicts_before = solver.stats["conflicts"]
                if not solver.solve([act]):
                    iter_span.set(
                        distinguishing_input=False,
                        solver_conflicts=solver.stats["conflicts"]
                        - conflicts_before,
                    )
                    break  # no distinguishing input remains
                result.iterations += 1
                model = solver.model()
                pattern = {
                    name: int(model.get(var, False))
                    for name, var in shared_inputs.items()
                }
                pis = {pi: pattern.get(pi, 0) for pi in inputs}
                state = {ff: pattern.get(ff, 0) for ff in flip_flops}
                observed = self.oracle.query(pis, state)
                response = {point: observed[point] for point in observation}
                di_constraints.append((pattern, response))
                # Pin each key hypothesis to the oracle's response on this DI
                # via one fresh functional copy per key set.
                self._add_io_constraint(
                    solver, encoder, keys_a, pattern, response
                )
                self._add_io_constraint(
                    solver, encoder, keys_b, pattern, response
                )
                iter_span.set(
                    distinguishing_input=True,
                    solver_conflicts=solver.stats["conflicts"]
                    - conflicts_before,
                )
        else:
            # Iteration cap hit with distinguishing inputs still open: the
            # solver's work so far must be reported, same as the solved path
            # (sweep rows would otherwise show 0 conflicts for capped runs).
            result.gave_up = True
            result.oracle_queries = self.oracle.queries
            result.test_clocks = self.oracle.test_clocks
            result.solver_conflicts = solver.stats["conflicts"]
            return result

        with span(
            "attack.sat.extract", constraints=len(di_constraints)
        ) as extract_span:
            conflicts_before = solver.stats["conflicts"]
            # Extraction reuses the live solver: with the miter relaxed
            # ([-act]), the formula's projection onto keys_a is exactly the
            # keys consistent with every recorded DI.
            result.key = extract_canonical_key(solver, keys_a, [-act])
            extract_span.set(
                solver_conflicts=solver.stats["conflicts"] - conflicts_before
            )
        result.oracle_queries = self.oracle.queries
        result.test_clocks = self.oracle.test_clocks
        result.solver_conflicts = solver.stats["conflicts"]
        return result

    # ------------------------------------------------------------------
    def _observation_pairs(self) -> List[str]:
        points: List[str] = []
        seen = set()
        for po in self.netlist.outputs:
            if po not in seen:
                points.append(po)
                seen.add(po)
        for ff in self.netlist.flip_flops:
            d_pin = self.netlist.node(ff).fanin[0]
            if d_pin not in seen:
                points.append(d_pin)
                seen.add(d_pin)
        return points

    def _add_io_constraint(
        self,
        solver: Solver,
        encoder: CircuitEncoder,
        shared_keys: Dict[Tuple[str, int], int],
        pattern: Dict[str, int],
        response: Dict[str, int],
    ) -> None:
        """Encode a fresh functional copy constrained to (pattern, response),
        with the same shared key variables."""
        copy_enc = encoder.encode(
            self.netlist,
            prefix=f"C{len(encoder.cnf.clauses)}.",
            key_vars=shared_keys,
        )
        for clause in encoder.cnf.clauses[self._clause_cursor:]:
            solver.add_clause(clause)
        self._clause_cursor = len(encoder.cnf.clauses)
        for name, value in pattern.items():
            var = copy_enc.net_vars[name]
            solver.add_clause([var if value else -var])
        for point, value in response.items():
            var = copy_enc.net_vars[point]
            solver.add_clause([var if value else -var])


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

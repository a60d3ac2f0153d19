"""Sequential (unrolled) SAT attack — the scan-disabled adversary.

The combinational SAT attack (:mod:`repro.attacks.sat_attack`) needs scan
access; the paper's flow disables scan exactly to force the attacker into
*this* position: state is reachable only through reset + input sequences,
and only the primary outputs are observable.

The standard response is bounded model unrolling: replicate the
combinational logic for k cycles, chain the state (cycle 0 starts from the
all-zero reset state), share the LUT key variables across all cycles and
between the two miter halves, and search for a **distinguishing input
sequence** (DIS).  Each oracle dialogue costs k clocks; the key constraints
accumulate one unrolled copy per DIS.

On the same design, this adversary needs deeper formulas, more iterations,
and k clocks per query — a concrete measurement of what disabling scan
buys (compare ``SatAttack`` vs ``SequentialSatAttack`` on a locked s27 in
``benchmarks/test_attack_resilience.py``).  And when the locked state space
is not exhausted within the unroll bound, the recovered key is only
*k-cycle equivalent*: the attack reports that honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..netlist.netlist import Netlist
from ..obs import span
from ..sat.cnf import Cnf
from ..sat.solver import Solver
from ..sat.tseitin import CircuitEncoder
from .oracle import ConfiguredOracle
from .sat_attack import extract_canonical_key


@dataclass
class SequentialSatResult:
    """Outcome of the unrolled SAT attack."""

    key: Optional[Dict[str, int]] = None
    iterations: int = 0
    unroll_depth: int = 0
    oracle_queries: int = 0
    test_clocks: int = 0
    #: Total conflicts across DIS search and key extraction.
    solver_conflicts: int = 0
    gave_up: bool = False
    bounded_only: bool = False  # key proven equivalent only up to the bound

    @property
    def success(self) -> bool:
        return self.key is not None


class SequentialSatAttack:
    """Distinguishing-input-sequence refinement over a k-cycle unrolling."""

    def __init__(
        self,
        foundry_netlist: Netlist,
        oracle: ConfiguredOracle,
        unroll_depth: int = 4,
        max_iterations: int = 128,
    ):
        if unroll_depth < 1:
            raise ValueError("unroll_depth must be at least 1")
        self.netlist = foundry_netlist
        self.oracle = oracle
        self.unroll_depth = unroll_depth
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    def _unroll(
        self,
        encoder: CircuitEncoder,
        prefix: str,
        keys: Dict[Tuple[str, int], int],
        input_vars: Optional[List[Dict[str, int]]] = None,
    ) -> "tuple[List[Dict[str, int]], List[Dict[str, int]]]":
        """Encode k copies chained through the flip-flops.

        Returns ``(per_cycle_inputs, per_cycle_outputs)`` variable maps.
        Cycle 0 state is constrained to the reset value (all zero); cycle
        t > 0 state variables are *equated* to cycle t-1's D-pin variables.
        """
        cnf = encoder.cnf
        per_inputs: List[Dict[str, int]] = []
        per_outputs: List[Dict[str, int]] = []
        previous_enc = None
        inputs, outputs = self.netlist.inputs, self.netlist.outputs
        flip_flops = self.netlist.flip_flops
        d_pins = [self.netlist.node(ff).fanin[0] for ff in flip_flops]
        for cycle in range(self.unroll_depth):
            shared: Dict[str, int] = {}
            if input_vars is not None:
                shared.update(input_vars[cycle])
            enc = encoder.encode(
                self.netlist,
                prefix=f"{prefix}t{cycle}.",
                input_vars=shared,
                key_vars=keys,
            )
            if cycle == 0:
                for ff in flip_flops:
                    cnf.add_clause([-enc.net_vars[ff]])  # reset state = 0
            else:
                for ff, d_pin in zip(flip_flops, d_pins):
                    d_prev = previous_enc.net_vars[d_pin]
                    q_now = enc.net_vars[ff]
                    cnf.add_clause([-d_prev, q_now])
                    cnf.add_clause([d_prev, -q_now])
            per_inputs.append({pi: enc.net_vars[pi] for pi in inputs})
            per_outputs.append({po: enc.net_vars[po] for po in outputs})
            previous_enc = enc
        return per_inputs, per_outputs

    def run(self) -> SequentialSatResult:
        result = SequentialSatResult(unroll_depth=self.unroll_depth)
        if not [
            l
            for l in self.netlist.luts
            if self.netlist.node(l).lut_config is None
        ]:
            result.key = {}
            return result

        encoder = CircuitEncoder(Cnf())
        keys_a: Dict[Tuple[str, int], int] = {}
        keys_b: Dict[Tuple[str, int], int] = {}
        inputs_a, outputs_a = self._unroll(encoder, "A", keys_a)
        # Copy B shares the input-sequence variables with copy A.
        inputs_b, outputs_b = self._unroll(
            encoder, "B", keys_b, input_vars=inputs_a
        )
        cnf = encoder.cnf
        # The DIS miter clause is gated on an activation literal, exactly
        # like the combinational attack: solve([act]) hunts distinguishing
        # sequences, solve([-act, ...]) extracts the key from the same
        # solver with every dialogue constraint and learned clause intact.
        act = cnf.new_var("seqsat:act")
        diff_lits: List[int] = []
        for cycle in range(self.unroll_depth):
            for po in self.netlist.outputs:
                a_var = outputs_a[cycle][po]
                b_var = outputs_b[cycle][po]
                d = cnf.new_var()
                cnf.add_clause([-d, a_var, b_var])
                cnf.add_clause([-d, -a_var, -b_var])
                cnf.add_clause([d, -a_var, b_var])
                cnf.add_clause([d, a_var, -b_var])
                diff_lits.append(d)
        cnf.add_clause(diff_lits + [-act])

        solver = Solver()
        solver.add_cnf(cnf)
        cursor = len(cnf.clauses)
        dialogues: List[Tuple[List[Dict[str, int]], List[Dict[str, int]]]] = []

        while result.iterations < self.max_iterations:
            if not solver.solve([act]):
                break
            result.iterations += 1
            model = solver.model()
            sequence = [
                {
                    pi: int(model.get(var, False))
                    for pi, var in inputs_a[cycle].items()
                }
                for cycle in range(self.unroll_depth)
            ]
            responses = self.oracle.run_sequence(sequence)
            dialogues.append((sequence, responses))
            # Constrain each key hypothesis with a fresh unrolled copy
            # pinned to the observed dialogue.
            for half, keys in (("a", keys_a), ("b", keys_b)):
                c_inputs, c_outputs = self._unroll(
                    encoder, f"C{result.iterations}{half}", keys
                )
                for clause in cnf.clauses[cursor:]:
                    solver.add_clause(clause)
                cursor = len(cnf.clauses)
                self._pin_dialogue(
                    solver, c_inputs, c_outputs, sequence, responses
                )
        else:
            result.gave_up = True
            result.oracle_queries = self.oracle.queries
            result.test_clocks = self.oracle.test_clocks
            result.solver_conflicts = solver.stats["conflicts"]
            return result

        with span(
            "attack.seqsat.extract", constraints=len(dialogues)
        ) as extract_span:
            conflicts_before = solver.stats["conflicts"]
            result.key = extract_canonical_key(solver, keys_a, [-act])
            extract_span.set(
                solver_conflicts=solver.stats["conflicts"] - conflicts_before
            )
        result.bounded_only = True
        result.oracle_queries = self.oracle.queries
        result.test_clocks = self.oracle.test_clocks
        result.solver_conflicts = solver.stats["conflicts"]
        return result

    # ------------------------------------------------------------------
    def _pin_dialogue(
        self,
        solver: Solver,
        c_inputs: List[Dict[str, int]],
        c_outputs: List[Dict[str, int]],
        sequence: List[Dict[str, int]],
        responses: List[Dict[str, int]],
    ) -> None:
        for cycle, (stimulus, response) in enumerate(zip(sequence, responses)):
            for pi, value in stimulus.items():
                var = c_inputs[cycle][pi]
                solver.add_clause([var if value else -var])
            for po in self.netlist.outputs:
                var = c_outputs[cycle][po]
                solver.add_clause([var if response[po] else -var])

    # Key extraction happens on the live solver (extract_canonical_key with
    # the miter relaxed); nothing is rebuilt after the last DI round.

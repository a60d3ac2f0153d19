"""Miter-based combinational equivalence checking.

Two netlists are combinationally equivalent when, for every assignment of
primary inputs *and* flip-flop outputs (present state), every primary output
and every flip-flop input (next state) agree.  For structurally-preserving
transformations like LUT replacement this implies full sequential
equivalence, so it is the proof obligation our locking flow discharges after
programming the LUTs.

Two entry points:

* :func:`check_equivalence` — one-shot proof of a single pair;
* :class:`EquivalenceSession` — one *reference* netlist proved against many
  candidates on a single incremental solver.  The reference cone is encoded
  once; each candidate gets its own functional copy and an
  activation-literal-gated miter, so conflict clauses learned about the
  shared reference cone carry over from candidate to candidate.  This is
  the shape every key-verification loop has (brute-force survivor
  interchangeability, dataflow don't-care proofs, post-attack
  ``verify_key``): same reference, stream of candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..netlist.graph import d_pins
from ..netlist.netlist import Netlist, NetlistError
from .cnf import Cnf
from .solver import Solver
from .tseitin import CircuitEncoder, gated_miter


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    counterexample: Optional[Dict[str, int]] = None
    compared_points: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


class EquivalenceSession:
    """Prove one reference netlist equivalent (or not) to many candidates.

    The reference is Tseitin-encoded once; every :meth:`check` call encodes
    only the candidate, shares the reference's startpoint variables, and
    gates the candidate's miter clause on a fresh activation literal.  One
    ``solve([act])`` decides the pair; the activation literal is then
    permanently retired (``[-act]``) so the next candidate starts from a
    satisfiable formula while keeping every clause the solver learned about
    the shared reference cone.

    All LUTs of both sides must be programmed (an unprogrammed LUT has no
    function to compare), and each candidate must expose the reference's
    primary inputs, primary outputs, and flip-flop names.
    """

    def __init__(self, reference: Netlist):
        self._reference = reference
        self._encoder = CircuitEncoder(Cnf())
        self._ref_enc = self._encoder.encode(
            reference, prefix="L.", symbolic_luts=False
        )
        self._shared = {
            name: self._ref_enc.net_vars[name]
            for name in list(reference.inputs) + list(reference.flip_flops)
        }
        self._solver = Solver()
        self._solver.add_cnf(self._encoder.cnf)
        self._count = 0

    @property
    def reference(self) -> Netlist:
        return self._reference

    @property
    def checks_run(self) -> int:
        return self._count

    @property
    def stats(self) -> Dict[str, int]:
        """The underlying solver's statistics (shared across all checks)."""
        return dict(self._solver.stats)

    def check(self, candidate: Netlist) -> EquivalenceResult:
        reference = self._reference
        if set(reference.inputs) != set(candidate.inputs):
            raise NetlistError("designs differ in primary inputs")
        if set(reference.outputs) != set(candidate.outputs):
            raise NetlistError("designs differ in primary outputs")
        if set(reference.flip_flops) != set(candidate.flip_flops):
            raise NetlistError("designs differ in flip-flops")

        self._count += 1
        cnf = self._encoder.cnf
        act = cnf.new_var(f"equiv:act{self._count}")
        cand_enc = self._encoder.encode(
            candidate,
            prefix=f"R{self._count}.",
            input_vars=self._shared,
            symbolic_luts=False,
        )
        # Compare by role: POs by name; next-state by flip-flop name (the
        # D-pin net may be named differently after retiming-style edits).
        ref_vars, cand_vars = self._ref_enc.net_vars, cand_enc.net_vars
        pairs = [(ref_vars[po], cand_vars[po]) for po in reference.outputs]
        pairs += [
            (ref_vars[l_pin], cand_vars[candidate.node(ff).fanin[0]])
            for ff, l_pin in zip(reference.flip_flops, d_pins(reference))
        ]
        gated_miter(cnf, pairs, act)
        self._solver.add_cnf(cnf)

        equivalent = not self._solver.solve([act])
        counterexample: Optional[Dict[str, int]] = None
        if not equivalent:
            model = self._solver.model()
            counterexample = {
                name: int(model.get(var, False))
                for name, var in self._shared.items()
            }
        # Retire this candidate's miter for good; learned clauses about the
        # shared reference cone stay usable by the next check.
        self._solver.add_clause([-act])
        return EquivalenceResult(
            equivalent=equivalent,
            counterexample=counterexample,
            compared_points=len(pairs),
        )


def check_equivalence(left: Netlist, right: Netlist) -> EquivalenceResult:
    """Prove or refute combinational equivalence of two netlists.

    Both must expose the same primary inputs, primary outputs, and flip-flop
    names.  All LUTs must be programmed (an unprogrammed LUT has no function
    to compare).  Returns a counterexample assignment of startpoints on
    inequivalence.  ``compared_points`` is the number of miter pairs on both
    verdicts (POs + flip-flops).
    """
    return EquivalenceSession(left).check(right)


def assert_equivalent(left: Netlist, right: Netlist) -> None:
    """Raise :class:`NetlistError` when the designs are not equivalent."""
    result = check_equivalence(left, right)
    if not result.equivalent:
        raise NetlistError(
            f"designs {left.name!r} and {right.name!r} differ; "
            f"counterexample: {result.counterexample}"
        )

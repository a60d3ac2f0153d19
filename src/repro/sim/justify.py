"""Justification and propagation — the attacker's "testing technique".

Section IV-A.1 of the paper: *"an attacker can use a testing technique to
justify and propagate the output of missing gates to some observation
points"*.  This module provides that machinery:

* three-valued (0/1/X) forward implication,
* a PODEM-style backtracking search that **justifies** internal net values
  from primary inputs, and
* sensitization checks that decide whether a net's value **propagates** to an
  observable output under a pattern.

All functions operate on the combinational view: DFF outputs are treated as
controllable pseudo-inputs and DFF inputs as observable pseudo-outputs,
i.e. the attack's per-row cost is in *patterns*; converting patterns to test
clocks (multiplying by the sequential depth) is done by the caller, exactly
as Eq. 1/2 of the paper do.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.cache import memoized
from ..netlist.csr import csr_view
from ..netlist.gates import GateType
from ..netlist.graph import combinational_cone
from ..netlist.netlist import Netlist, NetlistError
from ..obs import add_counter

#: Three-valued logic: 0, 1, or None for unknown (X).
TriVal = Optional[int]


#: Input count -> (all-rows mask, per-pin masks of the rows whose bit for
#: that pin is 1).
_LUT_COLUMNS: Dict[int, Tuple[int, Tuple[int, ...]]] = {}


def _lut_columns(n: int) -> Tuple[int, Tuple[int, ...]]:
    columns = _LUT_COLUMNS.get(n)
    if columns is None:
        rows = range(1 << n)
        columns = (
            (1 << (1 << n)) - 1,
            tuple(
                sum(1 << row for row in rows if (row >> pin) & 1)
                for pin in range(n)
            ),
        )
        _LUT_COLUMNS[n] = columns
    return columns


def _eval_lut3(config: Optional[int], inputs: Sequence[TriVal]) -> TriVal:
    """A LUT's three-valued output: determined only if the truth-table
    rows every completion of the X inputs can select agree."""
    if config is None:
        return None  # unknown function: output is always X
    rows, columns = _lut_columns(len(inputs))
    for v, column in zip(inputs, columns):
        if v is not None:
            rows &= column if v else ~column
    selected = config & rows
    if not selected:
        return 0
    return 1 if selected == rows else None


def _eval3(gate_type: GateType, config: Optional[int], inputs: Sequence[TriVal]) -> TriVal:
    """Three-valued evaluation with controlling-value short-circuits."""
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    if gate_type in (GateType.BUF, GateType.DFF):
        return inputs[0]
    if gate_type is GateType.NOT:
        return None if inputs[0] is None else 1 - inputs[0]
    if gate_type in (GateType.AND, GateType.NAND):
        if any(v == 0 for v in inputs):
            value: TriVal = 0
        elif any(v is None for v in inputs):
            value = None
        else:
            value = 1
        if value is None or gate_type is GateType.AND:
            return value
        return 1 - value
    if gate_type in (GateType.OR, GateType.NOR):
        if any(v == 1 for v in inputs):
            value = 1
        elif any(v is None for v in inputs):
            value = None
        else:
            value = 0
        if value is None or gate_type is GateType.OR:
            return value
        return 1 - value
    if gate_type in (GateType.XOR, GateType.XNOR):
        if any(v is None for v in inputs):
            return None
        parity = 0
        for v in inputs:
            parity ^= v
        return parity if gate_type is GateType.XOR else 1 - parity
    if gate_type is GateType.LUT:
        return _eval_lut3(config, inputs)
    raise NetlistError(f"cannot 3-value evaluate {gate_type.value}")


#: Step kinds of an implication schedule.  AND/NAND/OR/NOR share one
#: controlling-value step, NOT and BUF read their single pin, a LUT step
#: calls :func:`_eval_lut3`, and every other combinational type
#: (XOR/XNOR/constants) goes through :func:`_eval3`.
_CONTROLLED, _NOT, _BUF, _LUT, _SPEC = range(5)

#: Gate type -> (controlling input, output when controlled, output when
#: every input is the non-controlling value).
_CONTROL = {
    GateType.AND: (0, 0, 1),
    GateType.NAND: (0, 1, 0),
    GateType.OR: (1, 1, 0),
    GateType.NOR: (1, 0, 1),
}


def _pin_reader(
    pins: Sequence[int],
) -> Callable[[List[TriVal]], Sequence[TriVal]]:
    """A callable returning the values of *pins*, as a tuple, from a flat
    value list."""
    if len(pins) >= 2:
        return itemgetter(*pins)
    if pins:
        pin = pins[0]
        return lambda values: (values[pin],)
    return lambda values: ()


class _Schedule:
    """The implication schedule of one netlist at one structure revision.

    Values live in a flat list indexed by CSR node id.  ``steps`` visits
    the combinational nodes in topological order; each step is
    ``(id, kind, pins, a, b, c)``.  A controlled step reads its fan-in
    through ``pins`` (a :func:`_pin_reader`) and carries its controlling
    value and both outputs in ``a, b, c``.  A NOT/BUF step's ``pins`` is
    its fan-in id.  LUT and :data:`_SPEC` steps keep their node in ``a``:
    a LUT's configuration is read when the step runs, since
    ``lut_config`` writes bump no revision.
    """

    __slots__ = (
        "names", "index", "startpoints", "sp_ids", "steps", "_view", "_cones"
    )

    def __init__(self, netlist: Netlist):
        view = csr_view(netlist)
        self._view = view
        self.names = view.names
        self.index = view.index
        self.startpoints = sorted(
            view.names[i]
            for i in range(view.n)
            if view.is_input[i] or view.is_seq[i]
        )
        self.sp_ids = [view.index[name] for name in self.startpoints]
        fi_ptr, fi_idx = view.fanin_ptr, view.fanin_idx
        steps = []
        for i in view.comb_order():
            node = netlist.node(view.names[i])
            pins = fi_idx[fi_ptr[i] : fi_ptr[i + 1]]
            control = _CONTROL.get(node.gate_type)
            if control is not None:
                steps.append((i, _CONTROLLED, _pin_reader(pins)) + control)
            elif node.gate_type is GateType.NOT:
                steps.append((i, _NOT, pins[0], None, None, None))
            elif node.gate_type is GateType.BUF:
                steps.append((i, _BUF, pins[0], None, None, None))
            elif node.gate_type is GateType.LUT:
                steps.append((i, _LUT, _pin_reader(pins), node, None, None))
            else:
                steps.append((i, _SPEC, _pin_reader(pins), node, None, None))
        self.steps = steps
        self._cones: Dict[int, list] = {}

    def cone_steps(self, startpoint: int) -> list:
        """The steps in the combinational fan-out cone of *startpoint*, in
        schedule order: the only nets assigning it can change."""
        steps = self._cones.get(startpoint)
        if steps is None:
            reach = self._view.forward_reach(
                [startpoint], enter_sequential=False
            )
            steps = [step for step in self.steps if reach[step[0]]]
            self._cones[startpoint] = steps
        return steps


def _schedule(netlist: Netlist) -> _Schedule:
    return memoized(netlist, "implication", _Schedule)


def _imply(values: List[TriVal], steps: Sequence[tuple]) -> None:
    """Evaluate *steps* in order over the flat value list, in place."""
    for i, kind, pins, a, b, c in steps:
        if kind == _CONTROLLED:
            ins = pins(values)
            values[i] = b if a in ins else (None if None in ins else c)
        elif kind == _NOT:
            v = values[pins]
            values[i] = None if v is None else 1 - v
        elif kind == _BUF:
            values[i] = values[pins]
        elif kind == _LUT:
            values[i] = _eval_lut3(a.lut_config, pins(values))
        else:
            values[i] = _eval3(a.gate_type, a.lut_config, pins(values))


class Implication:
    """Three-valued forward implication over the combinational view."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist

    @property
    def startpoints(self) -> List[str]:
        """Controllable nets: primary inputs and DFF outputs."""
        return list(_schedule(self.netlist).startpoints)

    def values(self, assignment: Mapping[str, TriVal]) -> List[TriVal]:
        """Every net's implied value, as a list indexed by CSR node id."""
        schedule = _schedule(self.netlist)
        values: List[TriVal] = [None] * len(schedule.names)
        for name, i in zip(schedule.startpoints, schedule.sp_ids):
            values[i] = assignment.get(name)
        _imply(values, schedule.steps)
        return values

    def run(self, assignment: Mapping[str, TriVal]) -> Dict[str, TriVal]:
        """Imply every net value from a (partial) startpoint assignment."""
        return dict(zip(_schedule(self.netlist).names, self.values(assignment)))


def justify(
    netlist: Netlist,
    objectives: Mapping[str, int],
    rng: Optional[random.Random] = None,
    max_backtracks: int = 10_000,
) -> Optional[Dict[str, int]]:
    """Find startpoint values that set every objective net to its target.

    PODEM-style search: repeatedly pick an unassigned startpoint in the
    objectives' input cone, try both values (order randomized by *rng*),
    imply, and backtrack when an objective becomes unreachable.  Returns a
    complete startpoint assignment (unconstrained startpoints filled with 0,
    or randomly when *rng* is given), or ``None`` if unjustifiable within the
    backtrack budget.

    Each decision re-implies only the fan-out cone of the startpoint it
    assigns: every other net keeps its value, since implication is a
    function of the assignment.
    """
    schedule = _schedule(netlist)
    cone = combinational_cone(netlist, list(objectives))
    candidates = [sp for sp in schedule.startpoints if sp in cone]
    index_of = schedule.index
    goals = [(index_of[net], target) for net, target in objectives.items()]
    assignment: Dict[str, TriVal] = {}
    backtracks = 0
    implications = 0

    def search(
        index: int, values: List[TriVal]
    ) -> Optional[Dict[str, TriVal]]:
        nonlocal backtracks, implications
        implications += 1
        if any(
            values[i] is not None and values[i] != target for i, target in goals
        ):
            backtracks += 1
            return None
        if all(values[i] == target for i, target in goals):
            return dict(assignment)
        if index >= len(candidates) or backtracks > max_backtracks:
            backtracks += 1
            return None
        name = candidates[index]
        sp = index_of[name]
        steps = schedule.cone_steps(sp)
        order = [0, 1]
        if rng is not None:
            rng.shuffle(order)
        for value in order:
            assignment[name] = value
            child = values[:]
            child[sp] = value
            _imply(child, steps)
            result = search(index + 1, child)
            if result is not None:
                return result
            del assignment[name]
            if backtracks > max_backtracks:
                break
        return None

    solution = search(0, Implication(netlist).values(assignment))
    add_counter("justify.implications", implications)
    add_counter("justify.backtracks", backtracks)
    if solution is None:
        return None
    complete: Dict[str, int] = {}
    for sp in schedule.startpoints:
        if sp in solution and solution[sp] is not None:
            complete[sp] = solution[sp]
        else:
            complete[sp] = rng.getrandbits(1) if rng is not None else 0
    return complete


def is_observable(
    netlist: Netlist,
    net: str,
    startpoint_values: Mapping[str, int],
    assumed: Optional[Mapping[str, int]] = None,
) -> bool:
    """True when flipping *net* under the given pattern flips an observation
    point (a primary output or a DFF D pin).

    *assumed* forces other nets (e.g. unknown LUT outputs pinned to a
    hypothesis value) so hybrid netlists with unprogrammed LUTs can still be
    analysed."""
    from .logicsim import CombinationalSimulator

    sim = CombinationalSimulator(netlist)
    pis = {pi: startpoint_values.get(pi, 0) for pi in netlist.inputs}
    state = {ff: startpoint_values.get(ff, 0) for ff in netlist.flip_flops}
    assumed = dict(assumed or {})
    low = sim.evaluate(pis, state, width=1, overrides={**assumed, net: 0})
    high = sim.evaluate(pis, state, width=1, overrides={**assumed, net: 1})
    observation_points = list(netlist.outputs) + [
        netlist.node(ff).fanin[0] for ff in netlist.flip_flops
    ]
    return any(low[p] != high[p] for p in observation_points)


def justify_and_propagate(
    netlist: Netlist,
    target: str,
    input_row: Mapping[str, int],
    rng: Optional[random.Random] = None,
    attempts: int = 64,
    assumed: Optional[Mapping[str, int]] = None,
) -> Optional[Dict[str, int]]:
    """One attacker test: justify *target*'s fan-in nets to *input_row* while
    making *target* observable.

    Returns the startpoint pattern achieving both, or ``None``.  Each call
    corresponds to developing one truth-table row of a missing gate
    (Section IV-A.1).  *assumed* is forwarded to :func:`is_observable` for
    hybrid netlists whose other LUTs are still unknown.
    """
    rng = rng or random.Random(0)
    for _ in range(attempts):
        pattern = justify(netlist, dict(input_row), rng=rng)
        if pattern is None:
            return None
        if is_observable(netlist, target, pattern, assumed=assumed):
            return pattern
    return None


def random_observable_pattern(
    netlist: Netlist,
    net: str,
    rng: random.Random,
    tries: int = 256,
) -> Optional[Dict[str, int]]:
    """Random-search fallback: a pattern under which *net* is observable."""
    startpoints = list(netlist.inputs) + list(netlist.flip_flops)
    for _ in range(tries):
        pattern = {sp: rng.getrandbits(1) for sp in startpoints}
        if is_observable(netlist, net, pattern):
            return pattern
    return None

"""Compiled-kernel vs reference-simulation differential checks.

The compiled kernels (:mod:`repro.sim.compiled`) promise bit-identical
results to :func:`~repro.sim.logicsim.reference_evaluate`, the per-gate
walk, under every usage pattern the attacks exercise: programmed and
unprogrammed LUTs, decoy-widened LUTs, override
dictionaries, mid-stream ``lut_config`` rewrites (which bump no revision,
so a program memoized before the rewrite must read the new configs),
views of equal wiring and different gate types in one process (whose
compiled code must not be shared), and multi-cycle sequential stepping.
These checks drive both with identical randomized stimulus and compare
the full output dictionaries.
"""

from __future__ import annotations

import random
from typing import List

from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..netlist.transform import replace_gates_with_luts, widen_lut_with_decoys
from ..sim.logicsim import CombinationalSimulator, reference_evaluate
from ..sim.seqsim import SequentialSimulator
from .core import CheckContext, register

_WIDTHS = (1, 7, 32, 64)


def _lockable(netlist: Netlist) -> List[str]:
    return [
        name
        for name in netlist.gates
        if netlist.node(name).is_combinational
        and not netlist.node(name).is_lut
        and netlist.node(name).n_inputs >= 1
    ]


def _lock_some(netlist: Netlist, rng: random.Random, n: int = 4) -> List[str]:
    """Replace up to *n* random gates with programmed LUTs; maybe widen."""
    candidates = _lockable(netlist)
    picked = rng.sample(candidates, min(n, len(candidates)))
    replace_gates_with_luts(netlist, picked, program=True)
    luts = sorted(netlist.luts)
    for lut in luts:
        if rng.random() < 0.3 and netlist.node(lut).n_inputs <= 5:
            widen_lut_with_decoys(netlist, lut, 1, rng)
    return sorted(netlist.luts)


def _random_stimulus(netlist: Netlist, rng: random.Random, width: int):
    inputs = {pi: rng.getrandbits(width) for pi in netlist.inputs}
    state = {ff: rng.getrandbits(width) for ff in netlist.flip_flops}
    return inputs, state


@register(
    name="sim-backend-parity",
    family="sim",
    description="compiled vs reference combinational outputs on random "
    "vectors, programmed/widened LUTs, mid-stream config rewrites read by "
    "the memoized program, and a twin of equal wiring and other gate "
    "types simulated in the same process",
)
def sim_backend_parity(ctx: CheckContext) -> None:
    netlist = ctx.netlist()
    rng = ctx.rng
    luts = _lock_some(netlist, rng)
    # Equal wiring, other gate types: the compiled code of the two must
    # not be shared.  The twin is simulated first, so a kernel shared by
    # wiring alone would hand the hybrid the twin's XORs.
    twin = netlist.copy(f"{netlist.name}_twin")
    for lut in luts:
        twin.set_gate_type(lut, GateType.XOR)
    views = [(view, CombinationalSimulator(view)) for view in (twin, netlist)]
    for trial in range(ctx.trials):
        if luts and trial % 4 == 3:
            # Rewrite a configuration between evaluations: the memoized
            # program must read it at call time.
            node = netlist.node(rng.choice(luts))
            node.lut_config = rng.getrandbits(1 << node.n_inputs)
        width = rng.choice(_WIDTHS)
        inputs, state = _random_stimulus(netlist, rng, width)
        for view, compiled in views:
            expected = reference_evaluate(view, inputs, state, width)
            actual = compiled.evaluate(inputs, state, width)
            ctx.compare(
                "combinational outputs (compiled vs reference)",
                actual,
                expected,
                trial=trial,
                width=width,
                view=view.name,
            )


@register(
    name="sim-override-parity",
    family="sim",
    description="compiled vs reference with override dictionaries "
    "(fault-injection / hypothesis pinning), including config rewrites "
    "after the override kernel is compiled",
)
def sim_override_parity(ctx: CheckContext) -> None:
    netlist = ctx.netlist()
    rng = ctx.rng
    luts = _lock_some(netlist, rng)
    overridable = luts + rng.sample(
        netlist.gates, min(4, len(netlist.gates))
    )
    compiled = CombinationalSimulator(netlist)
    for trial in range(ctx.trials):
        if luts and trial % 3 == 2:
            # The lazily compiled override kernel must track live configs.
            node = netlist.node(rng.choice(luts))
            node.lut_config = rng.getrandbits(1 << node.n_inputs)
        width = rng.choice(_WIDTHS)
        inputs, state = _random_stimulus(netlist, rng, width)
        chosen = rng.sample(overridable, rng.randint(1, len(overridable)))
        overrides = {name: rng.getrandbits(width) for name in chosen}
        expected = reference_evaluate(
            netlist, inputs, state, width, overrides=overrides
        )
        actual = compiled.evaluate(inputs, state, width, overrides=overrides)
        ctx.compare(
            "overridden outputs (compiled vs reference)",
            actual,
            expected,
            trial=trial,
            width=width,
            overrides=sorted(overrides),
        )


@register(
    name="sim-sequential-parity",
    family="sim",
    description="multi-cycle sequential traces: compiled stepping vs the "
    "reference with its own latched state must agree on outputs and "
    "register state every cycle",
)
def sim_sequential_parity(ctx: CheckContext) -> None:
    netlist = ctx.netlist()
    rng = ctx.rng
    _lock_some(netlist, rng, n=2)
    width = 16
    compiled = SequentialSimulator(netlist, width=width)
    state = {ff: 0 for ff in netlist.flip_flops}
    d_pins = {ff: netlist.node(ff).fanin[0] for ff in netlist.flip_flops}
    for cycle in range(ctx.trials):
        inputs = {pi: rng.getrandbits(width) for pi in netlist.inputs}
        expected = reference_evaluate(netlist, inputs, state, width)
        state = {ff: expected[d] for ff, d in d_pins.items()}
        actual = compiled.step(inputs)
        if not ctx.compare(
            "sequential step outputs (compiled vs reference)",
            actual,
            expected,
            cycle=cycle,
        ):
            return  # states have forked; later cycles add no information
        if not ctx.compare(
            "sequential register state (compiled vs reference)",
            compiled.state,
            state,
            cycle=cycle,
        ):
            return

"""Power analysis: switching-activity estimation and power accounting.

Two activity estimators are provided:

* **probabilistic** — propagate signal probabilities through the logic under
  an input probability of 0.5 and spatial/temporal independence; the
  per-cycle transition probability of a net with one-probability *p* is
  ``2·p·(1-p)``.  Flip-flop feedback is resolved by fixed-point iteration.
* **simulation-based** — count real toggles over random-stimulus cycles with
  :class:`~repro.sim.seqsim.SequentialSimulator`.

Power accounting follows DESIGN.md §5: CMOS cells pay
``α·E_sw·f + leakage``; STT LUTs pay ``α_in·E_read·f + standby`` with
``α_in`` the *dominant-input* activity (clock-gated sensing: the LUT is read
when its inputs change).  The LUT charge never depends on the programmed
function, so power does not leak the secret either.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..netlist.cache import memoized
from ..netlist.csr import CsrView, csr_view
from ..netlist.gates import GateType
from ..netlist.netlist import Netlist, NetlistError
from ..techlib.cells import TechLibrary, cmos_90nm
from ..techlib.stt import SttLibrary, stt_mtj_32nm


def _lut_one_probability(config: int, fanin_probs: "list[float]") -> float:
    """Exact output one-probability of a LUT under independent inputs."""
    prob = 0.0
    n = len(fanin_probs)
    for row in range(1 << n):
        if not (config >> row) & 1:
            continue
        row_prob = 1.0
        for pin in range(n):
            p = fanin_probs[pin]
            row_prob *= p if (row >> pin) & 1 else (1.0 - p)
        prob += row_prob
    return prob


def _gate_one_probability(
    gate_type: GateType, config: Optional[int], fanin_probs: "list[float]"
) -> float:
    """Output one-probability under input independence."""
    if gate_type is GateType.CONST0:
        return 0.0
    if gate_type is GateType.CONST1:
        return 1.0
    if gate_type in (GateType.BUF, GateType.DFF):
        return fanin_probs[0]
    if gate_type is GateType.NOT:
        return 1.0 - fanin_probs[0]
    if gate_type in (GateType.AND, GateType.NAND):
        p = 1.0
        for q in fanin_probs:
            p *= q
        return p if gate_type is GateType.AND else 1.0 - p
    if gate_type in (GateType.OR, GateType.NOR):
        p = 1.0
        for q in fanin_probs:
            p *= 1.0 - q
        return 1.0 - p if gate_type is GateType.OR else p
    if gate_type in (GateType.XOR, GateType.XNOR):
        p = 0.0
        for q in fanin_probs:
            p = p * (1.0 - q) + (1.0 - p) * q
        return p if gate_type is GateType.XOR else 1.0 - p
    if gate_type is GateType.LUT:
        if config is None:
            return 0.5  # unknown function: maximum-entropy assumption
        return _lut_one_probability(config, fanin_probs)
    raise ValueError(f"no probability model for {gate_type.value}")


def signal_probabilities(
    netlist: Netlist,
    input_prob: float = 0.5,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
) -> Dict[str, float]:
    """One-probability of every net under independent random inputs.

    Sequential feedback is handled by iterating the DFF state probabilities
    to a fixed point (initialised at the reset value 0, relaxed towards 0.5).
    """
    view = csr_view(netlist)
    names, gate_types, is_lut = view.names, view.gate_types, view.is_lut
    fi_ptr, fi_idx = view.fanin_ptr, view.fanin_idx
    node = netlist.node
    # LUT configs are read per call: programming a LUT is not structural.
    schedule = [
        (i, gate_types[i], node(names[i]).lut_config if is_lut[i] else None,
         fi_idx[fi_ptr[i] : fi_ptr[i + 1]])
        for i in view.comb_order()
    ]
    ff_ids = view.ff_ids
    d_ids = [view.d_pin(i) for i in ff_ids]
    if -1 in d_ids:
        raise NetlistError("a flip-flop reads a net nobody drives")
    # Flip-flops start at their reset value 0.
    probs = [input_prob if inp else 0.0 for inp in view.is_input]
    for _ in range(max_iterations):
        for i, gate_type, config, fanin in schedule:
            probs[i] = _gate_one_probability(
                gate_type, config, [probs[j] for j in fanin]
            )
        new = [probs[d] for d in d_ids]
        worst = max([abs(p - probs[i]) for p, i in zip(new, ff_ids)], default=0.0)
        for i, p in zip(ff_ids, new):
            probs[i] = p
        if worst < tolerance:
            break
    return dict(zip(names, probs))


def estimate_activities(
    netlist: Netlist,
    input_activity: float = 0.5,
    method: str = "probabilistic",
    cycles: int = 256,
    width: int = 64,
    seed: int = 0,
) -> Dict[str, float]:
    """Per-net switching activity α (transition probability per cycle).

    ``method="probabilistic"`` derives α from signal probabilities
    (α = 2·p·(1−p), scaled at the inputs to *input_activity*) and is
    memoized per structure revision, input activity and tuple of LUT
    configs (configs bump no revision, so they are part of the key): the
    returned dict is then a shared snapshot — do not mutate it.
    ``method="simulation"`` measures toggles over random stimulus.
    """
    if method == "simulation":
        from ..sim.seqsim import SequentialSimulator

        sim = SequentialSimulator(netlist, width=width)
        stats = sim.run_random(cycles, random.Random(seed))
        return {name: stats.activity(name) for name in netlist.node_names()}
    if method != "probabilistic":
        raise ValueError(f"unknown activity method {method!r}")
    view = csr_view(netlist)
    names, is_lut, node = view.names, view.is_lut, netlist.node
    configs = tuple(
        node(names[i]).lut_config for i in range(view.n) if is_lut[i]
    )
    return memoized(
        netlist,
        ("activities", input_activity, configs),
        lambda nl: _probabilistic_activities(nl, input_activity),
    )


def _probabilistic_activities(
    netlist: Netlist, input_activity: float
) -> Dict[str, float]:
    probs = signal_probabilities(netlist)  # nets in CSR id order
    scale = input_activity / 0.5 if input_activity else 0.0
    return {
        name: input_activity if is_input else 2.0 * p * (1.0 - p) * scale
        for (name, p), is_input in zip(probs.items(), csr_view(netlist).is_input)
    }


@dataclass(frozen=True)
class PowerReport:
    """Breakdown of circuit power in µW at the analysis frequency."""

    dynamic_uw: float
    leakage_uw: float
    per_node_uw: Dict[str, float] = field(repr=False)
    freq_ghz: float = 1.0

    @property
    def total_uw(self) -> float:
        return self.dynamic_uw + self.leakage_uw


#: A memoized total and the activities snapshot it was charged under.
_Charged = Tuple[Mapping[str, float], float]


class PowerAnalyzer:
    """Power engine bound to a CMOS + STT library pair."""

    def __init__(
        self,
        tech: Optional[TechLibrary] = None,
        stt: Optional[SttLibrary] = None,
        read_gating_factor: float = 0.5,
    ):
        self.tech = tech or cmos_90nm()
        self.stt = stt or stt_mtj_32nm()
        # Fraction of input-transition cycles on which the clock-gated sense
        # amplifier actually fires (differential sensing suppresses reads
        # whose address did not change).  DESIGN.md §5 explains why circuit
        # accounting uses gated reads while Fig. 1 characterizes free-running
        # reads.
        self.read_gating_factor = read_gating_factor
        #: Each CSR view's total with the activities it was charged under
        #: (see :meth:`charged_total_uw`); an entry dies with its view.
        self._totals: "weakref.WeakKeyDictionary[CsrView, _Charged]" = (
            weakref.WeakKeyDictionary()
        )

    def analyze(
        self,
        netlist: Netlist,
        activities: Optional[Mapping[str, float]] = None,
        freq_ghz: Optional[float] = None,
        input_activity: float = 0.2,
    ) -> PowerReport:
        """Total and per-node power.

        *activities* defaults to the probabilistic estimate at
        *input_activity* (0.2 — a typical datapath figure; the paper sweeps
        α = 10 %/30 % in Fig. 1, and Table I sits between).

        The walk runs over the CSR view in node order, with cells from a
        per-call (gate type, arity) table; a LUT's fan-in activities are
        read by pin, a dangling pin by its net name.  Every float is
        computed in the same order as the per-node walk by name that
        ``tests/test_kernel_exactness.py`` keeps as the reference, so
        totals and the per-node dict equal it bit for bit.
        """
        freq = freq_ghz if freq_ghz is not None else self.tech.default_freq_ghz
        if activities is None:
            activities = estimate_activities(netlist, input_activity=input_activity)
        view = csr_view(netlist)
        names, gate_types = view.names, view.gate_types
        is_input, is_seq, is_lut = view.is_input, view.is_seq, view.is_lut
        fi_ptr, fi_idx, dangling = view.fanin_ptr, view.fanin_idx, view.dangling
        get = activities.get
        alphas = [get(name, 0.0) for name in names]
        gating = self.read_gating_factor
        cells: Dict[Tuple[GateType, int], tuple] = {}
        per_node: Dict[str, float] = {}
        dynamic = 0.0
        leakage = 0.0
        for i in range(view.n):
            if is_input[i]:
                continue
            base, end = fi_ptr[i], fi_ptr[i + 1]
            key = (gate_types[i], end - base)
            entry = cells.get(key)
            if entry is None:
                if is_lut[i]:
                    lut = self.stt.lut(key[1])
                    entry = (lut.read_energy_pj, lut.standby_nw * 1e-3)
                else:  # the library serves its flip-flop for DFF too
                    cell = self.tech.cell(*key)
                    entry = (cell.energy_sw_pj, cell.leakage_nw * 1e-3)
                cells[key] = entry
            energy, leak = entry
            if is_lut[i]:
                fanin_alphas = [
                    alphas[j] if j >= 0 else get(dangling[(i, k - base)], 0.0)
                    for k, j in enumerate(fi_idx[base:end], base)
                ]
                mean_alpha = (
                    sum(fanin_alphas) / len(fanin_alphas) if fanin_alphas else 0.0
                )
                dyn = energy * mean_alpha * gating * freq * 1e3
            elif is_seq[i]:
                dyn = energy * max(alphas[i], 0.5 * 0.2) * freq * 1e3
            else:
                dyn = energy * alphas[i] * freq * 1e3
            per_node[names[i]] = dyn + leak
            dynamic += dyn
            leakage += leak
        return PowerReport(
            dynamic_uw=dynamic,
            leakage_uw=leakage,
            per_node_uw=per_node,
            freq_ghz=freq,
        )

    def total_power_uw(self, netlist: Netlist, **kwargs: object) -> float:
        return self.analyze(netlist, **kwargs).total_uw

    def charged_total_uw(
        self, netlist: Netlist, activities: Mapping[str, float]
    ) -> float:
        """Total power of *netlist* charged under *activities*, computed
        once per CSR view and activities snapshot.

        :func:`estimate_activities` hands out one shared dict per structure
        revision, input activity and LUT configs, so the snapshot's
        identity is the key: the memo goes stale exactly when the view
        or the snapshot does.
        """
        view = csr_view(netlist)
        entry = self._totals.get(view)
        if entry is None or entry[0] is not activities:
            total = self.analyze(netlist, activities=activities).total_uw
            entry = self._totals[view] = (activities, total)
        return entry[1]

    def power_overhead_pct(
        self,
        original: Netlist,
        hybrid: Netlist,
        input_activity: float = 0.2,
    ) -> float:
        """Relative total-power increase, in percent (Table I).

        Both designs are charged under the *original* activity profile so
        the comparison isolates the replacement cost (LUT nodes fall back to
        their own nets' activities, which are unchanged by construction —
        the hybrid is functionally identical).  The original's total is
        paid once per revision of it and activities snapshot.
        """
        acts = estimate_activities(original, input_activity=input_activity)
        base = self.charged_total_uw(original, acts)
        new = self.charged_total_uw(hybrid, acts)
        if base <= 0.0:
            return 0.0
        return (new - base) / base * 100.0

"""The attacker's oracle: a configured (provisioned) chip bought on the
open market.

Every attack in this package interacts with the design only through
:class:`ConfiguredOracle`, which simulates the programmed hybrid netlist and
counts queries — the quantity the paper's Eq. 1–3 bound.  Two access models
are provided:

* **scan access** (``scan=True``): the attacker controls/observes flip-flop
  state directly, so one query = one test clock.  This is the strong threat
  model of the de-camouflaging work the paper cites as [11].
* **functional access only** (``scan=False``): state is reachable only
  through reset + input sequences; each query costs ``depth`` clocks, which
  is why D (flip-flops between a missing gate and an output) multiplies the
  pattern counts in Eq. 1–3.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.graph import d_pins, sequential_depth, startpoints
from ..netlist.netlist import Netlist, NetlistError
from ..obs import add_counter
from ..sim.logicsim import CombinationalSimulator


class OracleAccessError(RuntimeError):
    """Raised when an attack uses access the oracle was not granted."""


#: Combinational-query memo capacity; the memo is cleared wholesale when
#: it fills (the replay working set of every attack here is far smaller).
_MEMO_LIMIT = 1 << 16


class ConfiguredOracle:
    """Query-counting simulation of the provisioned chip.

    Counter semantics (the paper's attacker-cost model): ``queries`` and
    ``test_clocks`` count every pattern the attacker applies, **including
    replays of a pattern already applied** — the oracle models a physical
    chip, and re-applying a known pattern still occupies the tester for a
    clock.  What a replay does *not* cost is simulation time on our side:
    :meth:`query` memoizes responses per individual pattern (one word
    lane), so repeated distinguishing-input replays are served from memory
    even when re-applied at a different packing width.
    ``sim_evaluations`` counts actual simulator calls and
    ``cache_hits`` counts calls served whole from the memo: those two
    count *calls*, while ``queries`` counts *patterns*, so a width-*N*
    query adds *N* to ``queries`` but one to exactly one of the others
    (only width-1 queries make ``queries`` their sum).  Attack-cost
    figures are bit-identical with or without the memo.
    """

    def __init__(self, programmed: Netlist, scan: bool = True):
        for name in programmed.luts:
            if programmed.node(name).lut_config is None:
                raise NetlistError(
                    f"oracle requires a programmed netlist; LUT {name!r} "
                    "has no configuration"
                )
        self.netlist = programmed
        self.scan = scan
        self.queries = 0
        self.test_clocks = 0
        self.sim_evaluations = 0
        self.cache_hits = 0
        self._depth = max(sequential_depth(programmed), 1)
        self._comb = CombinationalSimulator(programmed)
        self._memo: Dict[tuple, Dict[str, int]] = {}
        self._lut_nodes = [programmed.node(name) for name in programmed.luts]
        self._lut_revision = programmed.structure_revision
        self._memo_epoch = self._epoch()

    def _epoch(self) -> tuple:
        """Memo validity epoch: any structural netlist mutation (gate-type
        rewrites included) invalidates it, and so do direct ``lut_config``
        rewrites, which deliberately bump no revision (the hypothesis-sweep
        idiom), so the configs themselves are part of the epoch."""
        if self._lut_revision != self.netlist.structure_revision:
            self._lut_nodes = [
                self.netlist.node(name) for name in self.netlist.luts
            ]
            self._lut_revision = self.netlist.structure_revision
        return (
            self.netlist.structure_revision,
            tuple(node.lut_config for node in self._lut_nodes),
        )

    # ------------------------------------------------------------------
    # scan-mode access
    # ------------------------------------------------------------------
    def query(
        self,
        inputs: Mapping[str, int],
        state: Optional[Mapping[str, int]] = None,
        width: int = 1,
    ) -> Dict[str, int]:
        """One combinational query: apply PI values (and, with scan access,
        a flip-flop state); observe primary outputs and next-state.

        Returns ``{net: word}`` for POs and DFF D-pins.  Counts ``width``
        queries; without scan access each costs ``depth`` clocks.
        """
        if state and not self.scan:
            raise OracleAccessError(
                "scan chains are disabled on this part; state cannot be set"
            )
        self.queries += width
        self.test_clocks += width * (1 if self.scan else self._depth)
        epoch = self._epoch()
        if epoch != self._memo_epoch:
            self._memo.clear()
            self._memo_epoch = epoch
        # The memo is keyed per *pattern* (one lane), not per packed word:
        # a width-4 word followed by a width-1 replay of one of its lanes
        # (or the same lanes re-packed at a different width) is still a
        # memo hit.  Keying on (width, words) used to fragment the store.
        input_items = tuple(sorted(inputs.items()))
        state_items = tuple(sorted(state.items())) if state else ()
        lane_keys = [
            (
                tuple((net, (word >> lane) & 1) for net, word in input_items),
                tuple((net, (word >> lane) & 1) for net, word in state_items),
            )
            for lane in range(width)
        ]
        cached_rows = [self._memo.get(key) for key in lane_keys]
        if all(row is not None for row in cached_rows):
            self.cache_hits += 1
            return {
                net: sum(
                    (row[net] & 1) << lane
                    for lane, row in enumerate(cached_rows)
                )
                for net in cached_rows[0]
            }
        values = self._comb.evaluate(inputs, state, width)
        self.sim_evaluations += 1
        result = {po: values[po] for po in self.netlist.outputs}
        for d_pin in d_pins(self.netlist):
            result[d_pin] = values[d_pin]
        if len(self._memo) + width > _MEMO_LIMIT:
            self._memo.clear()
        for lane, key in enumerate(lane_keys):
            self._memo[key] = {
                net: (word >> lane) & 1 for net, word in result.items()
            }
        return result

    def observation_points(self) -> List[str]:
        """Nets the attacker can observe per query (POs; plus next-state
        with scan access)."""
        points = list(self.netlist.outputs)
        if self.scan:
            points.extend(d_pins(self.netlist))
        return points

    # ------------------------------------------------------------------
    # functional-mode access
    # ------------------------------------------------------------------
    def run_sequence(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        width: int = 1,
    ) -> List[Dict[str, int]]:
        """Reset the chip and clock an input sequence; observe POs only."""
        from ..sim.seqsim import SequentialSimulator

        sim = SequentialSimulator(self.netlist, width=width)
        trace = []
        for inputs in input_sequence:
            values = sim.step(inputs)
            trace.append({po: values[po] for po in self.netlist.outputs})
        self.queries += len(input_sequence) * width
        self.test_clocks += len(input_sequence) * width
        return trace

    def reset_counters(self) -> None:
        """Zero the attacker-cost and simulation counters (the memoized
        responses themselves survive — they model the attacker's notes,
        not the tester's bill)."""
        self.queries = 0
        self.test_clocks = 0
        self.sim_evaluations = 0
        self.cache_hits = 0

    @property
    def depth(self) -> int:
        return self._depth


# ----------------------------------------------------------------------
# test patterns (shared by every attack)
# ----------------------------------------------------------------------
def draw_patterns(
    rng: random.Random, netlist: Netlist, count: int
) -> List[Dict[str, int]]:
    """*count* random startpoint patterns: one ``rng.getrandbits(1)`` per
    primary input, then per flip-flop, pattern after pattern."""
    inputs, flip_flops = startpoints(netlist)
    nets = inputs + flip_flops
    return [{sp: rng.getrandbits(1) for sp in nets} for _ in range(count)]


def split_pattern(
    netlist: Netlist, pattern: Mapping[str, int]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """``(inputs, state)`` of a startpoint pattern, the two arguments of
    :meth:`ConfiguredOracle.query`; a net the pattern omits reads 0."""
    inputs, flip_flops = startpoints(netlist)
    return (
        {pi: pattern.get(pi, 0) for pi in inputs},
        {ff: pattern.get(ff, 0) for ff in flip_flops},
    )


def query_patterns(
    oracle: ConfiguredOracle,
    netlist: Netlist,
    patterns: Sequence[Mapping[str, int]],
) -> List[Dict[str, int]]:
    """The oracle's response to each startpoint pattern, from one packed
    query (lane *p* = ``patterns[p]``).  It bills the same ``queries``
    and ``test_clocks`` as one width-1 query per pattern."""
    if not patterns:
        return []
    inputs, flip_flops = startpoints(netlist)
    packed = [
        {
            net: sum(
                (pattern.get(net, 0) & 1) << lane
                for lane, pattern in enumerate(patterns)
            )
            for net in nets
        }
        for nets in (inputs, flip_flops)
    ]
    words = oracle.query(*packed, width=len(patterns))
    return [
        {net: (word >> lane) & 1 for net, word in words.items()}
        for lane in range(len(patterns))
    ]


# ----------------------------------------------------------------------
# observability helpers (shared by every attack)
# ----------------------------------------------------------------------
#: ``(queries, test_clocks, sim_evaluations, cache_hits)`` at one instant.
OracleCost = Tuple[int, int, int, int]


def snapshot_cost(oracle: ConfiguredOracle) -> OracleCost:
    """The oracle's cumulative counters, for later delta attribution."""
    return (
        oracle.queries,
        oracle.test_clocks,
        oracle.sim_evaluations,
        oracle.cache_hits,
    )


def attribute_cost(
    span_record, oracle: ConfiguredOracle, before: OracleCost
) -> Dict[str, int]:
    """Attach the oracle-cost delta since *before* to a span.

    Sets the span's ``oracle_queries`` / ``test_clocks`` /
    ``sim_evaluations`` / ``memo_hits`` attributes — the *traced* cost,
    which :mod:`repro.check` cross-checks against the attack's self-
    reported bill — and returns the deltas.  ``bump_counters`` the
    process-wide metric counters only at attack roots (callers pass the
    same deltas on), never per round, to avoid double counting.
    """
    deltas = {
        "oracle_queries": oracle.queries - before[0],
        "test_clocks": oracle.test_clocks - before[1],
        "sim_evaluations": oracle.sim_evaluations - before[2],
        "memo_hits": oracle.cache_hits - before[3],
    }
    span_record.set(**deltas)
    return deltas


def bump_cost_counters(deltas: Mapping[str, int]) -> None:
    """Accumulate one attack's oracle-cost deltas into the ambient
    recorder's typed counters (no-op when observability is off)."""
    add_counter("oracle.queries", deltas["oracle_queries"])
    add_counter("oracle.test_clocks", deltas["test_clocks"])
    add_counter("sim.evaluations", deltas["sim_evaluations"])
    add_counter("oracle.memo_hits", deltas["memo_hits"])

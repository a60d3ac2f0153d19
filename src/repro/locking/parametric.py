"""Parametric-aware dependent selection (Section IV-A.3, Algorithm 2).

Per selected I/O path, and per composing *timing path* (segment between
sequential elements), only a few gates with two or more inputs are replaced,
and each replacement is validated against the design's timing constraint —
retrying the random pick on violation (label L1 in the paper's Algorithm 2).
Gates left untouched on the path would let an attacker reconstruct partial
truth tables, so every gate that drives or is driven by an *unselected* path
gate (and does not itself lie on the I/O path) is replaced as well (the USL
step).  Being parametric-aware throughout, the USL replacements are also
timing-guarded; neighbours that would break the constraint are skipped and
reported.

The result keeps chains of interdependent LUTs (Eq. 2/3 security) while
bounding the longest-path impact — the paper's "no or minimum impact on
design parametric constraints".
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.paths import IOPath
from ..netlist.gates import GateType
from ..netlist.graph import combinational_gates_on
from ..netlist.netlist import Netlist
from ..netlist.transform import immediate_neighbours
from ..obs import add_counter
from .base import SelectionAlgorithm


class ParametricSelection(SelectionAlgorithm):
    """Algorithm 2: timing-checked sparse replacement plus USL closure."""

    name = "parametric"

    def __init__(
        self,
        n_io_paths: Optional[int] = None,
        gates_per_segment: int = 2,
        timing_margin: float = 0.08,
        max_retries: int = 8,
        **kwargs: object,
    ):
        super().__init__(**kwargs)
        self.n_io_paths = n_io_paths
        self.gates_per_segment = gates_per_segment
        self.timing_margin = timing_margin
        self.max_retries = max_retries
        #: Neighbours the USL closure skipped to protect timing (diagnostic).
        #: ``repro.lint``'s SEC204 rule treats these as the *justified* skips
        #: when auditing the closure, so keep the record complete.
        self.skipped_neighbours: List[str] = []
        #: Unselected path gates that joined the USL (diagnostic).
        self.usl_gates: List[str] = []

    def _auto_paths(self, netlist: Netlist) -> int:
        """Default path count grows with design size: the paper replaces more
        gates on larger circuits at the same relative cost (Table I)."""
        size = len(netlist.gates)
        if size < 3_000:
            return 1
        if size < 6_000:
            return 2
        if size < 10_000:
            return 3
        return 5

    def select(
        self,
        netlist: Netlist,
        paths: List[IOPath],
        rng: random.Random,
    ) -> List[str]:
        self.skipped_neighbours = []
        self.usl_gates = []
        if not paths:
            return []
        budget_ns = self.timing.max_delay(netlist) * (1.0 + self.timing_margin)
        n_paths = self.n_io_paths or self._auto_paths(netlist)
        chosen_paths = paths[: max(n_paths, 1)]
        selected: Dict[str, None] = {}
        usl: List[Tuple[str, Set[str]]] = []  # (gate, its path's node set)
        for path in chosen_paths:
            path_nodes = set(path.nodes)
            for segment in path.timing_paths(netlist):
                segment_gates = [
                    g
                    for g in combinational_gates_on(netlist, segment)
                    if netlist.node(g).n_inputs >= 2
                    and not netlist.node(g).is_lut
                    and g not in selected
                ]
                if not segment_gates:
                    continue
                picked = self._pick_with_timing(
                    netlist, segment_gates, set(selected), budget_ns, rng
                )
                for name in picked:
                    selected.setdefault(name, None)
                for name in segment_gates:
                    if name not in picked:
                        usl.append((name, path_nodes))
        self.usl_gates = sorted({gate for gate, _ in usl})
        self._usl_closure(netlist, usl, selected, budget_ns)
        if not selected:
            # Tiny designs where every gate is timing-critical: the security
            # requirement still demands at least one missing gate, so take
            # the candidate with the smallest delay impact and report the
            # residual degradation in Table I.
            fallback = self._least_impact_gate(netlist, chosen_paths)
            if fallback is not None:
                selected[fallback] = None
        return list(selected)

    def _least_impact_gate(
        self, netlist: Netlist, paths: List[IOPath]
    ) -> Optional[str]:
        best_name, best_delay = None, float("inf")
        candidates: List[str] = []
        for path in paths:
            candidates.extend(
                g
                for g in path.gates(netlist)
                if netlist.node(g).n_inputs >= 2 and not netlist.node(g).is_lut
            )
        for name in dict.fromkeys(candidates):
            delay = self._trial_delay(netlist, [name])
            if delay < best_delay:
                best_name, best_delay = name, delay
        return best_name

    # ------------------------------------------------------------------
    def _usl_closure(
        self,
        netlist: Netlist,
        usl: List[Tuple[str, Set[str]]],
        selected: Dict[str, None],
        budget_ns: float,
    ) -> None:
        """Replace off-path neighbours of unselected path gates."""
        for gate, path_nodes in usl:
            for neighbour in immediate_neighbours(netlist, gate):
                if neighbour in path_nodes or neighbour in selected:
                    continue
                node = netlist.node(neighbour)
                if node.is_lut or not node.is_combinational:
                    continue
                if node.gate_type in (GateType.CONST0, GateType.CONST1):
                    continue
                trial = list(selected) + [neighbour]
                if self._guard(netlist, trial, budget_ns):
                    selected.setdefault(neighbour, None)
                else:
                    self.skipped_neighbours.append(neighbour)
                    add_counter("parametric.usl_skipped")

    def _pick_with_timing(
        self,
        netlist: Netlist,
        segment_gates: List[str],
        already: Set[str],
        budget_ns: float,
        rng: random.Random,
    ) -> List[str]:
        """L1 of Algorithm 2: random pick, trial-replace, STA, retry."""
        count = min(self.gates_per_segment, len(segment_gates))
        for attempt in range(self.max_retries):
            if count < 1:
                break
            picked = rng.sample(segment_gates, count)
            trial = list(already) + picked
            if self._guard(netlist, trial, budget_ns):
                return picked
            if count > 1 and attempt >= self.max_retries // 2:
                count -= 1  # shrink the pick when the segment is too tight
        # Even a single replacement violates timing on this segment: skip it
        # entirely (its gates join the USL, whose closure is itself
        # timing-guarded) — the algorithm stays parametric-aware throughout.
        return []

    def _guard(self, netlist: Netlist, names: List[str], budget_ns: float) -> bool:
        """The timing guard: does replacing *names* keep the longest path
        within *budget_ns*?  Counts its verdict."""
        ok = self._trial_delay(netlist, names) <= budget_ns
        add_counter("parametric.guard_accepts" if ok else "parametric.guard_rejects")
        return ok

    def _trial_delay(self, netlist: Netlist, names: List[str]) -> float:
        """Longest-path delay with *names* timed as LUTs (the netlist is
        left untouched)."""
        return self.timing.max_delay(netlist, as_lut=names)

    def describe_params(self) -> Dict[str, object]:
        params = super().describe_params()
        params.update(
            n_io_paths=self.n_io_paths,
            gates_per_segment=self.gates_per_segment,
            timing_margin=self.timing_margin,
            max_retries=self.max_retries,
            usl_gates=list(self.usl_gates),
            skipped_neighbours=list(self.skipped_neighbours),
        )
        return params

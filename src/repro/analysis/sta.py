"""Static timing analysis.

Topological STA over the combinational view of a netlist: primary inputs and
DFF Q pins are timing startpoints, primary outputs and DFF D pins are
endpoints.  The *delay of the longest path* — the paper's performance metric
in Table I — is the maximum endpoint arrival time.

Hybrid netlists are timed with two libraries: CMOS gates from a
:class:`~repro.techlib.cells.TechLibrary`, LUT nodes from a
:class:`~repro.techlib.stt.SttLibrary` (whose delay depends only on fan-in,
never on the configuration — so timing does not leak the secret function).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..netlist.csr import CsrView, csr_view
from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..techlib.cells import TechLibrary, cmos_90nm
from ..techlib.stt import SttLibrary, stt_mtj_32nm


@dataclass(frozen=True)
class TimingReport:
    """Result of one STA run.

    Attributes:
        max_delay_ns: delay of the longest combinational path.
        critical_path: net names from startpoint to endpoint.
        arrival_ns: per-net arrival times.
        endpoint: the endpoint net realising ``max_delay_ns``.
        clock_period_ns: the constraint used for slack, if any.
    """

    max_delay_ns: float
    critical_path: Tuple[str, ...]
    arrival_ns: Dict[str, float] = field(repr=False)
    endpoint: str = ""
    clock_period_ns: Optional[float] = None

    @property
    def slack_ns(self) -> Optional[float]:
        """Worst slack against the clock constraint (None if unconstrained)."""
        if self.clock_period_ns is None:
            return None
        return self.clock_period_ns - self.max_delay_ns

    @property
    def met(self) -> bool:
        """True when the design meets its clock constraint (or has none)."""
        slack = self.slack_ns
        return slack is None or slack >= -1e-12

    def critical_gates(self) -> Tuple[str, ...]:
        """The combinational nodes on the critical path (endpoints included
        only if they are gates)."""
        return self.critical_path


class TimingAnalyzer:
    """Reusable STA engine bound to a CMOS + STT library pair."""

    def __init__(
        self,
        tech: Optional[TechLibrary] = None,
        stt: Optional[SttLibrary] = None,
    ):
        self.tech = tech or cmos_90nm()
        self.stt = stt or stt_mtj_32nm()
        #: Each CSR view's own arrivals (see :meth:`max_delay`); an entry
        #: dies with its view, i.e. at the netlist's next revision.
        self._base: "weakref.WeakKeyDictionary[CsrView, List[float]]" = (
            weakref.WeakKeyDictionary()
        )

    def gate_delay(self, netlist: Netlist, name: str) -> float:
        """Propagation delay of the node driving *name*, in ns."""
        node = netlist.node(name)
        if node.is_input:
            return 0.0
        if node.is_sequential:
            return self.tech.dff.clk_to_q_ns
        if node.gate_type is GateType.LUT:
            return self.stt.lut(node.n_inputs).delay_ns
        return self.tech.cell(node.gate_type, node.n_inputs).delay_ns

    def analyze(
        self,
        netlist: Netlist,
        clock_period_ns: Optional[float] = None,
        as_lut: Iterable[str] = (),
    ) -> TimingReport:
        """Run STA; returns arrivals, longest-path delay, and critical path.

        Nodes named in *as_lut* are timed as STT LUTs of their arity, as if
        :meth:`~repro.netlist.netlist.Netlist.replace_with_lut` had been
        applied to them, without mutating the netlist.

        The propagation runs over the CSR view: arrival times and worst
        predecessors live in flat arrays indexed by node id, and per-node
        delays come from a (gate type, arity) cache instead of a library
        lookup per node.  Arithmetic order matches the historical
        name-based walk exactly, so arrivals are bit-identical.
        """
        view = csr_view(netlist)
        order = view.topo_order()
        arr = [0.0] * view.n
        prev = [-1] * view.n
        luts = [view.index[name] for name in as_lut]
        self._propagate(view, self._types(view, luts), order, arr, prev)
        endpoint, endpoint_id, max_delay = self._worst_endpoint(view, arr)

        path: List[str] = []
        if endpoint and endpoint_id < 0:
            path.append(endpoint)
        cursor = endpoint_id
        while cursor >= 0:
            path.append(view.names[cursor])
            cursor = prev[cursor]
        path.reverse()

        names = view.names
        arrival: Dict[str, float] = dict(
            zip(map(names.__getitem__, order), map(arr.__getitem__, order))
        )
        return TimingReport(
            max_delay_ns=max_delay,
            critical_path=tuple(path),
            arrival_ns=arrival,
            endpoint=endpoint,
            clock_period_ns=clock_period_ns,
        )

    def max_delay(self, netlist: Netlist, as_lut: Iterable[str] = ()) -> float:
        """Just the longest-path delay (see :meth:`analyze` for *as_lut*).

        The netlist's own arrivals are computed once per CSR view and kept
        by this analyzer.  With *as_lut*, only the combinational fan-out
        cone of those nodes is re-propagated, in level order, on a copy
        of them: a node outside the cone reads no retimed node, so its
        base arrival is already the answer, and a node inside it repeats
        the operations of a full pass on the same inputs.  The result is
        the full pass's float, bit for bit, at a cost proportional to the
        cone — which is what parametric selection's candidate checks pay.
        """
        view = csr_view(netlist)
        arr = self._base.get(view)
        if arr is None:
            arr = [0.0] * view.n
            self._propagate(
                view, view.gate_types, view.topo_order(), arr, [-1] * view.n
            )
            self._base[view] = arr
        luts = [view.index[name] for name in as_lut]
        if luts:
            cone = view.forward_ids(luts, enter_sequential=False)
            cone.sort(key=view.levels().__getitem__)
            arr = arr[:]
            self._propagate(
                view, self._types(view, luts), cone, arr, [-1] * view.n
            )
        return self._worst_endpoint(view, arr)[2]

    @staticmethod
    def _types(view: CsrView, luts: List[int]) -> List[GateType]:
        """The view's gate types with the nodes *luts* retyped as LUTs."""
        gate_types = view.gate_types
        if luts:
            gate_types = list(gate_types)
            for i in luts:
                gate_types[i] = GateType.LUT
        return gate_types

    def _propagate(
        self,
        view: CsrView,
        gate_types: List[GateType],
        ids: Iterable[int],
        arr: List[float],
        prev: List[int],
    ) -> None:
        """The one arrival loop: set ``arr[i]`` and ``prev[i]`` (the worst
        fan-in, first pin on ties) for each id of *ids*, which must list
        every node after its combinational fan-in."""
        clk_to_q = self.tech.dff.clk_to_q_ns
        is_input, is_seq = view.is_input, view.is_seq
        fi_ptr, fi_idx = view.fanin_ptr, view.fanin_idx
        delay_cache: Dict[Tuple[GateType, int], float] = {}
        for i in ids:
            if is_input[i]:
                continue
            if is_seq[i]:
                arr[i] = clk_to_q
                continue
            base, end = fi_ptr[i], fi_ptr[i + 1]
            best_arr = 0.0
            if base != end:
                j = fi_idx[base]
                best_arr = arr[j]
                best_j = j
                for k in range(base + 1, end):
                    j = fi_idx[k]
                    src_arr = arr[j]
                    if src_arr > best_arr:
                        best_arr = src_arr
                        best_j = j
                prev[i] = best_j
            gt = gate_types[i]
            key = (gt, end - base)
            delay = delay_cache.get(key)
            if delay is None:
                if gt is GateType.LUT:
                    delay = self.stt.lut(end - base).delay_ns
                else:
                    delay = self.tech.cell(gt, end - base).delay_ns
                delay_cache[key] = delay
            arr[i] = best_arr + delay

    def _worst_endpoint(
        self, view: CsrView, arr: List[float]
    ) -> Tuple[str, int, float]:
        """``(endpoint name, endpoint id, max delay)`` over the primary
        outputs and flip-flop D pins (id -1 for a dangling D pin)."""
        endpoint, endpoint_id, max_delay = "", -1, 0.0
        # Endpoints: primary outputs and D pins of flip-flops (data arrival
        # plus setup must fit in the period; setup is added uniformly so it
        # cancels in overhead comparisons).
        for i in view.output_ids:
            if arr[i] > max_delay:
                endpoint, endpoint_id, max_delay = view.names[i], i, arr[i]
        setup = self.tech.dff.setup_ns
        fi_ptr, fi_idx = view.fanin_ptr, view.fanin_idx
        for i in view.ff_ids:
            base, end = fi_ptr[i], fi_ptr[i + 1]
            if base == end:
                raise IndexError("list index out of range")
            j = fi_idx[base]
            if j >= 0:
                d_arr = arr[j] + setup
                if d_arr > max_delay:
                    endpoint, endpoint_id, max_delay = view.names[j], j, d_arr
            else:
                # Dangling D pin: zero arrival, endpoint keeps the name.
                d_arr = 0.0 + setup
                if d_arr > max_delay:
                    endpoint = view.dangling[(i, 0)]
                    endpoint_id, max_delay = -1, d_arr
        return endpoint, endpoint_id, max_delay

    def path_delay(self, netlist: Netlist, path: List[str]) -> float:
        """Sum of gate delays along an explicit node sequence."""
        return sum(self.gate_delay(netlist, name) for name in path)

    def performance_degradation_pct(
        self, original: Netlist, hybrid: Netlist
    ) -> float:
        """Relative longest-path-delay increase, in percent (Table I)."""
        base = self.max_delay(original)
        new = self.max_delay(hybrid)
        if base <= 0.0:
            return 0.0
        return max(0.0, (new - base) / base * 100.0)

"""The paper's path-discovery machinery (Section IV-A, last paragraph).

"Selecting gates ... can be very challenging considering the huge number of
timing paths in large circuits.  To overcome this issue, first, we construct
a graph representation of all of the components ...  we randomly select a
sample of 2% of the components within the circuit and perform a depth-first
search in the graph to find the path to a primary input and a primary output
of the circuit containing at least two flip-flops.  Once all of the unique
paths have been collected, we remove any paths that contain the critical
path and sort the remaining paths by depth."

:class:`PathFinder` implements exactly that pipeline and is shared by all
three selection algorithms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..netlist.csr import csr_view
from ..netlist.graph import (
    PathGuide,
    combinational_gates_on,
    find_io_path,
    split_into_timing_paths,
)
from ..netlist.netlist import Netlist
from ..obs import add_counter
from .sta import TimingAnalyzer


@dataclass(frozen=True)
class IOPath:
    """One primary-input→primary-output path through the sequential graph.

    Attributes:
        nodes: net names, PI first, PO last.
        n_flip_flops: DFFs crossed — the paper's path *depth*.
    """

    nodes: Tuple[str, ...]
    n_flip_flops: int

    @property
    def depth(self) -> int:
        return self.n_flip_flops

    def timing_paths(self, netlist: Netlist) -> List[List[str]]:
        """The composing timing paths (segments between PIs/DFFs/POs)."""
        return split_into_timing_paths(netlist, list(self.nodes))

    def gates(self, netlist: Netlist) -> List[str]:
        """Combinational gates on the path."""
        return combinational_gates_on(netlist, self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


class PathFinder:
    """Samples components and collects unique, non-critical I/O paths."""

    def __init__(
        self,
        netlist: Netlist,
        timing: Optional[TimingAnalyzer] = None,
        sample_rate: float = 0.02,
        min_sample: int = 5,
        min_flip_flops: int = 2,
        max_flip_flops: int = 16,
        seed: int = 0,
    ):
        self.netlist = netlist
        self.timing = timing or TimingAnalyzer()
        self.sample_rate = sample_rate
        self.min_sample = min_sample
        self.min_flip_flops = min_flip_flops
        self.max_flip_flops = max_flip_flops
        self.rng = random.Random(seed)
        self._guide = PathGuide(netlist)
        #: The flip-flop requirement the last :meth:`collect_paths` met.
        self.ff_requirement = min_flip_flops

    def sample_components(self) -> List[str]:
        """Randomly select ~``sample_rate`` of the combinational gates."""
        gates = self.netlist.gates
        n = max(self.min_sample, int(round(self.sample_rate * len(gates))))
        n = min(n, len(gates))
        return self.rng.sample(gates, n)

    def collect_paths(
        self,
        components: Optional[Sequence[str]] = None,
        exclude_critical: bool = True,
    ) -> List[IOPath]:
        """The full pipeline: sample → DFS → dedupe → filter → sort.

        Falls back to a relaxed flip-flop requirement when the structure
        offers no ≥ ``min_flip_flops`` path through a sampled component (the
        requirement drops by one until paths are found), so shallow FSM-style
        benchmarks still yield work for the selection algorithms.
        """
        if components is None:
            components = self.sample_components()
        paths = self._discover(components, self.min_flip_flops)
        requirement = self.min_flip_flops
        while not paths and requirement > 0:
            requirement -= 1
            add_counter("paths.relaxed_requirement")
            paths = self._discover(components, requirement)
        self.ff_requirement = requirement
        if exclude_critical:
            paths = self.remove_critical(paths)
        # Deepest first (the paper's depth sort); among equally deep paths
        # prefer the one with the least logic — its timing segments are the
        # least critical.
        paths.sort(key=lambda p: (-p.n_flip_flops, len(p.nodes), p.nodes))
        return paths

    def _discover(
        self, components: Sequence[str], min_flip_flops: int
    ) -> List[IOPath]:
        seen: Set[Tuple[str, ...]] = set()
        paths: List[IOPath] = []
        view = csr_view(self.netlist)
        is_seq, index = view.is_seq, view.index
        for component in components:
            found = find_io_path(
                self.netlist,
                through=component,
                min_flip_flops=min_flip_flops,
                max_flip_flops=self.max_flip_flops,
                rng=self.rng,
                guide=self._guide,
            )
            if found is None:
                continue
            key = tuple(found)
            if key in seen:
                continue
            seen.add(key)
            n_ffs = sum(1 for name in found if is_seq[index[name]])
            paths.append(IOPath(nodes=key, n_flip_flops=n_ffs))
        add_counter("paths.searches", len(components))
        add_counter("paths.found", len(paths))
        return paths

    def remove_critical(self, paths: List[IOPath]) -> List[IOPath]:
        """Drop paths that contain (part of) the timing-critical path."""
        report = self.timing.analyze(self.netlist)
        view = csr_view(self.netlist)
        critical_gates = {
            name
            for name in report.critical_path
            if view.is_comb[view.id_of(name)]
        }
        if not critical_gates:
            return list(paths)
        kept = []
        for path in paths:
            if critical_gates & set(path.gates(self.netlist)):
                continue
            kept.append(path)
        # Never return an empty pool just because everything touches the
        # critical path (tiny circuits): in that case keep the originals and
        # let the timing check of the parametric algorithm arbitrate.
        return kept if kept else list(paths)

"""Shared machinery for the selection-and-replacement algorithms.

Every algorithm takes a synthesized gate-level netlist, chooses gates, and
returns a :class:`SelectionResult` with the hybrid netlist (LUTs programmed,
since the design house keeps the secret), the foundry view (configurations
withheld), and the provisioning record — the three artifacts of the
security-driven design flow in Fig. 2 of the paper.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.paths import IOPath, PathFinder
from ..analysis.sta import TimingAnalyzer
from ..obs import Stopwatch, span
from ..lut.mapping import HybridMapper, ProvisioningRecord
from ..netlist.netlist import Netlist
from ..techlib.cells import TechLibrary, cmos_90nm
from ..techlib.stt import SttLibrary, stt_mtj_32nm


@dataclass
class SelectionResult:
    """Outcome of one selection-and-replacement run."""

    algorithm: str
    original: Netlist
    hybrid: Netlist
    replaced: List[str]
    provisioning: ProvisioningRecord
    io_paths: List[IOPath] = field(default_factory=list)
    cpu_seconds: float = 0.0
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def n_stt(self) -> int:
        """Number of STT LUTs inserted (Table I's "Number of STTs")."""
        return len(self.replaced)

    def foundry_view(self) -> Netlist:
        """The netlist an untrusted foundry receives: LUTs unprogrammed."""
        mapper = HybridMapper()
        return mapper.strip_configs(self.hybrid)


class SelectionAlgorithm(abc.ABC):
    """Base class wiring libraries, path discovery, and replacement."""

    name = "base"

    def __init__(
        self,
        tech: Optional[TechLibrary] = None,
        stt: Optional[SttLibrary] = None,
        seed: int = 0,
        sample_rate: float = 0.02,
        decoy_inputs: int = 0,
        absorb: bool = False,
    ):
        self.tech = tech or cmos_90nm()
        self.stt = stt or stt_mtj_32nm()
        self.seed = seed
        self.sample_rate = sample_rate
        self.decoy_inputs = decoy_inputs
        self.absorb = absorb
        self.timing = TimingAnalyzer(self.tech, self.stt)

    def run(self, netlist: Netlist) -> SelectionResult:
        """Execute the algorithm on a copy of *netlist*."""
        clock = Stopwatch()
        with span(
            f"lock.{self.name}", circuit=netlist.name, seed=self.seed
        ) as lock_span:
            rng = random.Random((self.seed, self.name, netlist.name).__repr__())
            hybrid = netlist.copy(f"{netlist.name}_{self.name}")
            with span("lock.paths") as paths_span:
                finder = PathFinder(
                    hybrid,
                    timing=self.timing,
                    sample_rate=self.sample_rate,
                    seed=rng.randrange(1 << 30),
                )
                paths = finder.collect_paths()
                paths_span.set(
                    n_paths=len(paths), ff_requirement=finder.ff_requirement
                )
            with span("lock.select") as select_span:
                selected = self.select(hybrid, paths, rng)
                select_span.set(n_selected=len(selected))
            with span("lock.replace"):
                mapper = HybridMapper(stt=self.stt, rng=rng)
                mapper.replace(
                    hybrid,
                    selected,
                    decoy_inputs=self.decoy_inputs,
                    absorb=self.absorb,
                )
            with span("lock.provision"):
                provisioning = mapper.extract_provisioning(hybrid)
            lock_span.set(
                n_stt=len(hybrid.luts), key_bits=provisioning.total_bits
            )
        elapsed = clock.elapsed()
        return SelectionResult(
            algorithm=self.name,
            original=netlist,
            hybrid=hybrid,
            replaced=sorted(hybrid.luts),
            provisioning=provisioning,
            io_paths=paths,
            cpu_seconds=elapsed,
            seed=self.seed,
            params=self.describe_params(),
        )

    @abc.abstractmethod
    def select(
        self,
        netlist: Netlist,
        paths: List[IOPath],
        rng: random.Random,
    ) -> List[str]:
        """Choose the gate names to replace (the algorithm's core)."""

    def describe_params(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "sample_rate": self.sample_rate,
            "decoy_inputs": self.decoy_inputs,
            "absorb": self.absorb,
        }


def replaceable_gates_on_paths(
    netlist: Netlist, paths: List[IOPath], min_inputs: int = 1
) -> List[str]:
    """Unique combinational gates across *paths* with ≥ *min_inputs* pins,
    in first-seen order."""
    seen: Dict[str, None] = {}
    for path in paths:
        for name in path.gates(netlist):
            if netlist.node(name).n_inputs >= min_inputs:
                seen.setdefault(name, None)
    return list(seen)

"""VCD (Value Change Dump) waveform writer.

Lets any simulation run be inspected in GTKWave & friends — the debugging
affordance a downstream adopter expects from a netlist simulator.

Usage::

    with VcdWriter(path, netlist, nets=["clk-less nets to watch"]) as vcd:
        sim = SequentialSimulator(netlist)
        for cycle, stimulus in enumerate(vectors):
            values = sim.step(stimulus)
            vcd.sample(cycle, values)

or one-shot: :func:`dump_vcd` runs random stimulus and writes the file.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..netlist.netlist import Netlist

_IDENT_ALPHABET = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short printable VCD identifier for signal *index*."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_IDENT_ALPHABET))
        chars.append(_IDENT_ALPHABET[rem])
    return "".join(reversed(chars))


class VcdWriter:
    """Streams one-bit net values to a VCD file, cycle by cycle."""

    def __init__(
        self,
        path: Union[str, Path],
        netlist: Netlist,
        nets: Optional[Sequence[str]] = None,
        timescale: str = "1ns",
        clock_period: int = 2,
    ):
        self.path = Path(path)
        self.netlist = netlist
        self.nets: List[str] = list(nets or netlist.node_names())
        for net in self.nets:
            if net not in netlist:
                raise KeyError(f"no net named {net!r}")
        self.timescale = timescale
        self.clock_period = clock_period
        # Identifier 0 ("!") is reserved for the implicit clock signal.
        self._ids: Dict[str, str] = {
            net: _identifier(i + 1) for i, net in enumerate(self.nets)
        }
        self._last: Dict[str, Optional[int]] = {net: None for net in self.nets}
        self._file = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "VcdWriter":
        self._file = self.path.open("w")
        self._write_header()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        f = self._file
        f.write(f"$date repro simulation $end\n")
        f.write(f"$version repro VcdWriter $end\n")
        f.write(f"$timescale {self.timescale} $end\n")
        f.write(f"$scope module {self.netlist.name} $end\n")
        f.write(f"$var wire 1 ! clk $end\n")
        for net in self.nets:
            f.write(f"$var wire 1 {self._ids[net]} {_escape(net)} $end\n")
        f.write("$upscope $end\n$enddefinitions $end\n")

    def sample(self, cycle: int, values: Mapping[str, int]) -> None:
        """Record one clock cycle's values (only changes are emitted)."""
        if self._file is None:
            raise RuntimeError("writer is not open")
        t = cycle * self.clock_period
        self._file.write(f"#{t}\n1!\n")
        for net in self.nets:
            value = values.get(net)
            if value is None:
                continue
            bit = value & 1
            if self._last[net] != bit:
                self._file.write(f"{bit}{self._ids[net]}\n")
                self._last[net] = bit
        # Falling clock edge halfway through the period.
        self._file.write(f"#{t + self.clock_period // 2 or t + 1}\n0!\n")


def _escape(name: str) -> str:
    return name.replace(" ", "_")


def dump_vcd(
    netlist: Netlist,
    path: Union[str, Path],
    cycles: int = 32,
    nets: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Path:
    """Simulate *cycles* of random stimulus and write a VCD file."""
    from .seqsim import SequentialSimulator

    rng = random.Random(seed)
    path = Path(path)
    with VcdWriter(path, netlist, nets=nets) as vcd:
        sim = SequentialSimulator(netlist)
        inputs = netlist.inputs
        for cycle in range(cycles):
            stimulus = {pi: rng.getrandbits(1) for pi in inputs}
            values = sim.step(stimulus)
            vcd.sample(cycle, values)
    return path

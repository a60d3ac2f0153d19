"""Scan-chain insertion, disabling, and scan locking.

The paper's threat model hinges on scan access: the de-camouflaging attack
it cites "significantly accounts on accessibility to scan architecture to
reduce attack time", and the proposed defence is that "the scan architecture
is disabled or locked before releasing the design" (refs [6], [18]).  This
module makes that story concrete:

* :func:`insert_scan_chain` stitches every flip-flop into a mux-D scan chain
  (built from standard gates, since the netlist has no dedicated scan cell);
* :func:`disable_scan` ties the scan-enable off and strips the test ports —
  the release configuration the paper assumes;
* :func:`lock_scan_enable` replaces the scan-enable distribution logic with
  an STT LUT, the "locked scan" alternative: without the configuration the
  chain cannot be enabled even if the port is bonded out.

Scan muxes are plain gates, so every analysis/simulation/attack in the
package works on scanned netlists unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .gates import GateType
from .netlist import Netlist, NetlistError

#: Net-name prefix for everything scan insertion adds.
SCAN_PREFIX = "scan_"

SCAN_ENABLE = f"{SCAN_PREFIX}enable"
SCAN_IN = f"{SCAN_PREFIX}in"
SCAN_OUT = f"{SCAN_PREFIX}out"


def has_scan_chain(netlist: Netlist) -> bool:
    """True when the netlist carries a scan chain from this module."""
    return SCAN_ENABLE in netlist and SCAN_IN in netlist


def insert_scan_chain(
    netlist: Netlist,
    order: Optional[Sequence[str]] = None,
) -> List[str]:
    """Stitch the flip-flops into one scan chain, in place.

    Adds primary inputs ``scan_enable``/``scan_in`` and output ``scan_out``,
    and re-drives every DFF's D pin with a 2:1 mux built from NAND gates:
    ``D' = MUX(scan_enable ? previous_chain_bit : D)``.

    *order* fixes the chain order (default: netlist flip-flop order).
    Returns the chain order used.  Idempotence: inserting twice raises.
    """
    if has_scan_chain(netlist):
        raise NetlistError("netlist already has a scan chain")
    flip_flops = list(order or netlist.flip_flops)
    if not flip_flops:
        raise NetlistError("no flip-flops to stitch")
    missing = [ff for ff in flip_flops if ff not in set(netlist.flip_flops)]
    if missing:
        raise NetlistError(f"not flip-flops: {missing}")

    netlist.add_input(SCAN_ENABLE)
    netlist.add_input(SCAN_IN)
    netlist.add_gate(f"{SCAN_PREFIX}en_n", GateType.NOT, [SCAN_ENABLE])

    previous = SCAN_IN
    for index, ff in enumerate(flip_flops):
        node = netlist.node(ff)
        functional_d = node.fanin[0]
        # MUX(se ? previous : functional_d) as three NANDs:
        #   a = NAND(functional_d, se_n);  b = NAND(previous, se)
        #   d' = NAND(a, b)
        a = f"{SCAN_PREFIX}mux{index}_a"
        b = f"{SCAN_PREFIX}mux{index}_b"
        d_new = f"{SCAN_PREFIX}mux{index}"
        netlist.add_gate(a, GateType.NAND, [functional_d, f"{SCAN_PREFIX}en_n"])
        netlist.add_gate(b, GateType.NAND, [previous, SCAN_ENABLE])
        netlist.add_gate(d_new, GateType.NAND, [a, b])
        netlist.rewire_fanin(ff, 0, d_new)
        previous = ff
    netlist.add_gate(SCAN_OUT, GateType.BUF, [previous])
    netlist.add_output(SCAN_OUT)
    netlist.validate()
    return flip_flops


def scan_chain_order(netlist: Netlist) -> List[str]:
    """Recover the chain order by walking the scan muxes from ``scan_in``."""
    if not has_scan_chain(netlist):
        raise NetlistError("netlist has no scan chain")
    order: List[str] = []
    previous = SCAN_IN
    while True:
        next_ff = None
        for reader in netlist.fanout(previous):
            node = netlist.node(reader)
            if (
                reader.startswith(f"{SCAN_PREFIX}mux")
                and reader.endswith("_b")
                and node.fanin[0] == previous
            ):
                mux = reader[: -len("_b")]
                for candidate in netlist.fanout(mux):
                    if netlist.node(candidate).is_sequential:
                        next_ff = candidate
                        break
            if next_ff:
                break
        if next_ff is None:
            break
        order.append(next_ff)
        previous = next_ff
    return order


def disable_scan(netlist: Netlist) -> None:
    """The release step (paper Section IV-A.3): tie scan-enable inactive.

    ``scan_enable`` and ``scan_in`` become constant-0 drivers and the
    ``scan_out`` port is dropped, so the fabricated part exposes no state
    access; the muxes remain (as on real silicon) but are forced to the
    functional path.  Operates in place.
    """
    if not has_scan_chain(netlist):
        raise NetlistError("netlist has no scan chain")
    for port in (SCAN_ENABLE, SCAN_IN):
        netlist.set_gate_type(port, GateType.CONST0, fanin=[])
    if SCAN_OUT in netlist.outputs:
        netlist.outputs.remove(SCAN_OUT)
        netlist.touch_structure()
    netlist.validate()


def lock_scan_enable(netlist: Netlist, program: bool = True) -> str:
    """The "locked scan" alternative: gate the enable through an STT LUT.

    The internal enable becomes ``LUT(scan_enable, scan_in)``; programmed as
    AND at the provisioning station (so test mode needs both pins high), it
    reads as an unknown function at the foundry — which cannot even
    exercise the chain.  Returns the LUT net name.
    """
    if not has_scan_chain(netlist):
        raise NetlistError("netlist has no scan chain")
    lut_name = f"{SCAN_PREFIX}unlock"
    if lut_name in netlist:
        raise NetlistError("scan enable is already locked")
    netlist.add_gate(
        lut_name,
        GateType.LUT,
        [SCAN_ENABLE, SCAN_IN],
        lut_config=0b1000 if program else None,
    )
    # Re-route every reader of the raw enable (the inverter and the mux 'b'
    # legs) through the LUT.
    for reader in list(netlist.fanout(SCAN_ENABLE)):
        if reader == lut_name:
            continue
        node = netlist.node(reader)
        for pin, src in enumerate(node.fanin):
            if src == SCAN_ENABLE:
                netlist.rewire_fanin(reader, pin, lut_name)
    netlist.validate()
    return lut_name

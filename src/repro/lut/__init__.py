"""STT LUT cells: configuration words, gate→LUT mapping, bitstreams."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .lutcell import (
    LutConfigError,
    config_from_gate,
    config_mask,
    config_rows,
    depends_on_pin,
    expanded_candidate_space,
    hamming_distance,
    meaningful_configs,
    permute_pins,
    restrict_pin,
    support,
    validate_config,
    widen_config,
)
from .mapping import HybridMapper, ProvisioningRecord

if TYPE_CHECKING:
    from . import bitstream

# Provisioning bitstreams are written by the flow, never by a trial: the
# module loads on first use.
__getattr__ = lazy_exports(__name__, {"bitstream": ".bitstream"})

__all__ = [
    "LutConfigError",
    "config_from_gate",
    "config_mask",
    "config_rows",
    "depends_on_pin",
    "expanded_candidate_space",
    "hamming_distance",
    "meaningful_configs",
    "permute_pins",
    "restrict_pin",
    "support",
    "validate_config",
    "widen_config",
    "HybridMapper",
    "ProvisioningRecord",
    "bitstream",
]

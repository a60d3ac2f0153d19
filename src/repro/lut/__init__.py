"""STT LUT cells: configuration words, gate→LUT mapping, bitstreams."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .mapping import HybridMapper, ProvisioningRecord

if TYPE_CHECKING:
    from . import bitstream
    from .lutcell import (
        LutConfigError,
        config_mask,
        config_rows,
        depends_on_pin,
        expanded_candidate_space,
        permute_pins,
        restrict_pin,
        support,
        validate_config,
        widen_config,
    )

# Provisioning bitstreams are written by the flow and the configuration
# word helpers serve the checks and studies, never a trial: both load on
# first use.
__getattr__ = lazy_exports(
    __name__,
    {
        "bitstream": ".bitstream",
        "LutConfigError": ".lutcell",
        "config_mask": ".lutcell",
        "config_rows": ".lutcell",
        "depends_on_pin": ".lutcell",
        "expanded_candidate_space": ".lutcell",
        "permute_pins": ".lutcell",
        "restrict_pin": ".lutcell",
        "support": ".lutcell",
        "validate_config": ".lutcell",
        "widen_config": ".lutcell",
    },
)

__all__ = [
    "LutConfigError",
    "config_mask",
    "config_rows",
    "depends_on_pin",
    "expanded_candidate_space",
    "permute_pins",
    "restrict_pin",
    "support",
    "validate_config",
    "widen_config",
    "HybridMapper",
    "ProvisioningRecord",
    "bitstream",
]

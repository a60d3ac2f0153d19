"""Technology libraries: static CMOS cells and non-volatile STT-LUT cells."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .cells import Cell, LibraryError, SequentialCell, TechLibrary, cmos_90nm
from .stt import FIG1_REFERENCE, ReadMode, SttLibrary, SttLutCell, stt_mtj_32nm

if TYPE_CHECKING:
    from . import liberty

# The Liberty-lite reader/writer runs in no trial: it loads on first use.
__getattr__ = lazy_exports(__name__, {"liberty": ".liberty"})

__all__ = [
    "Cell",
    "LibraryError",
    "SequentialCell",
    "TechLibrary",
    "cmos_90nm",
    "FIG1_REFERENCE",
    "ReadMode",
    "SttLibrary",
    "SttLutCell",
    "stt_mtj_32nm",
    "liberty",
]

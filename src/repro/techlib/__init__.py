"""Technology libraries: static CMOS cells and non-volatile STT-LUT cells."""

from .cells import Cell, LibraryError, SequentialCell, TechLibrary, cmos_90nm
from .stt import FIG1_REFERENCE, ReadMode, SttLibrary, SttLutCell, stt_mtj_32nm

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
]

"""Cache simulator substrate: frames, caches, victim cache, buses, MSHRs."""

from .block import Frame
from .bus import Bus
from .cache import SetAssociativeCache
from .hierarchy import FetchResult, MemoryHierarchy
from .mshr import MSHRFile
from .victim import VictimCache

__all__ = [
    "Frame",
    "Bus",
    "SetAssociativeCache",
    "FetchResult",
    "MemoryHierarchy",
    "MSHRFile",
    "VictimCache",
]

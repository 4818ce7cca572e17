"""The CARAT runtime: tracking, protection, and patching (Section 4.2).

* :mod:`repro.runtime.allocation_table` — the Allocation Table, sorted by
  address
* :mod:`repro.runtime.escape_map` — the Allocation-to-Escape Map
* :mod:`repro.runtime.regions` — regions and guard mechanisms
* :mod:`repro.runtime.patching` — page-move planning and execution
* :mod:`repro.runtime.runtime` — the :class:`CaratRuntime` facade
"""

from repro.runtime.allocation_table import Allocation, AllocationTable
from repro.runtime.escape_map import AllocationToEscapeMap
from repro.runtime.patching import (
    PAGE_SIZE,
    MoveCost,
    MovePlan,
    Patcher,
    RegisterSnapshot,
    page_down,
    page_up,
)
from repro.runtime.regions import (
    PERM_EXEC,
    PERM_READ,
    PERM_RW,
    PERM_RWX,
    PERM_WRITE,
    BinarySearchGuard,
    GuardMechanism,
    GuardOutcome,
    IfTreeGuard,
    MPXGuard,
    Region,
    RegionSet,
    make_guard,
)
from repro.runtime.runtime import CaratRuntime, RuntimeStats

__all__ = [
    "Allocation",
    "AllocationTable",
    "AllocationToEscapeMap",
    "PAGE_SIZE",
    "MoveCost",
    "MovePlan",
    "Patcher",
    "RegisterSnapshot",
    "page_down",
    "page_up",
    "PERM_EXEC",
    "PERM_READ",
    "PERM_RW",
    "PERM_RWX",
    "PERM_WRITE",
    "BinarySearchGuard",
    "GuardMechanism",
    "GuardOutcome",
    "IfTreeGuard",
    "MPXGuard",
    "Region",
    "RegionSet",
    "make_guard",
    "CaratRuntime",
    "RuntimeStats",
]

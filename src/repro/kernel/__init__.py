"""The simulated kernel substrate.

* :mod:`repro.kernel.physmem` — physical memory + frame allocator
* :mod:`repro.kernel.heap` — the libc-malloc stand-in
* :mod:`repro.kernel.pagetable` — 4-level radix page table
* :mod:`repro.kernel.tlb` — set-associative TLBs (L1 DTLB, STLB)
* :mod:`repro.kernel.mmu` — the translation path + pagewalker
* :mod:`repro.kernel.mmu_notifier` — paging event trace (Table 2)
* :mod:`repro.kernel.process` / :mod:`repro.kernel.loader` — processes
* :mod:`repro.kernel.kernel` — the :class:`Kernel` facade
* :mod:`repro.kernel.swap` — swapping via non-canonical addresses
"""

from repro.kernel.heap import HeapAllocator, HeapError
from repro.kernel.kernel import Kernel, KernelStats
from repro.kernel.loader import (
    constant_to_bytes,
    image_geometry,
    layout_globals,
    static_footprint_pages,
    validate_binary,
)
from repro.kernel.mmu import MMU, MMUStats, PageFault
from repro.kernel.mmu_notifier import EventKind, MMUNotifier, NotifierEvent
from repro.kernel.pagetable import (
    PAGE_SIZE,
    PTE,
    PTE_EXEC,
    PTE_PRESENT,
    PTE_WRITE,
    PageTable,
)
from repro.kernel.physmem import FrameAllocator, PhysicalMemory
from repro.kernel.process import MemoryLayout, Process
from repro.kernel.tlb import TLB, TLBStats, intel_l1_dtlb, intel_stlb

__all__ = [
    "HeapAllocator",
    "HeapError",
    "Kernel",
    "KernelStats",
    "constant_to_bytes",
    "image_geometry",
    "layout_globals",
    "static_footprint_pages",
    "validate_binary",
    "MMU",
    "MMUStats",
    "PageFault",
    "EventKind",
    "MMUNotifier",
    "NotifierEvent",
    "PAGE_SIZE",
    "PTE",
    "PTE_EXEC",
    "PTE_PRESENT",
    "PTE_WRITE",
    "PageTable",
    "FrameAllocator",
    "PhysicalMemory",
    "MemoryLayout",
    "Process",
    "TLB",
    "TLBStats",
    "intel_l1_dtlb",
    "intel_stlb",
]

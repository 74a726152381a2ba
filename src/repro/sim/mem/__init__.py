"""Memory-system models: caches, DRAM, TLBs, and the per-core hierarchy.

The geometry defaults mirror Table 4.1 of the thesis: per-core 32 KB 8-way
L1 instruction and data caches, a per-core 512 KB 4-way L2, DDR3-1600
main memory, and 8 KB page-walk caches behind the I/D TLBs.

Every model here runs once per simulated memory access, so the hot
counters are plain ints behind ``_CounterView`` stats, and each cache set
is a single ordered ``dict`` of line -> dirty bit whose key order is the
replacement order (lru, fifo or random; see :class:`Cache`).
"""

from repro.sim.mem.cache import Cache
from repro.sim.mem.dram import DramModel
from repro.sim.mem.hierarchy import CoreMemSystem, MemoryHierarchyConfig
from repro.sim.mem.tlb import Tlb

__all__ = [
    "Cache",
    "CoreMemSystem",
    "DramModel",
    "MemoryHierarchyConfig",
    "Tlb",
]

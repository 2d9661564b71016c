"""Below-L1 memory hierarchy: L2 cache, buses, main memory.

The simulator's L1 miss path (demand or prefetch) calls
:meth:`MemoryHierarchy.fetch`, which walks the Table-1 machine: request
the contended L1/L2 bus, look up the 1MB 4-way LRU L2 (12-cycle
latency), and on an L2 miss cross the 400MHz memory bus to the 70-cycle
main memory, filling the L2 on the way back.  Prefetch requests use the
same path but lose bus arbitration to demand traffic.
"""

from __future__ import annotations

from ..common.config import MachineConfig
from .bus import Bus
from .cache import SetAssociativeCache


class FetchResult:
    """Outcome of a below-L1 fetch.

    A slotted plain class (one is allocated per L1 miss): frozen
    dataclasses pay an ``object.__setattr__`` per field on construction.

    Attributes:
        completes_at: Absolute cycle the L1 fill completes.
        latency: ``completes_at - request cycle``.
        from_memory: True when the L2 missed and main memory was accessed.
    """

    __slots__ = ("completes_at", "latency", "from_memory")

    def __init__(self, completes_at: int, latency: int, from_memory: bool) -> None:
        self.completes_at = completes_at
        self.latency = latency
        self.from_memory = from_memory

    def __repr__(self) -> str:
        return (
            f"FetchResult(completes_at={self.completes_at}, "
            f"latency={self.latency}, from_memory={self.from_memory})"
        )


class MemoryHierarchy:
    """L2 + buses + memory behind an L1."""

    def __init__(self, machine: MachineConfig, *, demand_shadow: int = 2) -> None:
        self.machine = machine
        self.l2 = SetAssociativeCache(machine.l2)
        self.l1_l2_bus = Bus(machine.l1_l2_bus, demand_shadow=demand_shadow)
        self.memory_bus = Bus(machine.memory_bus, demand_shadow=demand_shadow)
        self._l1_block = machine.l1d.block_size
        self._l2_block = machine.l2.block_size
        self._l2_shift = machine.l2.offset_bits - machine.l1d.offset_bits
        self._l2_hit_latency = machine.l2.hit_latency
        self._memory_latency = machine.memory_latency
        # Statistics.
        self.l2_demand_hits = 0
        self.l2_demand_misses = 0
        self.l2_prefetch_hits = 0
        self.l2_prefetch_misses = 0
        self.memory_accesses = 0

    def fetch(self, l1_block_addr: int, now: int, *, prefetch: bool = False,
              store: bool = False) -> FetchResult:
        """Fetch one L1 block from L2/memory starting at cycle *now*.

        Prefetch-triggered L2 fills are inserted at the LRU position of
        their set: a useful prefetch is promoted by its later demand
        reuse, while a wrong one is the next line evicted instead of
        displacing the demand working set (anti-pollution placement).
        """
        l2_block_addr = l1_block_addr >> self._l2_shift
        l2_ready = now + self._l2_hit_latency
        hit = self.l2.access(l2_block_addr, now, store=store, lru_insert=prefetch)
        if hit:
            if prefetch:
                self.l2_prefetch_hits += 1
            else:
                self.l2_demand_hits += 1
            data_at = l2_ready
        else:
            if prefetch:
                self.l2_prefetch_misses += 1
            else:
                self.l2_demand_misses += 1
            self.memory_accesses += 1
            mem_done = self.memory_bus.request(l2_ready, self._l2_block, prefetch=prefetch)
            data_at = mem_done + self._memory_latency
        end = self.l1_l2_bus.request(data_at, self._l1_block, prefetch=prefetch)
        return FetchResult(completes_at=end, latency=end - now, from_memory=not hit)

    def l2_contains(self, l1_block_addr: int) -> bool:
        """True if the L2 currently holds the line containing this L1 block."""
        return self.l2.probe(l1_block_addr >> self._l2_shift) is not None

    def reset_stats(self) -> None:
        """Zero all counters; cache/bus state is kept (warm-up)."""
        self.l2_demand_hits = 0
        self.l2_demand_misses = 0
        self.l2_prefetch_hits = 0
        self.l2_prefetch_misses = 0
        self.memory_accesses = 0
        self.l2.reset_stats()
        self.l1_l2_bus.reset_stats()
        self.memory_bus.reset_stats()

    def l2_miss_rate(self) -> float:
        """Demand miss rate observed at the L2."""
        total = self.l2_demand_hits + self.l2_demand_misses
        return self.l2_demand_misses / total if total else 0.0

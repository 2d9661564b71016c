"""Bus contention model.

The paper stresses that contention matters and that its buses always
give demand requests priority over prefetches.  :class:`Bus` is an
occupancy model: each block transfer holds the bus for a number of CPU
cycles derived from the bus width and clock ratio; requests are granted
at the later of their arrival and the bus becoming free.

Prefetch deprioritization is modelled by making prefetch grants also
wait out a *demand shadow*: a prefetch may not start until
``demand_shadow`` cycles have passed since the last demand transfer
finished, so a stream of demand misses starves prefetch traffic — the
effect that produces late and discarded prefetches under bursty misses
(paper Figure 21, art/gcc discussion).
"""

from __future__ import annotations

from ..common.config import BusConfig


class Bus:
    """Single shared bus with demand-over-prefetch priority."""

    def __init__(self, config: BusConfig, *, demand_shadow: int = 0) -> None:
        self.config = config
        self.demand_shadow = demand_shadow
        #: Cycle at which the bus next becomes free.
        self.free_at = 0
        #: Cycle at which the most recent demand transfer completes;
        #: starts in the past so an idle bus never delays prefetches.
        self.last_demand_end = -demand_shadow
        #: num_bytes -> occupancy cycles; callers use a couple of fixed
        #: block sizes, so this avoids recomputing per request.
        self._transfer_cycles: dict = {}
        # Statistics.
        self.demand_transfers = 0
        self.prefetch_transfers = 0
        self.demand_wait_cycles = 0
        self.prefetch_wait_cycles = 0

    def request(self, now: int, num_bytes: int, *, prefetch: bool = False) -> int:
        """Request a transfer of *num_bytes* at cycle *now*.

        Returns the cycle at which the transfer **completes**.  Grants
        are in request order (the trace-driven simulator presents
        requests chronologically); prefetches additionally wait out the
        demand shadow.
        """
        start = now if now > self.free_at else self.free_at
        if prefetch:
            horizon = self.last_demand_end + self.demand_shadow
            if start < horizon:
                start = horizon
            self.prefetch_wait_cycles += start - now
            self.prefetch_transfers += 1
        else:
            self.demand_wait_cycles += start - now
            self.demand_transfers += 1
        cycles = self._transfer_cycles.get(num_bytes)
        if cycles is None:
            cycles = self._transfer_cycles[num_bytes] = self.config.transfer_cycles(num_bytes)
        end = start + cycles
        self.free_at = end
        if not prefetch:
            self.last_demand_end = end
        return end

    def reset_stats(self) -> None:
        """Zero the counters; occupancy state is kept (warm-up)."""
        self.demand_transfers = 0
        self.prefetch_transfers = 0
        self.demand_wait_cycles = 0
        self.prefetch_wait_cycles = 0

"""Coarse-grained timekeeping counters (the paper's hardware substrate).

The paper's mechanisms never read exact cycle counts: they use small
per-line counters "ticked periodically (but not necessarily every
cycle) from the global cycle counter".  The victim filter uses a 2-bit
counter advanced every 512 cycles and reset on access (Figure 12); the
prefetcher uses 5-bit counters and registers at the same tick
(Figure 18).

:class:`GlobalTicker` converts absolute cycles to tick counts;
:class:`SaturatingCounter` models an n-bit saturating up-counter.  The
simulator keeps exact times on frames and derives counter values
through :meth:`GlobalTicker.ticks_between`, which reproduces the
quantization error of real tick-edge hardware: a counter reset between
two tick edges counts the number of *edges* seen, not elapsed/512.
"""

from __future__ import annotations

from ..common.errors import ConfigError


class GlobalTicker:
    """Global tick source: one tick edge every *tick_cycles* cycles."""

    def __init__(self, tick_cycles: int = 512) -> None:
        """Refuse a tick shorter than one cycle."""
        if tick_cycles < 1:
            raise ConfigError(f"tick_cycles must be >= 1, got {tick_cycles}")
        self.tick_cycles = tick_cycles

    def tick_of(self, cycle: int) -> int:
        """Index of the last tick edge at or before *cycle*."""
        return cycle // self.tick_cycles

    def ticks_between(self, start_cycle: int, end_cycle: int) -> int:
        """Tick edges a counter reset at *start_cycle* sees by *end_cycle*.

        This is what an n-bit counter cleared at ``start_cycle`` reads
        at ``end_cycle`` (before saturation): edge-count quantization,
        so e.g. a 600-cycle interval may read 1 or 2 depending on phase.
        """
        if end_cycle < start_cycle:
            raise ValueError("end_cycle must be >= start_cycle")
        return self.tick_of(end_cycle) - self.tick_of(start_cycle)


class SaturatingCounter:
    """An n-bit saturating up-counter with reset.

    Used in tests and in the hardware-cost accounting; the simulator
    fast path derives equivalent values arithmetically via
    :class:`GlobalTicker`.
    """

    def __init__(self, bits: int) -> None:
        """A cleared counter of *bits* bits."""
        if bits < 1:
            raise ConfigError(f"counter needs >= 1 bit, got {bits}")
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.value = 0

    def advance(self, steps: int = 1) -> int:
        """Advance by *steps* tick edges, saturating; returns the value."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        self.value = min(self.max_value, self.value + steps)
        return self.value

    def reset(self) -> None:
        """Clear to zero (the on-access reset of the victim filter)."""
        self.value = 0

    def saturated(self) -> bool:
        """True when the counter has hit its maximum."""
        return self.value == self.max_value


def saturate(value: int, bits: int) -> int:
    """Clamp *value* to what an n-bit saturating counter would hold."""
    max_value = (1 << bits) - 1
    return max_value if value > max_value else value


#: Per-line timekeeping hardware budget of the prefetch proposal
#: (Figure 18): two 5-bit counters (gt, prefetch), one 5-bit register
#: (lt), and two tag fields.  Exposed for the hardware-cost benchmark.
PREFETCH_COUNTER_BITS = 5
VICTIM_FILTER_COUNTER_BITS = 2


def victim_filter_counter_value(ticker: GlobalTicker, last_access: int, now: int) -> int:
    """Value of the 2-bit dead-time counter at eviction time.

    The filter admits the victim when this value is <= 1, giving a dead
    time range of 0..(2*tick - 1) cycles (0-1023 at the paper's 512-cycle
    tick).
    """
    return saturate(ticker.ticks_between(last_access, now), VICTIM_FILTER_COUNTER_BITS)

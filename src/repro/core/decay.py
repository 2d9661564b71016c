"""Cache decay (Kaxiras, Hu, Martonosi — the paper's §5.1.1 substrate).

Cache decay turns off (gates Vdd to) cache lines that have been idle
longer than a *decay interval*, saving leakage energy at the price of
*induced misses*: a decayed line that would have been re-referenced
must be refetched.  The paper builds its first dead-block predictor
directly on this mechanism, noting that decay's accuracy/coverage suit
leakage control but not prefetch timing.

:class:`DecayPolicy` holds the configuration and the energy accounting;
the simulator consults it on hits (was the line already decayed?) and
the policy accumulates, per closed generation, how many line-cycles
were spent powered off.

Leakage accounting: a line saves leakage for every cycle it is off.
With generation time G and decay interval T, a line that dies is off
for ``max(0, dead_time - T)`` cycles of its generation (the classic
decay accounting); the headline metric is the fraction of total
line-cycles spent off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError


@dataclass
class DecayStats:
    """Energy/miss accounting for one run."""

    #: Line-cycles spent powered off (leakage saved).
    off_line_cycles: int = 0
    #: Line-cycles observed in closed generations (the denominator).
    total_line_cycles: int = 0
    #: Hits that found a decayed line and became misses.
    induced_misses: int = 0
    #: Lines that decayed and were never re-referenced (free savings).
    clean_decays: int = 0

    @property
    def off_fraction(self) -> float:
        """Fraction of line-cycles spent off (leakage-savings proxy)."""
        if self.total_line_cycles == 0:
            return 0.0
        return self.off_line_cycles / self.total_line_cycles


class DecayPolicy:
    """Decay configuration + accounting for the L1.

    Args:
        decay_interval: Idle cycles after which a line turns off.  The
            original proposal uses a 2-bit counter at a coarse tick
            (e.g. 8K-512K cycle intervals); pass the product here.
    """

    def __init__(self, decay_interval: int) -> None:
        """Refuse a non-positive interval; start with zeroed stats."""
        if decay_interval <= 0:
            raise ConfigError(f"decay_interval must be positive, got {decay_interval}")
        self.decay_interval = decay_interval
        self.stats = DecayStats()

    def is_decayed(self, last_access_time: int, now: int) -> bool:
        """Has a line idle since *last_access_time* decayed by *now*?"""
        return now - last_access_time > self.decay_interval

    def on_decayed_hit(self, fill_time: int, last_access_time: int, now: int) -> None:
        """A would-be hit found the line off: induced miss.

        The line still saved leakage from decay until this re-reference;
        the (truncated) generation's line-cycles enter the denominator
        here since the normal eviction path will not see it.
        """
        self.stats.induced_misses += 1
        self.stats.off_line_cycles += max(0, now - last_access_time - self.decay_interval)
        self.stats.total_line_cycles += now - fill_time

    def on_generation_end(self, live_time: int, dead_time: int) -> None:
        """Close the books on one generation (natural eviction)."""
        self.stats.total_line_cycles += live_time + dead_time
        off = dead_time - self.decay_interval
        if off > 0:
            self.stats.off_line_cycles += off
            self.stats.clean_decays += 1

    def reset_stats(self) -> None:
        """Zero the accounting (warm-up boundary)."""
        self.stats = DecayStats()

"""Victim-cache admission filters (paper Section 4.2).

A victim cache only pays off for blocks that will be re-referenced
while still buffered — i.e. conflict victims.  Admission policies:

- :class:`UnfilteredAdmission`: classic Jouppi victim cache, every
  eviction enters (baseline; hurts capacity-dominated programs).
- :class:`CollinsAdmission`: Collins & Tullsen's conflict detector —
  an extra tag per frame remembers the previous resident; when the
  incoming block *is* that previous resident, the eviction pattern is
  A→B→A thrashing, so the victim is admitted.
- :class:`TimekeepingAdmission`: the paper's filter — admit only
  victims whose dead time is below a threshold, measured by a 2-bit
  per-line counter ticked every 512 cycles and reset on access; admit
  when the counter reads <= 1 (dead time 0..1023 cycles).

:func:`little_law_threshold` implements the paper's Little's-law sizing
argument: pick the dead-time threshold so the number of "active" frames
(those that would pass the filter at any instant) roughly equals the
victim cache's entry count.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from ..cache.block import Frame
from ..common.errors import ConfigError
from .tick import GlobalTicker, VICTIM_FILTER_COUNTER_BITS, saturate


class AdmissionFilter(abc.ABC):
    """Decides whether an evicted block enters the victim cache."""

    name = "base"

    @abc.abstractmethod
    def admit(self, frame: Frame, incoming_block_addr: int, now: int) -> bool:
        """Admit the block being evicted from *frame*?

        Called at the moment a demand miss on *incoming_block_addr*
        evicts the frame's resident; the frame still holds the victim's
        state (times, tags).
        """


class UnfilteredAdmission(AdmissionFilter):
    """Admit every eviction (Jouppi baseline)."""

    name = "unfiltered"

    def admit(self, frame: Frame, incoming_block_addr: int, now: int) -> bool:
        """:meth:`AdmissionFilter.admit`: always."""
        return True


class CollinsAdmission(AdmissionFilter):
    """Admit when the incoming block equals the frame's previous resident.

    Requires one extra tag of storage per cache line (what was here
    before).  Detects A→B→A thrashing, the canonical conflict pattern.
    """

    name = "collins"

    def __init__(self, index_bits: int) -> None:
        """Tags are block addresses shifted right by *index_bits*."""
        self._index_bits = index_bits

    def admit(self, frame: Frame, incoming_block_addr: int, now: int) -> bool:
        """:meth:`AdmissionFilter.admit`: on an A-B-A pattern."""
        incoming_tag = incoming_block_addr >> self._index_bits
        return frame.prev_tag == incoming_tag


class TimekeepingAdmission(AdmissionFilter):
    """Admit when the coarse dead-time counter reads <= max_counter.

    With the paper's 512-cycle tick and ``max_counter=1`` the admitted
    dead-time range is 0..1023 cycles.
    """

    name = "timekeeping"

    def __init__(self, ticker: Optional[GlobalTicker] = None, max_counter: int = 1) -> None:
        """Count dead time on *ticker* (512-cycle ticks by default)."""
        if max_counter < 0:
            raise ConfigError("max_counter must be non-negative")
        self.ticker = ticker if ticker is not None else GlobalTicker()
        self.max_counter = max_counter

    def admit(self, frame: Frame, incoming_block_addr: int, now: int) -> bool:
        """:meth:`AdmissionFilter.admit`: when the dead-time counter is low."""
        ticks = self.ticker.ticks_between(frame.last_access_time, now)
        return saturate(ticks, VICTIM_FILTER_COUNTER_BITS) <= self.max_counter

    @property
    def dead_time_threshold(self) -> int:
        """Upper bound (exclusive) of admitted dead times in cycles."""
        return (self.max_counter + 1) * self.ticker.tick_cycles


class AdaptiveTimekeepingAdmission(AdmissionFilter):
    """Run-time-adaptive dead-time threshold (the paper's §4.2 sketch).

    "Adaptive filtering adjusts the dead time threshold at run-time so
    the number of candidate blocks remains approximately equal to the
    number of the entries in the victim cache."  Implemented as a
    window-based controller: over each window of evictions, compare the
    admitted count against the victim cache's entry count; admit rate
    too high → tighten the counter bound, too low → relax it.  The
    bound stays within what an n-bit counter can express.
    """

    name = "adaptive"

    def __init__(
        self,
        ticker: Optional[GlobalTicker] = None,
        *,
        victim_entries: int = 32,
        window: int = 256,
        counter_bits: int = VICTIM_FILTER_COUNTER_BITS,
        initial_max_counter: int = 1,
    ) -> None:
        """Retune the bound every *window* evictions toward *victim_entries*."""
        if victim_entries < 1:
            raise ConfigError("victim_entries must be >= 1")
        if window < 1:
            raise ConfigError("window must be >= 1")
        self.ticker = ticker if ticker is not None else GlobalTicker()
        self.victim_entries = victim_entries
        self.window = window
        self.counter_bits = counter_bits
        self._max_bound = (1 << counter_bits) - 1
        self.max_counter = initial_max_counter
        self._seen = 0
        self._admitted = 0
        self.adjustments = 0

    def admit(self, frame: Frame, incoming_block_addr: int, now: int) -> bool:
        """:meth:`AdmissionFilter.admit`: as timekeeping, then retune the bound."""
        ticks = self.ticker.ticks_between(frame.last_access_time, now)
        admitted = saturate(ticks, self.counter_bits) <= self.max_counter
        self._seen += 1
        if admitted:
            self._admitted += 1
        if self._seen >= self.window:
            self._adjust()
        return admitted

    def _adjust(self) -> None:
        """End-of-window control step."""
        target = self.victim_entries
        if self._admitted > 2 * target and self.max_counter > 0:
            self.max_counter -= 1
            self.adjustments += 1
        elif self._admitted < target // 2 and self.max_counter < self._max_bound:
            self.max_counter += 1
            self.adjustments += 1
        self._seen = 0
        self._admitted = 0


def make_admission_filter(name: str, *, l1_index_bits: int = 10,
                          tick_cycles: int = 512, max_counter: int = 1,
                          victim_entries: int = 32) -> AdmissionFilter:
    """Build a filter by name: 'unfiltered', 'collins', 'timekeeping',
    'adaptive'."""
    lowered = name.lower()
    if lowered == "unfiltered":
        return UnfilteredAdmission()
    if lowered == "collins":
        return CollinsAdmission(l1_index_bits)
    if lowered == "timekeeping":
        return TimekeepingAdmission(GlobalTicker(tick_cycles), max_counter)
    if lowered == "adaptive":
        return AdaptiveTimekeepingAdmission(
            GlobalTicker(tick_cycles), victim_entries=victim_entries
        )
    raise ConfigError(f"unknown admission filter {name!r}")


def little_law_threshold(
    dead_time_samples: Sequence[int],
    total_frames: int,
    victim_entries: int,
    *,
    candidate_thresholds: Sequence[int] = tuple(256 * (1 << i) for i in range(8)),
) -> int:
    """Pick a dead-time threshold by the paper's Little's-law argument.

    The victim cache can provide associativity to about as many frames
    as it has entries; a threshold T marks a fraction f(T) of evictions
    as "active", and at steady state roughly ``f(T) * total_frames``
    resident blocks meet it.  Choose the largest candidate whose
    expected active-block population does not exceed *victim_entries*.

    In the paper's data a 1K-cycle threshold marks ~3% of 1024 frames —
    about 31 blocks — matching the 32-entry victim cache.
    """
    if not dead_time_samples:
        raise ValueError("need at least one dead-time sample")
    if victim_entries < 1 or total_frames < 1:
        raise ValueError("victim_entries and total_frames must be positive")
    ordered = sorted(dead_time_samples)
    n = len(ordered)
    best = candidate_thresholds[0]
    for threshold in sorted(candidate_thresholds):
        below = _count_below(ordered, threshold)
        active = (below / n) * total_frames
        if active <= victim_entries:
            best = threshold
        else:
            break
    return best


def _count_below(ordered: Sequence[int], threshold: int) -> int:
    """Count of sorted values strictly below *threshold* (binary search)."""
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if ordered[mid] < threshold:
            lo = mid + 1
        else:
            hi = mid
    return lo

"""Prefetching: correlation tables, policies, queue, timeliness accounting."""

from .correlation import CorrelationTable, DBCPTable
from .dbcp import DBCPPrefetchPolicy
from .policy import PrefetchPolicy, ScheduledPrefetch
from .queue import PrefetchQueue
from .timekeeping import TimekeepingPrefetchPolicy
from .timeliness import PendingPrefetch, PrefetchBookkeeper, TimelinessCounts

__all__ = [
    "CorrelationTable",
    "DBCPTable",
    "DBCPPrefetchPolicy",
    "PrefetchPolicy",
    "ScheduledPrefetch",
    "PrefetchQueue",
    "TimekeepingPrefetchPolicy",
    "PendingPrefetch",
    "PrefetchBookkeeper",
    "TimelinessCounts",
]

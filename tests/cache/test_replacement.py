"""Tests for the cache's LRU replacement.

That a hit refreshes recency is pinned by
``tests/cache/test_cache.py::TestPolicies::test_lru_respects_hits``.
"""

from repro.cache.cache import SetAssociativeCache
from repro.common.config import CacheConfig


def full_set_with_stamps(stamps):
    """A one-set cache whose ways hold blocks 0.. with the given LRU stamps."""
    cache = SetAssociativeCache(CacheConfig(len(stamps) * 32, len(stamps), 32))
    for block, stamp in enumerate(stamps):
        cache.access(block, block)
        cache.probe(block).lru_stamp = stamp
    return cache


class TestLRU:
    def test_picks_smallest_stamp(self):
        cache = full_set_with_stamps([5, 2, 9])
        assert cache.choose_victim(3).way == 1

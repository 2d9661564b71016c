"""Tests for the set-associative cache mechanism."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.common.config import CacheConfig
from repro.common.types import KB


def tiny_cache(assoc=2, sets=4, block=32):
    return SetAssociativeCache(CacheConfig(sets * assoc * block, assoc, block))


class TestAddressing:
    def test_block_address(self):
        c = tiny_cache()
        assert c.block_address(0x100) == 0x100 >> 5

    def test_set_and_tag(self):
        c = tiny_cache(assoc=2, sets=4)
        block = 0b10110  # set = 0b10, tag = 0b101
        assert c.set_index_of(block) == 0b10
        assert c.tag_of(block) == 0b101


class TestAccessProtocol:
    def test_miss_then_hit(self):
        c = tiny_cache()
        assert c.probe(5) is None
        victim = c.choose_victim(5)
        c.fill(victim, 5, now=10)
        frame = c.probe(5)
        assert frame is victim
        c.touch(frame, 20)
        assert c.hits == 1
        assert c.misses == 1

    def test_access_convenience(self):
        c = tiny_cache()
        assert c.access(5, 1) is False
        assert c.access(5, 2) is True

    def test_fill_prefers_invalid_way(self):
        c = tiny_cache(assoc=2)
        c.access(0, 1)       # set 0
        v = c.choose_victim(4)  # set 0 again (4 sets): block 4 -> set 0
        assert not v.valid

    def test_lru_eviction_order(self):
        c = tiny_cache(assoc=2, sets=1)
        c.access(0, 1)
        c.access(1, 2)
        c.access(0, 3)       # 0 is now MRU
        v = c.choose_victim(2)
        assert v.block_addr == 1

    def test_eviction_counts(self):
        c = tiny_cache(assoc=1, sets=1)
        c.access(0, 1)
        c.access(1, 2)
        assert c.evictions == 1
        assert c.misses == 2

    def test_conflict_within_one_set(self):
        c = tiny_cache(assoc=1, sets=4)
        c.access(0, 1)       # set 0
        c.access(4, 2)       # set 0 (4 sets) -> evicts block 0
        assert c.probe(0) is None
        assert c.probe(4) is not None
        assert c.probe(1) is None  # other sets untouched

    def test_prefetched_fill_not_counted_as_demand_miss(self):
        c = tiny_cache()
        v = c.choose_victim(9)
        c.fill(v, 9, now=1, prefetched=True)
        assert c.misses == 0
        assert c.probe(9).prefetched

    def test_store_fill_sets_dirty(self):
        c = tiny_cache()
        v = c.choose_victim(3)
        c.fill(v, 3, now=1, store=True)
        assert c.probe(3).dirty

    def test_invalidate(self):
        c = tiny_cache()
        c.access(7, 1)
        f = c.invalidate(7)
        assert f is not None
        assert c.probe(7) is None
        assert c.invalidate(7) is None


class TestPolicies:
    def test_lru_respects_hits(self):
        c = SetAssociativeCache(CacheConfig(2 * 32, 2, 32))
        c.access(0, 1)
        c.access(1, 2)
        c.access(0, 3)
        assert c.choose_victim(2).block_addr == 1


class TestIntrospection:
    def test_frames_count(self):
        c = tiny_cache(assoc=2, sets=4)
        assert len(list(c.frames())) == 8

    def test_resident_blocks(self):
        c = tiny_cache()
        c.access(3, 1)
        c.access(9, 2)
        assert set(c.resident_blocks()) == {3, 9}

    def test_miss_rate(self):
        c = tiny_cache()
        assert c.miss_rate() == 0.0
        c.access(0, 1)
        c.access(0, 2)
        assert c.miss_rate() == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        c = tiny_cache()
        c.access(0, 1)
        c.reset_stats()
        assert c.misses == 0
        assert c.probe(0) is not None

    def test_paper_l1_shape(self):
        c = SetAssociativeCache(CacheConfig(32 * KB, 1, 32))
        assert c.num_sets == 1024
        assert c.associativity == 1

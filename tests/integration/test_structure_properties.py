"""Property-based tests on the core data structures."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.classify.lru_stack import LRUStack
from repro.common.config import CacheConfig
from repro.common.stats import Histogram
from repro.core.generations import GenerationTracker
from repro.core.prefetch.correlation import CorrelationTable, DBCPTable


class TestCorrelationTableProperties:
    @given(st.lists(st.tuples(
        st.integers(0, 63), st.integers(0, 63), st.integers(0, 1023),
        st.integers(0, 63), st.integers(0, 31),
    ), max_size=300))
    def test_capacity_never_exceeded(self, updates):
        t = CorrelationTable(tag_sum_bits=3, index_bits=1, associativity=2)
        for a, b, s, n, lt in updates:
            t.update(a, b, s, n, lt)
        for entries in t._sets:
            assert len(entries) <= t.associativity

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 1023),
           st.integers(0, 63), st.integers(0, 31))
    def test_double_teach_always_recallable(self, a, b, s, n, lt):
        t = CorrelationTable()
        t.update(a, b, s, n, lt)
        t.update(a, b, s, n, lt)
        assert t.lookup(a, b, s) == (n, lt)

    @given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**30)),
                    min_size=1, max_size=200))
    def test_dbcp_capacity_bounded(self, updates):
        t = DBCPTable(pointer_bits=3, associativity=2)
        for sig, nxt in updates:
            t.update(sig, nxt)
        for entries in t._sets:
            assert len(entries) <= 2


class TestGenerationTrackerProperties:
    @given(st.lists(st.tuples(
        st.integers(0, 7),        # frame
        st.integers(0, 15),       # block
        st.integers(1, 100),      # time delta
    ), min_size=1, max_size=200))
    def test_generation_time_partitions(self, events):
        """For every closed generation: live + dead == evict - fill,
        regardless of the fill/hit/evict interleaving."""
        tracker = GenerationTracker(keep_records=True)
        resident = {}  # frame -> (block, fill_time, last_hit or fill, hits)
        now = 0
        for frame, block, delta in events:
            now += delta
            if frame in resident:
                res_block, fill, last, hits = resident[frame]
                if res_block == block:
                    tracker.on_hit(frame, now)
                    resident[frame] = (res_block, fill, now, hits + 1)
                    continue
                live = last - fill if hits else 0
                tracker.on_evict(frame, res_block, fill, live, now, hit_count=hits)
            tracker.on_fill(frame, block, now)
            resident[frame] = (block, now, now, 0)
        for rec in tracker.records:
            assert rec.live_time + rec.dead_time == rec.generation_time
            assert rec.live_time >= 0
            assert rec.dead_time >= 0
            assert rec.max_access_interval <= rec.generation_time


class TestHistogramProperties:
    @given(st.lists(st.integers(0, 20_000), max_size=200),
           st.lists(st.integers(0, 20_000), max_size=200))
    def test_merge_is_commutative(self, xs, ys):
        a, b = Histogram(100, 50), Histogram(100, 50)
        a.extend(xs)
        b.extend(ys)
        ab, ba = a.merged(b), b.merged(a)
        assert ab.counts == ba.counts
        assert ab.overflow == ba.overflow
        assert ab.total == ba.total

    @given(st.lists(st.integers(0, 20_000), min_size=1, max_size=200))
    def test_merge_with_empty_is_identity(self, xs):
        a, empty = Histogram(100, 50), Histogram(100, 50)
        a.extend(xs)
        merged = a.merged(empty)
        assert merged.counts == a.counts
        assert merged.mean == a.mean


class TestCacheInclusionProperties:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    def test_higher_associativity_never_more_misses_same_capacity(self, blocks):
        """With LRU and equal capacity, a fully-associative cache misses
        more than a direct-mapped one only on references whose stack
        distance reaches the capacity: it hits exactly the re-references
        with distance < 16 (LRU stack inclusion), so every direct-mapped
        hit below that distance is a fully-associative hit too."""
        dm = SetAssociativeCache(CacheConfig(16 * 32, 1, 32))
        fa = SetAssociativeCache(CacheConfig(16 * 32, 16, 32))
        stack = LRUStack()
        far_dm_hits = 0
        for i, b in enumerate(blocks):
            d = stack.reference(b)
            dm_hit = dm.access(b, i)
            assert fa.access(b, i) == (d is not None and d < 16)
            far_dm_hits += dm_hit and d >= 16
        assert fa.misses <= dm.misses + far_dm_hits

    def test_direct_mapped_can_miss_less_at_same_capacity(self):
        """The stack-distance term above is needed: 17 blocks cycling
        through 16 lines evict block 4 from the fully-associative cache,
        while the direct-mapped cache keeps it in its own set."""
        dm = SetAssociativeCache(CacheConfig(16 * 32, 1, 32))
        fa = SetAssociativeCache(CacheConfig(16 * 32, 16, 32))
        for i, b in enumerate([4, 0, 1, 2, 3, *range(5, 17), 4]):
            dm.access(b, i)
            fa.access(b, i)
        assert (dm.misses, fa.misses) == (17, 18)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    def test_resident_set_bounded_by_capacity(self, blocks):
        c = SetAssociativeCache(CacheConfig(8 * 32, 2, 32))
        for i, b in enumerate(blocks):
            c.access(b, i)
        assert len(list(c.resident_blocks())) <= 8

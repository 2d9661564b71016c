"""Tests for generational bookkeeping (paper Figure 3 semantics)."""

import pytest

from repro.core.generations import GenerationTracker


class TestSingleGeneration:
    def test_live_and_dead_time(self):
        g = GenerationTracker()
        g.on_fill(0, block_addr=100, now=1000)
        g.on_hit(0, 1010)
        g.on_hit(0, 1050)
        rec = g.on_evict(0, 100, fill_time=1000, live_time=50, now=1500, hit_count=2)
        assert rec.live_time == 50
        assert rec.dead_time == 450
        assert rec.generation_time == 500
        assert rec.hit_count == 2

    def test_zero_live_time_generation(self):
        g = GenerationTracker()
        g.on_fill(0, 100, now=0)
        rec = g.on_evict(0, 100, fill_time=0, live_time=0, now=300)
        assert rec.live_time == 0
        assert rec.dead_time == 300
        assert rec.generation_time == rec.dead_time

    def test_access_intervals(self):
        g = GenerationTracker()
        g.on_fill(0, 100, now=0)
        assert g.on_hit(0, 10) == 10
        assert g.on_hit(0, 15) == 5
        assert g.on_hit(0, 100) == 85

    def test_max_access_interval_recorded(self):
        g = GenerationTracker()
        g.on_fill(0, 100, now=0)
        g.on_hit(0, 10)
        g.on_hit(0, 200)
        g.on_hit(0, 210)
        rec = g.on_evict(0, 100, fill_time=0, live_time=210, now=500)
        assert rec.max_access_interval == 190


class TestReloadInterval:
    def test_first_generation_has_none(self):
        g = GenerationTracker()
        assert g.on_fill(0, 100, now=0) is None

    def test_reload_interval_between_generations(self):
        g = GenerationTracker()
        g.on_fill(0, 100, now=0)
        g.on_evict(0, 100, fill_time=0, live_time=0, now=50)
        assert g.on_fill(0, 100, now=800) == 800

    def test_reload_interval_across_frames(self):
        """Reload interval follows the *block*, not the frame."""
        g = GenerationTracker()
        g.on_fill(3, 100, now=0)
        g.on_evict(3, 100, fill_time=0, live_time=0, now=50)
        assert g.on_fill(7, 100, now=600) == 600

    def test_reload_interval_at(self):
        g = GenerationTracker()
        assert g.reload_interval_at(100, 500) is None
        g.on_fill(0, 100, now=100)
        g.on_evict(0, 100, fill_time=100, live_time=0, now=150)
        assert g.reload_interval_at(100, 500) == 400


class TestLastGeneration:
    def test_miss_time_lookup(self):
        g = GenerationTracker()
        g.on_fill(0, 100, now=0)
        g.on_hit(0, 20)
        g.on_evict(0, 100, fill_time=0, live_time=20, now=120, hit_count=1)
        last = g.last_generation(100)
        assert last.start == 0
        assert last.live_time == 20
        assert last.dead_time == 100

    def test_unknown_block(self):
        assert GenerationTracker().last_generation(42) is None


class TestHistoryAndCallbacks:
    def test_prev_live_time_chain(self):
        records = []
        g = GenerationTracker(on_generation=records.append)
        g.on_fill(0, 100, now=0)
        g.on_evict(0, 100, fill_time=0, live_time=30, now=50)
        g.on_fill(0, 100, now=100)
        rec = g.on_evict(0, 100, fill_time=100, live_time=35, now=200)
        assert rec.prev_live_time == 30
        assert records[0].prev_live_time is None

    def test_callback_invoked(self):
        seen = []
        g = GenerationTracker(on_generation=seen.append)
        g.on_fill(0, 100, now=0)
        g.on_evict(0, 100, fill_time=0, live_time=0, now=10)
        assert len(seen) == 1
        assert seen[0].block_addr == 100

    def test_closed_generation_count(self):
        g = GenerationTracker()
        for i in range(5):
            g.on_fill(0, i, now=i * 100)
            g.on_evict(0, i, fill_time=i * 100, live_time=0, now=i * 100 + 50)
        assert g.closed_generations == 5

    def test_independent_frames(self):
        g = GenerationTracker()
        g.on_fill(0, 100, now=0)
        g.on_fill(1, 200, now=5)
        assert g.on_hit(0, 10) == 10
        assert g.on_hit(1, 10) == 5

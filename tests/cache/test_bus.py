"""Tests for the bus contention model."""

import pytest

from repro.cache.bus import Bus
from repro.common.config import BusConfig


def make_bus(width=32, ratio=1, shadow=0):
    return Bus(BusConfig(width, ratio), demand_shadow=shadow)


class TestDemandTraffic:
    def test_uncontended_transfer(self):
        bus = make_bus()
        assert bus.request(10, 32) == 11

    def test_back_to_back_serialize(self):
        bus = make_bus()
        first = bus.request(0, 32)
        second = bus.request(0, 32)
        assert first == 1
        assert second == 2  # waits for the bus

    def test_idle_gap_no_wait(self):
        bus = make_bus()
        bus.request(0, 32)
        assert bus.request(100, 32) == 101

    def test_wait_cycles_accounted(self):
        bus = make_bus()
        bus.request(0, 32)
        bus.request(0, 32)
        assert bus.demand_wait_cycles == 1

    def test_slow_bus_ratio(self):
        bus = make_bus(width=64, ratio=5)
        assert bus.request(0, 64) == 5
        assert bus.request(0, 128) == 15


class TestPrefetchPriority:
    def test_prefetch_waits_demand_shadow(self):
        bus = make_bus(shadow=10)
        bus.request(0, 32)               # demand ends at 1
        done = bus.request(2, 32, prefetch=True)
        assert done == 11 + 1            # starts at 1+10, takes 1

    def test_prefetch_without_recent_demand(self):
        bus = make_bus(shadow=10)
        assert bus.request(50, 32, prefetch=True) == 51

    def test_prefetch_does_not_extend_demand_shadow(self):
        bus = make_bus(shadow=10)
        bus.request(0, 32, prefetch=True)
        # No demand happened; the next prefetch is not shadow-delayed.
        assert bus.request(5, 32, prefetch=True) == 6

    def test_counters(self):
        bus = make_bus()
        bus.request(0, 32)
        bus.request(0, 32, prefetch=True)
        assert bus.demand_transfers == 1
        assert bus.prefetch_transfers == 1


class TestStats:
    def test_reset_stats_keeps_occupancy(self):
        bus = make_bus()
        bus.request(0, 32)
        bus.reset_stats()
        assert bus.demand_transfers == 0
        # occupancy survives: a request at 0 still queues behind free_at
        assert bus.request(0, 32) == 2

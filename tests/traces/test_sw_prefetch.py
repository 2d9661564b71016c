"""Tests for software-prefetch injection/stripping."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.common.types import AccessType
from repro.traces.trace import TraceBuilder


def plain_trace(n=12, gap=3):
    b = TraceBuilder(name="p")
    for i in range(n):
        b.add(i * 32, gap=gap)
    return b.build()


class TestInjection:
    def test_period_and_distance(self):
        t = plain_trace(8).with_software_prefetches(distance=128, period=4)
        kinds = t.kinds.tolist()
        assert kinds.count(int(AccessType.SW_PREFETCH)) == 2
        # First injected record prefetches 128 bytes ahead of access 0.
        assert t.addresses[0] == 128
        assert t.kinds[0] == int(AccessType.SW_PREFETCH)
        assert t.addresses[1] == 0

    def test_time_preserved(self):
        base = plain_trace(10, gap=5)
        annotated = base.with_software_prefetches(period=3)
        assert annotated.total_gap_cycles == base.total_gap_cycles

    def test_strip_round_trip(self):
        base = plain_trace(10, gap=5)
        stripped = base.with_software_prefetches(period=2).without_software_prefetches()
        assert np.array_equal(stripped.addresses, base.addresses)
        assert stripped.total_gap_cycles == base.total_gap_cycles

    def test_existing_prefetches_not_doubled(self):
        b = TraceBuilder()
        b.add(0, kind=AccessType.SW_PREFETCH, gap=1)
        b.add(32, gap=1)
        t = b.build().with_software_prefetches(period=1)
        # Only the demand access gains a prefetch companion.
        assert t.kinds.tolist().count(int(AccessType.SW_PREFETCH)) == 2

    def test_validation(self):
        with pytest.raises(TraceError):
            plain_trace().with_software_prefetches(distance=0)
        with pytest.raises(TraceError):
            plain_trace().with_software_prefetches(period=0)

    def test_name_annotated(self):
        assert plain_trace().with_software_prefetches().name == "p+swpf"

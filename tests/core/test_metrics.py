"""Tests for the timekeeping metric collectors."""

import base64
import json
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.common.stats import Histogram
from repro.common.types import MissClass
from repro.core.generations import GenerationRecord
from repro.core.metrics import NUM_BINS, RELOAD_BIN, TIME_BIN, TimekeepingMetrics


def record(live=10, dead=100, block=1, start=0, hits=1, max_int=5, prev=None):
    return GenerationRecord(
        block_addr=block, start=start, live_time=live, dead_time=dead,
        hit_count=hits, max_access_interval=max_int, prev_live_time=prev,
    )


class TestGenerationFeed:
    def test_histograms_populated(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=50, dead=5000))
        assert m.live_time.total == 1
        assert m.dead_time.total == 1
        assert m.fraction_live_below(TIME_BIN) == 1.0
        assert m.fraction_dead_below(TIME_BIN) == 0.0

    def test_zero_live_fraction(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=0))
        m.on_generation(record(live=10))
        assert m.zero_live_fraction() == pytest.approx(0.5)

    def test_zero_live_fraction_empty(self):
        assert TimekeepingMetrics().zero_live_fraction() == 0.0

    def test_live_time_pairs_collected(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=10, prev=None))
        m.on_generation(record(live=20, prev=10))
        assert m.live_time_pairs == [(10, 20)]

    def test_generations_kept(self):
        m = TimekeepingMetrics()
        m.on_generation(record(block=7, start=3, live=10, dead=100, prev=4))
        assert m.generations == [record(block=7, start=3, live=10, dead=100, prev=4)]
        assert m.generation_columns.prev_live_time.tolist() == [4]
        assert m.total_generations == 1


class TestMissCorrelations:
    def test_split_by_class(self):
        m = TimekeepingMetrics()
        m.on_miss_correlation(MissClass.CONFLICT, 500, 200, 0)
        m.on_miss_correlation(MissClass.CAPACITY, 500_000, 90_000, 400)
        assert m.reload_by_class[MissClass.CONFLICT].total == 1
        assert m.reload_by_class[MissClass.CAPACITY].total == 1
        assert m.dead_by_class[MissClass.CONFLICT].fraction_below(TIME_BIN * 100) == 1.0
        assert len(m.miss_correlations) == 2

    def test_cold_not_split(self):
        m = TimekeepingMetrics()
        m.on_miss_correlation(MissClass.COLD, 100, 100, 0)
        assert m.reload_by_class[MissClass.CONFLICT].total == 0
        assert m.reload_interval.total == 1

    def test_reload_histogram_bin_width(self):
        m = TimekeepingMetrics()
        m.on_miss_correlation(MissClass.CAPACITY, RELOAD_BIN - 1, 0, 0)
        assert m.reload_interval.counts[0] == 1


class TestRatios:
    def test_live_time_ratios(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=20, prev=10))
        m.on_generation(record(live=5, prev=10))
        assert list(m.generation_columns.live_time_ratios()) == [2.0, 0.5]

    def test_zero_live_times_mapped_to_one(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=0, prev=0))
        assert list(m.generation_columns.live_time_ratios()) == [1.0]

    def test_access_interval_feed(self):
        m = TimekeepingMetrics()
        m.on_access_interval(50)
        m.on_access_interval(150)
        assert m.access_interval.total == 2
        assert m.access_interval.counts[0] == 1
        assert m.access_interval.counts[1] == 1


#: Non-negative values, with draws at and past the int32 range.
COUNTS = st.one_of(st.integers(0, 10**6),
                   st.sampled_from([2**31 - 1, 2**31, 2**32 + 7, 2**50]))
GENERATION = st.tuples(
    COUNTS, COUNTS, COUNTS,
    st.one_of(COUNTS, st.integers(-1000, -1)),  # a negative dead time
    COUNTS, COUNTS,
    st.one_of(st.just(-1), COUNTS),  # -1: no previous live time
)
CORRELATION = st.tuples(st.sampled_from([int(m) for m in MissClass]),
                        COUNTS, COUNTS, COUNTS)


def _table(rows, width):
    return np.array(rows, dtype=np.int64).reshape(-1, width).T.copy()


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(GENERATION, max_size=30), st.lists(CORRELATION, max_size=30))
    @example([], [])
    @example([(2**31, 0, 2**32, -5, 1, 2**31, -1)],
             [(int(m), 2**31, 0, 2**32) for m in MissClass])
    def test_round_trip_is_bit_exact(self, generations, correlations):
        m = TimekeepingMetrics()
        m.bulk_generations(_table(generations, 7))
        m.bulk_correlations(_table(correlations, 4))
        data = m.to_dict()
        back = TimekeepingMetrics.from_dict(json.loads(json.dumps(data)))
        for got, want in ((back.generation_columns, m.generation_columns),
                          (back.correlation_columns, m.correlation_columns)):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == np.int64
                assert a.tobytes() == b.tobytes()
        assert back.to_dict() == data

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:8] + ("B" if blob[8] != "B" else "C") + blob[9:],
        lambda blob: [[1, 2, 3]],  # a version 1 row list
        lambda blob: base64.b64encode(zlib.compress(b"\0")).decode(),  # 1 byte
    ], ids=["flipped byte", "row list", "short table"])
    def test_a_table_that_does_not_decode_raises(self, damage):
        m = TimekeepingMetrics()
        m.on_generation(record())
        data = m.to_dict()
        data["generations"] = damage(data["generations"])
        with pytest.raises(SimulationError):
            TimekeepingMetrics.from_dict(data)


class TestNegativeDeadTime:
    """A prefetch arrival before its fill closes a generation with a
    negative dead time: the columns keep it exactly, and a histogram
    over it refuses it on read instead of binning it."""

    @pytest.mark.parametrize("dead", [-1, -10_001])
    def test_kept_exactly_and_refused_on_read(self, dead):
        m = TimekeepingMetrics()
        m.bulk_generations(_table([(1, 0, 10, dead, 1, 5, -1)], 7))
        m.bulk_correlations(_table([(int(MissClass.CONFLICT), 500, dead, 10)], 4))
        back = TimekeepingMetrics.from_dict(json.loads(json.dumps(m.to_dict())))
        for got, want in ((back.generation_columns, m.generation_columns),
                          (back.correlation_columns, m.correlation_columns)):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        for bank in (m, back):
            assert bank.generation_columns.dead_time.tolist() == [dead]
            assert bank.correlation_columns.last_dead_time.tolist() == [dead]
            with pytest.raises(ValueError, match="non-negative"):
                bank.dead_time
            with pytest.raises(ValueError, match="non-negative"):
                bank.dead_by_class
            assert bank.live_time.total == bank.reload_interval.total == 1


#: Non-negative generation rows, for the histogram views.
BINNABLE_GENERATION = st.tuples(*[COUNTS] * 6, st.one_of(st.just(-1), COUNTS))
EDGES = [(1, 0, v, v, 0, 0, -1) for v in (0, 99, 100, 9_999, 10_000)]
EDGE_CORRELATIONS = [
    (int(c), reload, dead, 0)
    for c in (MissClass.CONFLICT, MissClass.CAPACITY)
    for reload, dead in ((0, 0), (999, 99), (1_000, 100), (99_999, 9_999),
                         (100_000, 10_000))
]


def _reference(bin_width, values):
    """The histogram a loop of Histogram.add builds over *values*."""
    out = Histogram(bin_width, NUM_BINS)
    for value in values:
        out.add(value)
    return out


class TestHistogramViews:
    """Every histogram and counter is computed from the columns on read,
    and equals the one a per-row Histogram.add loop builds."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(BINNABLE_GENERATION, max_size=30),
           st.lists(CORRELATION, max_size=30), st.integers(1, 4))
    @example([], [], 1)  # an empty bank
    @example(EDGES, EDGE_CORRELATIONS, 3)  # values on bin edges
    @example([(1, 0, 10**6, 2**40, 1, 0, 5)],  # values in the overflow bin
             [(int(MissClass.CAPACITY), 10**8, 10**6, 7),
              (int(MissClass.COLD), 2**40, 0, 0)], 2)
    def test_views_equal_a_sequential_reference(self, generations, correlations,
                                                chunks):
        def pieces(rows):  # *chunks* consecutive pieces
            size = -(-len(rows) // chunks) or 1
            return [rows[at:at + size] for at in range(0, chunks * size, size)]

        # Fed alternately in bulk and row by row.
        m = TimekeepingMetrics()
        for i, (gens, cors) in enumerate(zip(pieces(generations),
                                             pieces(correlations))):
            if i % 2:
                for *fields, prev in gens:
                    m.on_generation(GenerationRecord(*fields, None if prev < 0 else prev))
                for cls, *rest in cors:
                    m.on_miss_correlation(MissClass(cls), *rest)
            else:
                m.bulk_generations(_table(gens, 7))
                m.bulk_correlations(_table(cors, 4))
        by_class = {c: [row for row in correlations if row[0] == c]
                    for c in (MissClass.CONFLICT, MissClass.CAPACITY)}
        pairs = [
            (m.live_time, _reference(TIME_BIN, [g[2] for g in generations])),
            (m.dead_time, _reference(TIME_BIN, [g[3] for g in generations])),
            (m.reload_interval, _reference(RELOAD_BIN, [c[1] for c in correlations])),
        ]
        for c, rows in by_class.items():
            pairs += [
                (m.reload_by_class[c], _reference(RELOAD_BIN, [r[1] for r in rows])),
                (m.dead_by_class[c], _reference(TIME_BIN, [r[2] for r in rows])),
            ]
        for got, want in pairs:
            assert (got.bin_width, got.num_bins) == (want.bin_width, want.num_bins)
            assert got.counts == want.counts
            assert got.overflow == want.overflow
            assert got.total == want.total
            assert got.to_dict()["sum"].hex() == want.to_dict()["sum"].hex()
        assert list(m.reload_by_class) == list(m.dead_by_class) == list(by_class)
        assert m.total_generations == len(generations)
        assert m.zero_live_generations == sum(1 for g in generations if g[2] == 0)

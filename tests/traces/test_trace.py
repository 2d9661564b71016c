"""Tests for the Trace container and builder."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import TraceError
from repro.common.types import AccessType, MemoryAccess
from repro.traces import trace_io
from repro.traces.trace import COLUMN_DTYPES, Trace, TraceBuilder


def make_simple(n=5):
    b = TraceBuilder(name="t")
    for i in range(n):
        b.add(i * 32, pc=0x100 + i, kind=AccessType.LOAD, gap=i)
    return b.build()


class TestTraceBuilder:
    def test_build_roundtrip(self):
        t = make_simple()
        assert len(t) == 5
        assert t.addresses.tolist() == [0, 32, 64, 96, 128]
        assert t.gaps.tolist() == [0, 1, 2, 3, 4]

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            TraceBuilder().add(-5)

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError):
            TraceBuilder().add(0, gap=-1)

    @pytest.mark.parametrize("address,fields", [
        (2**63, {}),
        (0, {"pc": 2**64}),
        (0, {"gap": 2**31}),
        (0, {"kind": 300}),
    ], ids=["address", "pc", "gap", "kind"])
    def test_value_its_column_cannot_hold_rejected(self, address, fields):
        with pytest.raises(TraceError):
            TraceBuilder().add(address, **fields)

    def test_column_extremes_accepted(self):
        b = TraceBuilder()
        b.add(2**63 - 1, pc=-(2**63), kind=AccessType.SW_PREFETCH, gap=2**31 - 1)
        b.add(0, pc=2**63 - 1, gap=0)
        addresses, pcs, kinds, gaps = b.build().to_arrays()
        assert addresses.tolist() == [2**63 - 1, 0]
        assert pcs.tolist() == [-(2**63), 2**63 - 1]
        assert kinds.tolist() == [2, 0]
        assert gaps.tolist() == [2**31 - 1, 0]

    def test_build_snapshots(self):
        b = TraceBuilder()
        b.add(1)
        t1 = b.build()
        b.add(2)
        t2 = b.build()
        assert len(t1) == 1
        assert len(t2) == 2

    def test_len(self):
        b = TraceBuilder()
        assert len(b) == 0
        b.add(0)
        assert len(b) == 1


class TestTrace:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(TraceError):
            Trace([1, 2], [0], [0, 0], [1, 1])

    def test_iteration_yields_memory_access(self):
        t = make_simple(3)
        accs = list(t)
        assert all(isinstance(a, MemoryAccess) for a in accs)
        assert accs[1].address == 32

    def test_getitem(self):
        t = make_simple(3)
        assert t[2].address == 64
        assert t[2].pc == 0x102

    def test_rows_fast_path_matches_iteration(self):
        t = make_simple(4)
        rows = list(t.rows())
        assert rows == [(a.address, a.pc, int(a.kind), a.gap) for a in t]

    def test_from_accesses(self):
        accs = [MemoryAccess(10, gap=2), MemoryAccess(20, kind=AccessType.STORE)]
        t = Trace.from_accesses(accs, name="x")
        assert t.name == "x"
        assert t.kinds.tolist() == [0, 1]

    def test_total_gap_cycles(self):
        assert make_simple(5).total_gap_cycles == 0 + 1 + 2 + 3 + 4

    def test_sliced(self):
        t = make_simple(5)
        s = t.sliced(1, 3)
        assert s.addresses.tolist() == [32, 64]

    def test_concatenated(self):
        t = make_simple(2)
        joined = t.concatenated(t)
        assert len(joined) == 4
        assert joined.addresses.tolist() == [0, 32, 0, 32]

    def test_to_arrays(self):
        addrs, pcs, kinds, gaps = make_simple(3).to_arrays()
        assert addrs.tolist() == [0, 32, 64]
        assert gaps.dtype.kind == "i"

    def test_footprint_blocks(self):
        b = TraceBuilder()
        for addr in (0, 8, 16, 32, 64):
            b.add(addr)
        assert b.build().footprint_blocks(32) == 3

    def test_without_software_prefetches_preserves_time(self):
        b = TraceBuilder()
        b.add(0, gap=5)
        b.add(32, kind=AccessType.SW_PREFETCH, gap=3)
        b.add(64, gap=2)
        t = b.build().without_software_prefetches()
        assert len(t) == 2
        assert t.gaps.tolist() == [5, 5]  # dropped record's gap folded forward
        assert t.total_gap_cycles == 10

    def test_without_software_prefetches_trailing_prefetch(self):
        b = TraceBuilder()
        b.add(0, gap=1)
        b.add(32, kind=AccessType.SW_PREFETCH, gap=9)
        t = b.build().without_software_prefetches()
        assert len(t) == 1  # trailing prefetch gap is dropped with it

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=100),
    ), min_size=1, max_size=100))
    def test_roundtrip_property(self, rows):
        b = TraceBuilder()
        for addr, gap in rows:
            b.add(addr, gap=gap)
        t = b.build()
        assert len(t) == len(rows)
        assert t.addresses.tolist() == [r[0] for r in rows]
        assert t.total_gap_cycles == sum(r[1] for r in rows)


def make_array_trace(n=5):
    return Trace(
        np.arange(n, dtype=np.int64) * 32,
        np.arange(n, dtype=np.int64) + 0x100,
        np.zeros(n, dtype=np.int8),
        np.arange(n, dtype=np.int32),
        name="arr",
    )


class TestArrayBackedTrace:
    def test_rows_yield_plain_ints(self):
        # the simulator's hot loop does bit arithmetic on these; numpy
        # scalars would silently change its performance profile
        for row in make_array_trace(3).rows():
            assert all(type(v) is int for v in row)

    def test_rows_match_list_mode(self):
        assert list(make_array_trace(5).rows()) == list(make_simple(5).rows())

    def test_rows_work_on_readonly_arrays(self):
        t = make_array_trace(4)
        for col in (t.addresses, t.pcs, t.kinds, t.gaps):
            col.flags.writeable = False
        assert len(list(t.rows())) == 4

    def test_getitem_returns_python_ints(self):
        acc = make_array_trace(3)[2]
        assert type(acc.address) is int
        assert acc.address == 64

    def test_columns_normalized_to_canonical_dtypes(self):
        t = Trace(
            np.arange(3, dtype=np.uint32),
            [0, 0, 0],  # mixed list/array input: all become arrays
            np.zeros(3, dtype=np.int64),
            np.ones(3, dtype=np.int8),
        )
        for col, dtype in zip((t.addresses, t.pcs, t.kinds, t.gaps), COLUMN_DTYPES):
            assert col.dtype == dtype

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TraceError):
            Trace(np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.int64),
                  np.zeros(2, dtype=np.int8), np.zeros(2, dtype=np.int32))

    def test_sliced_stays_array_backed(self):
        s = make_array_trace(5).sliced(1, 3)
        assert s.addresses.dtype == COLUMN_DTYPES[0]
        assert s.addresses.tolist() == [32, 64]

    def test_concatenated_mixed_modes(self):
        arr = make_array_trace(2)
        lst = make_simple(2)
        for joined in (arr.concatenated(lst), lst.concatenated(arr)):
            assert len(joined) == 4
            assert joined.addresses.dtype == COLUMN_DTYPES[0]
            assert joined.addresses.tolist() == [0, 32, 0, 32]

    def test_footprint_blocks(self):
        assert make_array_trace(5).footprint_blocks(64) == \
            make_simple(5).footprint_blocks(64)

    def test_to_arrays_returns_views(self):
        t = make_array_trace(4)
        addrs, _pcs, _kinds, _gaps = t.to_arrays()
        assert addrs is t.addresses  # the column itself, not a copy

    def test_without_software_prefetches_on_arrays(self):
        t = Trace(
            np.asarray([0, 32, 64], dtype=np.int64),
            np.zeros(3, dtype=np.int64),
            np.asarray([0, int(AccessType.SW_PREFETCH), 0], dtype=np.int8),
            np.asarray([5, 3, 2], dtype=np.int32),
        ).without_software_prefetches()
        assert len(t) == 2
        assert t.gaps.tolist() == [5, 5]
        assert t.total_gap_cycles == 10


def _traces_by_origin(tmp_path):
    """One trace from each way of making one."""
    from repro.traces.cache import TraceCache
    from repro.traces.workloads import build_workload

    binary = tmp_path / "t.npz"
    trace_io.save_binary(make_simple(4), binary)
    text = tmp_path / "t.txt"
    trace_io.save_text(make_simple(4), text)
    return {
        "built": make_simple(4),
        "arrays": make_array_trace(4),
        "synthesized": build_workload("gzip", length=200),
        "cache": TraceCache(root=tmp_path / "cache").get_or_build("gzip", 200, 0),
        "load_binary": trace_io.load_binary(binary),
        "load_text": trace_io.load_text(text),
        "sliced": make_array_trace(6).sliced(1, 4),
        "concatenated": make_array_trace(2).concatenated(make_simple(2)),
    }


class TestImmutability:
    """The constructor keeps read-only views of its columns: no trace's
    data can change under a consumer that memoized something derived
    from it, while an array a caller passed in stays the caller's."""

    @pytest.mark.parametrize("origin", [
        "built", "arrays", "synthesized", "cache", "load_binary", "load_text",
        "sliced", "concatenated",
    ])
    def test_every_column_refuses_writes(self, tmp_path, origin):
        t = _traces_by_origin(tmp_path)[origin]
        for col in t.to_arrays():
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1

    def test_callers_array_stays_writable(self):
        addresses = np.arange(3, dtype=np.int64) * 32
        t = Trace(addresses, np.zeros(3, dtype=np.int64),
                  np.zeros(3, dtype=np.int8), np.ones(3, dtype=np.int32))
        assert addresses.flags.writeable
        addresses[0] = 7  # the caller's own reference is not frozen
        assert not t.addresses.flags.writeable
        assert np.shares_memory(t.addresses, addresses)  # zero-copy view


class TestTotalGapMemoization:
    def test_builder_precomputes(self):
        t = make_simple(5)
        assert t._total_gap == 10  # stored at build time, not on demand

    def test_lazy_memoization_list_mode(self):
        t = Trace([0, 32], [0, 0], [0, 0], [3, 4])
        assert t._total_gap is None
        assert t.total_gap_cycles == 7
        assert t._total_gap == 7

    def test_lazy_memoization_array_mode(self):
        t = make_array_trace(5)
        assert t._total_gap is None
        assert t.total_gap_cycles == 10
        assert t._total_gap == 10

    def test_explicit_total_gap_trusted(self):
        t = Trace([0], [0], [0], [1], total_gap=1)
        assert t.total_gap_cycles == 1

    def test_array_sum_does_not_overflow_int32(self):
        n = 70_000
        t = Trace(
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int8),
            np.full(n, 40_000, dtype=np.int32),  # sum far beyond 2**31
        )
        assert t.total_gap_cycles == n * 40_000


COLUMN_NAMES = ("addresses", "pcs", "kinds", "gaps")


def columns_with(column, value, dtype=np.int64):
    """Three valid rows whose *column* holds *value* in row 1, every
    column in *dtype* unless the value needs a wider one (as a crafted
    ``.npz`` would store them)."""
    good = {"addresses": [0, 32, 64], "pcs": [0, 4, 8], "kinds": [0, 1, 2],
            "gaps": [1, 2, 3]}
    good[column][1] = value
    wide = np.uint64 if value >= 2**63 else dtype
    return [np.asarray(good[name], dtype=wide if name == column else dtype)
            for name in COLUMN_NAMES]


#: One value per case that its column's bounds refuse: negative
#: addresses and gaps, kinds outside AccessType, and values beyond the
#: column's dtype (which a cast would wrap: kind 300 to 44, gap 2**33
#: to 0).
BAD_COLUMNS = [
    ("addresses", -64),
    ("addresses", 2**64 - 1),
    ("pcs", 2**63),
    ("kinds", 300),
    ("kinds", 7),
    ("kinds", -1),
    ("gaps", -5),
    ("gaps", 2**33),
]


class TestColumnBounds:
    """Every construction path goes through one column check, run on the
    source values before the dtype cast, so nothing wraps."""

    @pytest.mark.parametrize("via", ["arrays", "lists", "load_binary"])
    @pytest.mark.parametrize("column,value", BAD_COLUMNS,
                             ids=[f"{c}={v}" for c, v in BAD_COLUMNS])
    def test_bad_column_refused(self, tmp_path, via, column, value):
        columns = columns_with(column, value)
        with pytest.raises(TraceError, match=column):
            if via == "arrays":
                Trace(*columns)
            elif via == "lists":
                Trace(*(col.tolist() for col in columns))
            else:
                path = tmp_path / "bad.npz"
                np.savez_compressed(
                    path, version=np.int64(1), name=np.bytes_(b"bad"),
                    **dict(zip(COLUMN_NAMES, columns)))
                trace_io.load_binary(path)

    def test_every_other_kind_refused(self):
        valid = {int(kind) for kind in AccessType}
        for kind in range(-128, 128):
            columns = columns_with("kinds", kind, dtype=np.int8)
            if kind in valid:
                assert Trace(*columns).kinds[1] == kind
            else:
                with pytest.raises(TraceError, match="kinds"):
                    Trace(*columns)

    def test_non_integer_column_refused(self):
        with pytest.raises(TraceError, match="gaps must be integers"):
            Trace([0], [0], [0], [1.5])

    def test_extremes_accepted_from_wider_dtypes(self):
        t = Trace(
            np.asarray([2**63 - 1], dtype=np.uint64),
            np.asarray([-(2**63)], dtype=np.int64),
            np.asarray([2], dtype=np.int64),
            np.asarray([2**31 - 1], dtype=np.int64),
        )
        assert t.addresses.tolist() == [2**63 - 1]
        assert t.pcs.tolist() == [-(2**63)]
        assert t.kinds.tolist() == [2]
        assert t.gaps.tolist() == [2**31 - 1]

    def test_empty_columns_accepted(self):
        t = Trace([], [], [], [])
        assert len(t) == 0
        for col, dtype in zip(t.to_arrays(), COLUMN_DTYPES):
            assert col.dtype == dtype

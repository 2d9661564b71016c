"""Tests for trace persistence (binary npz and text formats)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import TraceError
from repro.common.types import AccessType
from repro.traces import trace_io
from repro.traces.trace import TraceBuilder


def sample_trace(name="sample"):
    b = TraceBuilder(name=name)
    b.add(0x1000, pc=0x400, kind=AccessType.LOAD, gap=3)
    b.add(0x2008, pc=0x404, kind=AccessType.STORE, gap=0)
    b.add(0xFFFF_FFF0, pc=0, kind=AccessType.SW_PREFETCH, gap=100)
    return b.build()


class TestBinary:
    def test_roundtrip(self, tmp_path):
        t = sample_trace()
        path = tmp_path / "t.npz"
        trace_io.save_binary(t, path)
        back = trace_io.load_binary(path)
        assert back.name == t.name
        for got, want in zip(back.to_arrays(), t.to_arrays()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            trace_io.load_binary(tmp_path / "nope.npz")

    def test_roundtrip_unsuffixed_path(self, tmp_path):
        # np.savez_compressed appends .npz to bare paths; save/load must
        # agree on the final location for both spellings.
        t = sample_trace()
        bare = tmp_path / "t"
        trace_io.save_binary(t, bare)
        assert (tmp_path / "t.npz").exists()
        assert not bare.exists()
        for path in (bare, tmp_path / "t.npz"):
            back = trace_io.load_binary(path)
            assert np.array_equal(back.addresses, t.addresses)
            assert np.array_equal(back.gaps, t.gaps)

    def test_roundtrip_suffixed_path(self, tmp_path):
        t = sample_trace()
        path = tmp_path / "t.npz"
        trace_io.save_binary(t, path)
        assert path.exists()
        assert not (tmp_path / "t.npz.npz").exists()  # no double suffix
        back = trace_io.load_binary(tmp_path / "t")  # unsuffixed spelling
        assert np.array_equal(back.addresses, t.addresses)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(TraceError):
            trace_io.load_binary(path)


class TestText:
    def test_roundtrip(self, tmp_path):
        t = sample_trace("texty")
        path = tmp_path / "t.trc"
        trace_io.save_text(t, path)
        back = trace_io.load_text(path)
        assert back.name == "texty"
        assert np.array_equal(back.addresses, t.addresses)
        assert np.array_equal(back.kinds, t.kinds)
        assert np.array_equal(back.gaps, t.gaps)

    def test_hand_written(self, tmp_path):
        path = tmp_path / "hand.trc"
        path.write_text("# comment\n1000 400 0 1\n\n2000 0 1 5\n")
        t = trace_io.load_text(path)
        assert t.addresses.tolist() == [0x1000, 0x2000]
        assert t.kinds.tolist() == [0, 1]
        assert t.name == "hand"

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("1000 400 0\n")
        with pytest.raises(TraceError):
            trace_io.load_text(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("zzzz 0 0 1\n")
        with pytest.raises(TraceError):
            trace_io.load_text(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            trace_io.load_text(tmp_path / "nope.trc")


class TestDispatch:
    def test_by_extension(self, tmp_path):
        t = sample_trace()
        npz = tmp_path / "a.npz"
        txt = tmp_path / "a.trc"
        trace_io.save(t, npz)
        trace_io.save(t, txt)
        assert np.array_equal(trace_io.load(npz).addresses, t.addresses)
        assert np.array_equal(trace_io.load(txt).addresses, t.addresses)


@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**30),
    st.sampled_from([0, 1, 2]),
    st.integers(min_value=0, max_value=10_000),
), min_size=1, max_size=50))
def test_text_roundtrip_property(tmp_path, rows):
    b = TraceBuilder(name="prop")
    for addr, pc, kind, gap in rows:
        b.add(addr, pc=pc, kind=kind, gap=gap)
    t = b.build()
    path = tmp_path / "p.trc"
    trace_io.save(t, path)
    back = trace_io.load(path)
    assert np.array_equal(back.addresses, t.addresses)
    assert np.array_equal(back.pcs, t.pcs)
    assert np.array_equal(back.kinds, t.kinds)
    assert np.array_equal(back.gaps, t.gaps)


class TestTextValidation:
    def test_negative_gap_names_line(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("1000 400 0 1\n2000 400 0 -5\n")
        with pytest.raises(TraceError, match=r"bad\.trc:2.*negative gap -5"):
            trace_io.load_text(path)

    def test_out_of_range_kind_names_line(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("# header\n1000 400 9 1\n")
        with pytest.raises(TraceError, match=r"bad\.trc:2.*invalid access kind 9"):
            trace_io.load_text(path)

    def test_negative_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("1000 400 -1 1\n")
        with pytest.raises(TraceError, match=r"bad\.trc:1.*invalid access kind"):
            trace_io.load_text(path)

    def test_negative_address_names_line(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("1000 400 0 1\n-2f 400 0 1\n")
        with pytest.raises(TraceError, match=r"bad\.trc:2"):
            trace_io.load_text(path)

    def test_address_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("1000 400 0 1\n8000000000000000 0 0 1\n")
        with pytest.raises(TraceError, match=r"bad\.trc:2: address 9223372036854775808"):
            trace_io.load_text(path)


class TestBinaryValidation:
    def test_truncated_column_rejected(self, tmp_path):
        path = tmp_path / "trunc.npz"
        np.savez_compressed(
            path,
            version=np.int64(1),
            name=np.bytes_(b"trunc"),
            addresses=np.asarray([1, 2, 3], dtype=np.uint64),
            pcs=np.asarray([0, 0, 0], dtype=np.uint64),
            kinds=np.asarray([0, 0], dtype=np.int8),  # one short
            gaps=np.asarray([1, 1, 1], dtype=np.int32),
        )
        with pytest.raises(TraceError, match=r"column lengths differ.*kinds=2"):
            trace_io.load_binary(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "missing.npz"
        np.savez_compressed(
            path,
            version=np.int64(1),
            name=np.bytes_(b"missing"),
            addresses=np.asarray([1], dtype=np.uint64),
        )
        with pytest.raises(TraceError, match="cannot load trace"):
            trace_io.load_binary(path)

"""Tests for the content-addressed trace cache.

The integrity contract: a defective entry — wrong digest, truncated
column, stale generator version, mismatched recipe — is *never* served.
It counts as a miss and the trace is rebuilt (and re-persisted) from
the recipe.
"""

import json

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.obs.metrics import Telemetry
from repro.traces import workloads
from repro.traces.cache import (
    CACHE_ENV_VAR,
    TraceCache,
    default_cache_root,
    resolve_cache,
    trace_key,
)
from repro.traces.workloads import GENERATOR_VERSION, build_workload

WORKLOAD = "gzip"
LENGTH = 2_000
SEED = 4


@pytest.fixture
def cache(tmp_path):
    return TraceCache(root=tmp_path / "traces")


def _entry(cache):
    return cache.root / trace_key(WORKLOAD, LENGTH, SEED)


def _warm(cache):
    trace = cache.get_or_build(WORKLOAD, LENGTH, SEED)
    assert _entry(cache).is_dir()
    return trace


class TestBasics:
    def test_miss_then_hit(self, cache):
        with Telemetry() as tele:
            assert cache.get(WORKLOAD, LENGTH, SEED) is None
            assert tele.counters == {"trace_cache.miss": 1}
            _warm(cache)
            again = cache.get(WORKLOAD, LENGTH, SEED)
        assert again is not None
        assert tele.counters["trace_cache.hit"] >= 1

    def test_served_trace_is_identical(self, cache):
        cached = _warm(cache)
        direct = build_workload(WORKLOAD, length=LENGTH, seed=SEED)
        for a, b in zip(cached.to_arrays(), direct.to_arrays()):
            assert np.array_equal(a, b)
        assert cached.total_gap_cycles == direct.total_gap_cycles
        assert cached.name == WORKLOAD

    def test_served_trace_is_mmap_backed(self, cache):
        _warm(cache)
        trace = cache.get(WORKLOAD, LENGTH, SEED)
        col = trace.addresses
        # zero-copy: the column is (a view of) the on-disk mmap
        assert isinstance(col, np.memmap) or isinstance(col.base, np.memmap)

    def test_key_distinguishes_recipe(self):
        base = trace_key("gzip", 100, 0)
        assert trace_key("gcc", 100, 0) != base
        assert trace_key("gzip", 101, 0) != base
        assert trace_key("gzip", 100, 1) != base
        assert trace_key("gzip", 100, 0, generator_version=GENERATOR_VERSION + 1) != base

    def test_prewarm_idempotent(self, cache):
        assert cache.prewarm(WORKLOAD, LENGTH, SEED) is True
        assert cache.prewarm(WORKLOAD, LENGTH, SEED) is False

    def test_put_rejects_wrong_length(self, cache):
        trace = build_workload(WORKLOAD, length=LENGTH, seed=SEED)
        with pytest.raises(TraceError, match="does not match recipe length"):
            cache.put(trace, WORKLOAD, LENGTH + 1, SEED)

    def test_entries_and_clear(self, cache):
        _warm(cache)
        cache.get_or_build(WORKLOAD, LENGTH, SEED + 1)
        listed = dict(cache.entries())
        assert len(listed) == 2
        assert all(meta["workload"] == WORKLOAD for meta in listed.values())
        assert cache.clear() == 2
        assert list(cache.entries()) == []

    def test_remove(self, cache):
        _warm(cache)
        assert cache.remove(WORKLOAD, LENGTH, SEED) is True
        assert cache.remove(WORKLOAD, LENGTH, SEED) is False
        assert cache.get(WORKLOAD, LENGTH, SEED) is None


class TestIntegrity:
    """Defective entries are detected, rebuilt, and never silently served."""

    def _assert_rebuilds(self, cache):
        """The entry must read as a miss, then get_or_build must heal it."""
        with Telemetry() as tele:
            assert cache.get(WORKLOAD, LENGTH, SEED) is None
        assert tele.counters == {"trace_cache.miss": 1,
                                 "trace_cache.integrity_failure": 1}
        with Telemetry() as tele:
            healed = cache.get_or_build(WORKLOAD, LENGTH, SEED)
        assert tele.counters["trace_cache.rebuild"] == 1
        direct = build_workload(WORKLOAD, length=LENGTH, seed=SEED)
        for a, b in zip(healed.to_arrays(), direct.to_arrays()):
            assert np.array_equal(a, b)
        # and the healed entry is valid again
        assert cache.get(WORKLOAD, LENGTH, SEED) is not None

    def test_corrupted_column_digest_mismatch(self, cache):
        _warm(cache)
        path = _entry(cache) / "addresses.npy"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip bits in the last element
        path.write_bytes(bytes(data))
        self._assert_rebuilds(cache)

    def test_truncated_column(self, cache):
        _warm(cache)
        path = _entry(cache) / "gaps.npy"
        path.write_bytes(path.read_bytes()[:100])
        self._assert_rebuilds(cache)

    def test_truncation_detected_even_without_digest_verify(self, cache):
        _warm(cache)
        path = _entry(cache) / "gaps.npy"
        path.write_bytes(path.read_bytes()[:100])
        lax = TraceCache(root=cache.root, verify=False)
        assert lax.get(WORKLOAD, LENGTH, SEED) is None  # shape check catches it

    def test_out_of_range_values_detected_even_without_digest_verify(self, cache):
        _warm(cache)
        path = _entry(cache) / "kinds.npy"
        kinds = np.load(path)
        kinds[-1] = 0x7F  # a bit flip the int8 dtype still holds
        with open(path, "wb") as f:
            np.save(f, kinds)
        lax = TraceCache(root=cache.root, verify=False)
        assert lax.get(WORKLOAD, LENGTH, SEED) is None  # column bounds catch it

    def test_missing_column_file(self, cache):
        _warm(cache)
        (_entry(cache) / "pcs.npy").unlink()
        self._assert_rebuilds(cache)

    def test_stale_generator_version(self, cache):
        _warm(cache)
        meta_path = _entry(cache) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["generator_version"] = GENERATOR_VERSION - 1
        meta_path.write_text(json.dumps(meta))
        with Telemetry() as tele:
            assert cache.get(WORKLOAD, LENGTH, SEED) is None
        assert tele.counters["trace_cache.miss"] == 1

    def test_recipe_mismatch_in_meta(self, cache):
        # A hand-edited (or colliding) entry whose meta names a different
        # recipe must not be served for this one.
        _warm(cache)
        meta_path = _entry(cache) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["workload"] = "mcf"
        meta_path.write_text(json.dumps(meta))
        assert cache.get(WORKLOAD, LENGTH, SEED) is None

    def test_corrupt_meta_json(self, cache):
        _warm(cache)
        (_entry(cache) / "meta.json").write_text("{not json")
        self._assert_rebuilds(cache)

    def test_missing_meta_is_miss(self, cache):
        _warm(cache)
        (_entry(cache) / "meta.json").unlink()
        assert cache.get(WORKLOAD, LENGTH, SEED) is None

    def test_wrong_dtype_column(self, cache):
        _warm(cache)
        path = _entry(cache) / "kinds.npy"
        wrong = np.zeros(LENGTH, dtype=np.int32)  # canonical dtype is int8
        with open(path, "wb") as f:
            np.save(f, wrong)
        lax = TraceCache(root=cache.root, verify=False)
        assert lax.get(WORKLOAD, LENGTH, SEED) is None


class TestDegradation:
    def test_unwritable_root_still_returns_trace(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should go")
        cache = TraceCache(root=blocker / "sub")
        trace = cache.get_or_build(WORKLOAD, LENGTH, SEED)
        assert len(trace) == LENGTH

    def test_no_listeners_notified_on_hit(self, cache):
        _warm(cache)
        calls = []

        def listener(*args):
            calls.append(args)

        workloads.add_synthesis_listener(listener)
        try:
            cache.get_or_build(WORKLOAD, LENGTH, SEED)
        finally:
            workloads.remove_synthesis_listener(listener)
        assert calls == []


class TestResolve:
    def test_false_disables(self):
        assert resolve_cache(False) is None

    def test_true_uses_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-root"))
        cache = resolve_cache(True)
        assert cache.root == tmp_path / "env-root"
        assert default_cache_root() == tmp_path / "env-root"

    def test_path_and_instance_pass_through(self, tmp_path):
        by_path = resolve_cache(tmp_path / "x")
        assert by_path.root == tmp_path / "x"
        inst = TraceCache(root=tmp_path / "y")
        assert resolve_cache(inst) is inst

    def test_default_root_without_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        root = default_cache_root()
        assert root.parts[-2:] == ("repro", "traces")

"""Trace-cache chaos: ENOSPC puts, kill -9 mid-write, rebuild races.

The cache's contract under faults: a failed persist degrades to an
uncached build (never an error, never a half-entry), a crashed
writer's residue is garbage-collected on the next open, and corrupt
entries are detected and rebuilt rather than served.
"""

import threading
import time
from pathlib import Path

from repro.faults import FaultInjector, FaultPlan, run_armed
from repro.obs.metrics import Telemetry
from repro.traces.cache import TraceCache, trace_key
from repro.traces.workloads import build_workload

WORKLOAD = "gzip"
LENGTH = 1500
SEED = 7


class TestEnospcPut:
    def test_get_or_build_degrades_to_uncached_trace(self, tmp_path):
        cache = TraceCache(root=tmp_path / "traces")
        plan = FaultPlan().add("cache.write", "raise", errno_name="ENOSPC")
        with FaultInjector(plan) as inj:
            trace = cache.get_or_build(WORKLOAD, LENGTH, SEED)
        assert len(trace) == LENGTH  # caching failed, the build did not
        assert len(inj.records) == 1
        # nothing half-written became visible
        assert TraceCache(root=cache.root).get(WORKLOAD, LENGTH, SEED) is None
        assert not list(cache.root.glob(".*.tmp*"))  # tmpdir was reaped

    def test_disk_recovers_next_build_is_cached(self, tmp_path):
        cache = TraceCache(root=tmp_path / "traces")
        plan = FaultPlan().add("cache.write", "raise", errno_name="ENOSPC")
        with FaultInjector(plan):
            cache.get_or_build(WORKLOAD, LENGTH, SEED)
        # fault exhausted (count=1): the next build persists normally
        trace = cache.get_or_build(WORKLOAD, LENGTH, SEED)
        assert len(trace) == LENGTH
        assert TraceCache(root=cache.root).get(WORKLOAD, LENGTH, SEED) is not None


class TestKilledWriter:
    def test_stranded_tmpdir_cleaned_on_open(self, tmp_path):
        root = tmp_path / "traces"
        result = run_armed(
            _put_trace, str(root),
            plan=FaultPlan().add("cache.write", "torn_write",
                                 trunc_bytes=10, then="kill9"),
            timeout=300,
        )
        assert result.killed
        stranded = [
            child for child in root.iterdir()
            if child.is_dir() and child.name.startswith(".")
        ]
        assert stranded, "kill -9 mid-put should strand the write tempdir"

        cache = TraceCache(root=root, stale_after=0.0)
        assert not any(
            child.is_dir() and child.name.startswith(".")
            for child in root.iterdir()
        )
        # the torn entry never became visible, so this is a clean miss
        assert cache.get(WORKLOAD, LENGTH, SEED) is None

    def test_fresh_tmpdirs_survive_default_grace(self, tmp_path):
        root = tmp_path / "traces"
        root.mkdir()
        live = root / f".{trace_key(WORKLOAD, LENGTH, SEED)}.live"
        live.mkdir()
        TraceCache(root=root)  # default stale_after: an hour
        assert live.is_dir(), "a live writer's tempdir must not be reaped"


class TestCorruptEntries:
    def test_flipped_column_bytes_never_served(self, tmp_path):
        cache = TraceCache(root=tmp_path / "traces")
        cache.get_or_build(WORKLOAD, LENGTH, SEED)
        entry = cache.root / trace_key(WORKLOAD, LENGTH, SEED)
        column = entry / "addresses.npy"
        raw = bytearray(column.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        column.write_bytes(bytes(raw))

        checker = TraceCache(root=cache.root)
        with Telemetry() as tele:
            assert checker.get(WORKLOAD, LENGTH, SEED) is None
        assert tele.counters["trace_cache.integrity_failure"] == 1
        # and get_or_build recovers by rebuilding over the bad entry
        rebuilt = checker.get_or_build(WORKLOAD, LENGTH, SEED)
        assert len(rebuilt) == LENGTH
        assert TraceCache(root=cache.root).get(WORKLOAD, LENGTH, SEED) is not None


class TestRebuildRace:
    def test_waiter_serves_winners_entry_without_rebuilding(self, tmp_path):
        root = tmp_path / "traces"
        root.mkdir()
        cache = TraceCache(root=root)
        box = {}

        def racer():
            box["result"] = run_armed(_count_rebuilds, str(root), timeout=300)

        thread = threading.Thread(target=racer)
        with cache._build_lock(trace_key(WORKLOAD, LENGTH, SEED)):
            thread.start()
            # let the child miss and block on the entry lock, then commit
            # the entry ourselves before releasing it
            time.sleep(1.0)
            cache.put(build_workload(WORKLOAD, length=LENGTH, seed=SEED),
                      WORKLOAD, LENGTH, SEED)
        thread.join(timeout=300)
        result = box["result"]
        assert result.status == "ok"
        rebuilds, trace_len = result.value
        assert trace_len == LENGTH
        assert rebuilds == 0, "waiter must serve the winner's entry"


# run_armed targets: module-level so the forked child can resolve them.

def _put_trace(root):
    cache = TraceCache(root=Path(root))
    cache.put(build_workload(WORKLOAD, length=LENGTH, seed=SEED),
              WORKLOAD, LENGTH, SEED)


def _count_rebuilds(root):
    cache = TraceCache(root=Path(root))
    with Telemetry() as tele:
        trace = cache.get_or_build(WORKLOAD, LENGTH, SEED)
    return tele.counters.get("trace_cache.rebuild", 0), len(trace)

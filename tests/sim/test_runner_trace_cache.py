"""Sweep ↔ trace-cache wiring: one materialization per workload.

The point of the cache at sweep scale: ``run_sweep`` prewarms the trace
of each workload with a cell to execute once in the parent, and every
cell — every config, every worker, every *retry* — consumes that one
materialization; each executor loads it once and shares that one
``Trace`` among its cells of the workload.  The synthesis listener hook
counts actual synthesis runs, so these tests fail if anything regresses
to the per-cell×retry rebuild.
"""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.obs.metrics import Telemetry
from repro.sim import runner
from repro.sim.runner import run_sweep
from repro.sim.store import RunStore
from repro.traces import workloads
from repro.traces.cache import TraceCache, trace_key

CONFIGS = {
    "base": {},
    "victim_tk": {"victim_filter": "timekeeping"},
}
WORKLOADS = ["gzip", "eon"]
LENGTH = 1_200


@pytest.fixture
def synth_counts():
    counts = {}

    def listener(name, length, seed):
        counts[name] = counts.get(name, 0) + 1

    workloads.add_synthesis_listener(listener)
    yield counts
    workloads.remove_synthesis_listener(listener)


def test_sweep_synthesizes_once_per_workload(tmp_path, synth_counts):
    report = run_sweep(
        CONFIGS,
        workloads=WORKLOADS,
        length=LENGTH,
        trace_cache=tmp_path / "cache",
    )
    assert not report.failures
    # 2 workloads x 2 configs = 4 cells, but 1 synthesis per workload.
    assert synth_counts == {name: 1 for name in WORKLOADS}


def test_warm_sweep_synthesizes_nothing(tmp_path, synth_counts):
    root = tmp_path / "cache"
    run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, trace_cache=root)
    synth_counts.clear()
    report = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, trace_cache=root)
    assert not report.failures
    assert synth_counts == {}


def test_retried_cell_does_not_resynthesize(tmp_path, synth_counts):
    """A transiently-failing cell retries without rebuilding its trace."""
    attempts_seen = []

    def flaky_hook(workload, config, attempt):
        attempts_seen.append((workload, config, attempt))
        if workload == "gzip" and config == "base" and attempt == 1:
            raise OSError("injected transient fault")

    report = run_sweep(
        CONFIGS,
        workloads=WORKLOADS,
        length=LENGTH,
        retries=2,
        backoff=0.0,
        fault_hook=flaky_hook,
        trace_cache=tmp_path / "cache",
    )
    assert not report.failures
    assert report.attempts[("gzip", "base")] == 2  # the retry happened
    # ... and synthesis still ran exactly once per workload.
    assert synth_counts == {name: 1 for name in WORKLOADS}


def test_disabled_cache_builds_once_per_workload(synth_counts):
    report = run_sweep(
        CONFIGS,
        workloads=WORKLOADS,
        length=LENGTH,
        trace_cache=False,
    )
    assert not report.failures
    # No cache: the executor synthesizes each workload's trace once and
    # serves it to every config of that workload.
    assert synth_counts == {name: 1 for name in WORKLOADS}


def test_cached_sweep_results_match_uncached(tmp_path):
    cached = run_sweep(
        CONFIGS, workloads=WORKLOADS, length=LENGTH, trace_cache=tmp_path / "c"
    )
    uncached = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, trace_cache=False)
    for name in WORKLOADS:
        for config in CONFIGS:
            a = cached.results[name][config]
            b = uncached.results[name][config]
            assert a.ipc == b.ipc
            assert a.l1_miss_rate == b.l1_miss_rate


def test_run_suite_serial_path_uses_cache(tmp_path, synth_counts):
    root = tmp_path / "cache"
    run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH,
              trace_cache=root).raise_on_failure()
    first = dict(synth_counts)
    run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH,
              trace_cache=root).raise_on_failure()
    assert first == {name: 1 for name in WORKLOADS}
    assert synth_counts == first  # second run fully warm


def test_parallel_workers_share_prewarmed_cache(tmp_path, synth_counts):
    report = run_sweep(
        CONFIGS,
        workloads=WORKLOADS,
        length=LENGTH,
        workers=2,
        trace_cache=tmp_path / "cache",
    )
    assert not report.failures
    # Synthesis happened in the parent (where the listener lives),
    # once per workload; workers only mmap the entries.
    assert synth_counts == {name: 1 for name in WORKLOADS}


def test_cache_entries_created_at_given_root(tmp_path):
    root = tmp_path / "cache"
    run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, trace_cache=root)
    cache = TraceCache(root=root)
    metas = [meta for _key, meta in cache.entries()]
    assert sorted(m["workload"] for m in metas) == sorted(WORKLOADS)
    assert all(m["length"] == LENGTH + LENGTH // 3 for m in metas)


def test_serial_executor_opens_each_trace_once(tmp_path, monkeypatch):
    """2 workloads x 3 configs: one cache load per workload in the
    executor, and every config of a workload simulates that one Trace."""
    configs = dict(CONFIGS, perfect={"perfect_non_cold": True})
    simulated = []
    real_simulate = runner.simulate_config

    def spy(trace, config, **kwargs):
        simulated.append(trace)
        return real_simulate(trace, config, **kwargs)

    monkeypatch.setattr(runner, "simulate_config", spy)
    report = run_sweep(configs, workloads=WORKLOADS, length=LENGTH,
                       trace_cache=tmp_path / "cache")
    assert not report.failures
    for name in WORKLOADS:
        loads = sum(
            report.cell_telemetry[(name, config)]["counters"].get(key, 0)
            for config in configs
            for key in ("trace_cache.hit", "trace_cache.miss")
        )
        assert loads == 1, name
    assert len(simulated) == len(WORKLOADS) * len(configs)
    for i, name in enumerate(WORKLOADS):
        mine = simulated[i * len(configs):(i + 1) * len(configs)]
        assert all(trace is mine[0] for trace in mine)
        assert mine[0].name == name


def test_complete_resume_loads_no_trace(tmp_path, synth_counts):
    """Resuming a complete store against an empty cache root opens and
    builds nothing: every cell is replayed."""
    store = tmp_path / "run.jsonl"
    run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, store=store,
              trace_cache=tmp_path / "first")
    synth_counts.clear()
    cache = TraceCache(root=tmp_path / "empty")
    with Telemetry() as tele:
        report = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, store=store,
                           resume=True, trace_cache=cache)
    assert report.replayed == len(WORKLOADS) * len(CONFIGS)
    assert report.executed == 0
    assert not [name for name in tele.counters if name.startswith("trace_cache.")]
    assert list(cache.entries()) == []
    assert synth_counts == {}


def test_resume_prewarms_only_workloads_with_cells_to_run(tmp_path, synth_counts):
    store = tmp_path / "run.jsonl"
    first = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, store=store,
                      trace_cache=tmp_path / "first")
    # Drop the last cell record (eon's last config): the store now
    # misses exactly one cell.
    lines = store.read_text().splitlines(keepends=True)
    store.write_text("".join(lines[:-1]))
    _manifest, cells = RunStore(store).load()
    (missing,) = {(w, c) for w in WORKLOADS for c in CONFIGS} - set(cells)
    synth_counts.clear()
    cache = TraceCache(root=tmp_path / "empty")
    with Telemetry() as tele:
        report = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, store=store,
                           resume=True, trace_cache=cache)
    assert report.executed == 1
    assert tele.counters["trace_cache.rebuild"] == 1
    assert [meta["workload"] for _key, meta in cache.entries()] == [missing[0]]
    assert synth_counts == {missing[0]: 1}
    for name in WORKLOADS:
        for config in CONFIGS:
            assert (report.results[name][config].to_dict()
                    == first.results[name][config].to_dict())


def test_corrupt_entry_between_sweeps_is_rebuilt(tmp_path):
    """A committed entry corrupted between two sweeps is caught by the
    next sweep's digest check and rebuilt, with identical results."""
    cache = TraceCache(root=tmp_path / "cache")
    with Telemetry() as tele:
        first = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, trace_cache=cache)
    assert tele.counters["trace_cache.rebuild"] == len(WORKLOADS)
    column = cache.root / trace_key("gzip", LENGTH + LENGTH // 3, 0) / "addresses.npy"
    raw = bytearray(column.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    column.write_bytes(bytes(raw))

    with Telemetry() as tele:
        second = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH, trace_cache=cache)
    assert not second.failures
    assert tele.counters["trace_cache.integrity_failure"] == 1
    assert tele.counters["trace_cache.rebuild"] == 1
    for name in WORKLOADS:
        for config in CONFIGS:
            assert (second.results[name][config].to_dict()
                    == first.results[name][config].to_dict())

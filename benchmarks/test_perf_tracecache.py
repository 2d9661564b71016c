"""Microbenchmarks of trace synthesis and the trace cache.

Not a paper figure: guards the vectorized-synthesis win (the per-row
generator pipeline vs columnar synthesis) and warm trace-cache loads,
so sweep-scale setup cost stays low (``perfbench``'s ``setup_s`` and
``traces.synth_s`` track it).
"""

import pytest

from repro.common.rng import derive_seed
from repro.traces.cache import TraceCache
from repro.traces.kernels import take
from repro.traces.trace import TraceBuilder
from repro.traces.workloads import build_workload, get_workload

LENGTH = 100_000


def test_perf_vectorized_synthesis(benchmark):
    def run():
        return build_workload("gcc", length=LENGTH)

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(trace) == LENGTH


def test_perf_generator_synthesis(benchmark):
    """The per-row reference: the seeded plan's rows through a builder."""
    spec = get_workload("gcc")

    def run():
        builder = TraceBuilder(name=spec.name)
        plan = spec.make_plan(derive_seed(0, spec.name))
        for addr, pc, kind, gap in take(plan.rows(), LENGTH):
            builder.add(addr, pc=pc, kind=kind, gap=gap)
        return builder.build()

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(trace) == LENGTH


def test_perf_warm_cache_load(benchmark, tmp_path):
    cache = TraceCache(root=tmp_path / "traces")
    cache.prewarm("gcc", LENGTH, 0)

    def run():
        return cache.get("gcc", LENGTH, 0)

    trace = benchmark.pedantic(run, rounds=3, iterations=1)
    assert trace is not None
    assert len(trace) == LENGTH


def test_perf_array_rows_consumption(benchmark):
    trace = build_workload("gcc", length=LENGTH)

    def run():
        total = 0
        for _addr, _pc, _kind, gap in trace.rows():
            total += gap
        return total

    total = benchmark.pedantic(run, rounds=3, iterations=1)
    assert total == trace.total_gap_cycles

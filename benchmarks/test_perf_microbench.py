"""Microbenchmarks of the simulator substrate itself.

Not a paper figure: guards the throughput of the hot paths so harness
runtimes stay predictable (simulation steps, classifier updates,
correlation-table traffic).
"""

from repro.classify.three_c import ThreeCClassifier
from repro.core.prefetch.correlation import CorrelationTable
from repro.sim.simulator import MemorySimulator, make_simulator
from repro.traces.workloads import build_workload


def test_perf_simulator_throughput(benchmark):
    trace = build_workload("gcc", length=20_000)

    def run():
        return MemorySimulator(ipa=6.0, collect_metrics=True).run(trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.accesses == 20_000


def test_perf_simulator_throughput_scalar(benchmark):
    """The forced-scalar loop — the fallback path every non-batchable
    configuration (decay, adaptive victim admission, a set-associative
    L1) still runs through."""
    trace = build_workload("gcc", length=20_000)

    def run():
        return MemorySimulator(ipa=6.0, collect_metrics=True).run(
            trace, engine="scalar"
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.accesses == 20_000


def test_perf_simulator_victim(benchmark):
    """The paper's timekeeping victim filter on the batch engine."""
    trace = build_workload("gcc", length=20_000)

    def run():
        sim = MemorySimulator(
            ipa=6.0, collect_metrics=True, victim_filter="timekeeping"
        )
        return sim, sim.run(trace)

    sim, result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sim.engine_used == "batch", sim.batch_fallback
    assert result.victim.probes > 0


def test_perf_simulator_with_prefetch(benchmark):
    """The timekeeping prefetcher on the batch engine's event loop."""
    trace = build_workload("swim", length=20_000)

    def run():
        sim = make_simulator(ipa=3.0, prefetcher="timekeeping")
        return sim, sim.run(trace)

    sim, result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sim.engine_used == "batch", sim.batch_fallback
    assert result.prefetch.issued > 0


def test_perf_simulator_with_dbcp(benchmark):
    """The DBCP baseline prefetcher on the batch engine's event loop."""
    trace = build_workload("vortex", length=20_000)

    def run():
        sim = make_simulator(ipa=3.0, prefetcher="dbcp")
        return sim, sim.run(trace)

    sim, result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sim.engine_used == "batch", sim.batch_fallback
    assert result.prefetch.issued > 0


def test_perf_classifier(benchmark):
    blocks = list(range(4096)) * 3

    def run():
        c = ThreeCClassifier(1024)
        for b in blocks:
            c.classify_miss(b)
            c.record_access(b)
        return c

    c = benchmark.pedantic(run, rounds=3, iterations=1)
    assert c.counts.total == len(blocks)


def test_perf_correlation_table(benchmark):
    table = CorrelationTable()

    def run():
        for i in range(10_000):
            table.update(i & 63, (i + 1) & 63, i & 1023, (i + 2) & 63, i & 31)
            table.lookup(i & 63, (i + 1) & 63, i & 1023)
        return table

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert table.updates >= 10_000

"""Batch-dispatch engine: selection, fallback reasons, equivalence.

The batch engine (``repro.sim.batch``) vectorizes the paper's baseline
machine shape and must be bitwise-interchangeable with the scalar
loop.  These tests pin the selection plumbing (``engine=`` argument,
``engine_used``/``batch_fallback`` recording), every fallback reason,
that the paper's victim-cache configurations stay on the batch engine,
and scalar-vs-batch equality of results, cache state, victim-cache
contents and metrics on small traces — including warmup and
perfect-mode runs, which exercise the deferred-state thaw across and
after batch dispatch.
"""

import numpy as np
import pytest

from repro.common.config import paper_machine
from repro.common.errors import SimulationError
from repro.core.decay import DecayPolicy
from repro.core.prefetch.stride import StridePrefetchPolicy
from repro.core.victim import AdmissionFilter
from repro.figures.registry import CONFIGS as FIGURE_CONFIGS
from repro.sim.batch import batch_fallback_reason
from repro.sim.simulator import MemorySimulator, make_simulator
from repro.sim.sweep import CONFIG_PRESETS
from repro.traces.trace import Trace
from repro.traces.workloads import build_workload

#: The admission filters of the paper's three victim-cache configs.
PAPER_FILTERS = ("unfiltered", "collins", "timekeeping")


def small_trace(n=400, seed=7):
    rng = np.random.default_rng(seed)
    return Trace(
        (rng.integers(0, 1 << 18, n) * 4).astype(np.int64),
        (rng.integers(0, 1 << 10, n) * 4).astype(np.int64),
        rng.integers(0, 2, n).astype(np.int8),  # loads and stores
        rng.integers(0, 6, n).astype(np.int32),
        name="rand-small",
    )


def conflict_trace(n=400, seed=3):
    """Six tags over eight L1 sets, with stores: victim hits, Collins
    A-B-A admissions, buffer LRU evictions and dirty victims."""
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, 6, n) * 1024 + rng.integers(0, 8, n)
    return Trace(
        (blocks * 32 + rng.integers(0, 8, n) * 4).astype(np.int64),
        (rng.integers(0, 1 << 10, n) * 4).astype(np.int64),
        rng.integers(0, 2, n).astype(np.int8),
        rng.integers(0, 400, n).astype(np.int32),
        name="conflict-small",
    )


def digest(sim, result):
    """Comparable snapshot of everything an engine can influence."""
    l1, l2 = sim.l1, sim.hierarchy.l2
    frames = {}
    for tag, cache in (("l1", l1), ("l2", l2)):
        for f in cache.frames():  # iterating also forces any deferred thaw
            if f.valid:
                frames[tag, f.set_index, f.way] = (
                    f.block_addr, f.dirty, f.lru_stamp, f.fill_time,
                    f.last_access_time, f.hit_count,
                )
    victim = sim.victim_cache
    return {
        "result": result.to_dict(),
        "stall_breakdown_keys": list(result.timing.stall_breakdown),
        "victim_contents": (
            None if victim is None else list(victim._blocks.items())
        ),
        "victim_penalty_acc": sim._victim_penalty_acc,
        "now": sim.now,
        "l1": (l1.hits, l1.misses, l1.evictions),
        "l2": (l2.hits, l2.misses, l2.evictions),
        "closed_generations": sim.generations.closed_generations,
        "frames": frames,
        "metrics": sim.metrics.to_dict() if sim.metrics is not None else None,
    }


def run_both(make_sim, trace, warmup=0):
    scalar = make_sim()
    r_scalar = scalar.run(trace, warmup=warmup, engine="scalar")
    batch = make_sim()
    r_batch = batch.run(trace, warmup=warmup, engine="batch")
    assert batch.engine_used == "batch", batch.batch_fallback
    return digest(scalar, r_scalar), digest(batch, r_batch)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            MemorySimulator().run(small_trace(), engine="vectorized")

    def test_default_config_uses_batch(self):
        sim = MemorySimulator()
        sim.run(small_trace())
        assert sim.engine_used == "batch"
        assert sim.batch_fallback is None

    def test_scalar_engine_forced(self):
        sim = MemorySimulator()
        sim.run(small_trace(), engine="scalar")
        assert sim.engine_used == "scalar"
        assert sim.batch_fallback is None


class TestFallbackReasons:
    """Each unsupported feature falls back with a specific reason —
    recorded on the simulator so a silent fallback stays observable."""

    def test_list_backed_trace(self):
        t = Trace([0, 32], [0, 0], [0, 0], [1, 1])
        assert not t.columns_are_arrays
        sim = MemorySimulator()
        sim.run(t)
        assert sim.engine_used == "scalar"
        assert "list-backed" in sim.batch_fallback

    def test_prefetch_policy(self):
        policy = StridePrefetchPolicy(paper_machine().l1d, degree=1)
        sim = MemorySimulator(prefetch_policy=policy)
        assert "prefetch policy" in batch_fallback_reason(sim, small_trace())

    def test_victim_cache(self):
        """The paper's three admission filters run batched; victim
        caches the batch engine cannot reproduce each fall back with
        their own reason."""
        class KeepEverything(AdmissionFilter):
            def admit(self, frame, incoming_block_addr, now):
                return True

        trace = small_trace()
        for victim_filter in PAPER_FILTERS:
            sim = MemorySimulator(victim_filter=victim_filter)
            assert batch_fallback_reason(sim, trace) is None, victim_filter
        adaptive = MemorySimulator(victim_filter="adaptive")
        assert "adaptive" in batch_fallback_reason(adaptive, trace)
        custom = MemorySimulator(victim_filter=KeepEverything())
        assert "custom" in batch_fallback_reason(custom, trace)
        perfect = MemorySimulator(
            victim_filter="timekeeping", perfect_non_cold=True
        )
        assert "perfect_non_cold" in batch_fallback_reason(perfect, trace)

    def test_decay(self):
        sim = MemorySimulator(decay=DecayPolicy(8192))
        assert "decay" in batch_fallback_reason(sim, small_trace())

    def test_set_associative_l1(self):
        machine = paper_machine().with_l1d(associativity=2)
        sim = MemorySimulator(machine=machine)
        assert "direct-mapped" in batch_fallback_reason(sim, small_trace())

    def test_pending_events(self):
        sim = MemorySimulator()
        sim.events.schedule(5, (0, None))
        assert "pending timing events" in batch_fallback_reason(
            sim, small_trace()
        )

    def test_subclass_not_capable(self):
        class Subclassed(MemorySimulator):
            _batch_capable = False

        sim = Subclassed()
        sim.run(small_trace())
        assert sim.engine_used == "scalar"
        assert "not batch-capable" in sim.batch_fallback

    def test_fallback_still_runs_to_completion(self):
        sim = MemorySimulator(decay=DecayPolicy(8192))
        result = sim.run(small_trace())
        assert sim.engine_used == "scalar"
        assert result.accesses == len(small_trace())


class TestPaperConfigsSelectBatch:
    """Every victim configuration the paper campaign and the sweep
    presets run stays on the batch engine; only adaptive admission
    falls back.  Guards against a change silently sending the paper's
    victim cells back to the scalar loop."""

    VICTIM_CONFIGS = sorted(
        {
            (name, tuple(sorted(config.items())))
            for table in (FIGURE_CONFIGS, CONFIG_PRESETS)
            for name, config in table.items()
            if "victim_filter" in config
        }
    )

    @pytest.mark.parametrize(
        "name,items", VICTIM_CONFIGS, ids=[n for n, _ in VICTIM_CONFIGS]
    )
    def test_victim_config_engine(self, name, items):
        sim = make_simulator(**dict(items))
        result = sim.run(build_workload("gcc", length=2_000), warmup=500)
        assert result.victim.probes > 0
        if name == "victim_adaptive":
            assert sim.engine_used == "scalar"
            assert "adaptive" in sim.batch_fallback
        else:
            assert sim.engine_used == "batch", sim.batch_fallback

    def test_paper_victim_configs_are_covered(self):
        names = {name for name, _ in self.VICTIM_CONFIGS}
        assert {"victim", "victim_collins", "victim_tk"} <= names


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("warmup", [0, 150])
    @pytest.mark.parametrize("victim_filter", PAPER_FILTERS)
    def test_batch_matches_scalar_victim(self, victim_filter, warmup):
        d_scalar, d_batch = run_both(
            lambda: MemorySimulator(
                collect_metrics=True, victim_filter=victim_filter
            ),
            conflict_trace(),
            warmup=warmup,
        )
        assert d_scalar["result"]["victim"]["hits"] > 0
        assert d_scalar == d_batch

    @pytest.mark.parametrize("warmup", [0, 150])
    def test_batch_matches_scalar(self, warmup):
        d_scalar, d_batch = run_both(
            lambda: MemorySimulator(collect_metrics=True),
            small_trace(),
            warmup=warmup,
        )
        assert d_scalar == d_batch

    @pytest.mark.parametrize("warmup", [0, 150])
    def test_batch_matches_scalar_perfect(self, warmup):
        d_scalar, d_batch = run_both(
            lambda: MemorySimulator(
                collect_metrics=True, perfect_non_cold=True
            ),
            small_trace(),
            warmup=warmup,
        )
        assert d_scalar == d_batch

    def test_batch_matches_scalar_without_classifier(self):
        d_scalar, d_batch = run_both(
            lambda: MemorySimulator(classify=False), small_trace()
        )
        assert d_scalar == d_batch

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_batch_matches_scalar_degenerate_traces(self, length):
        trace = small_trace().sliced(0, length)
        d_scalar, d_batch = run_both(
            lambda: MemorySimulator(collect_metrics=True), trace
        )
        assert d_scalar == d_batch

    def test_state_readable_after_batch_run(self):
        """Deferred batch state thaws transparently behind the public
        accessors — probing the cache after a batch run sees exactly
        what a scalar run left behind."""
        trace = small_trace()
        scalar = MemorySimulator()
        scalar.run(trace, engine="scalar")
        batch = MemorySimulator()
        batch.run(trace, engine="batch")
        assert batch.engine_used == "batch"
        for block in {int(a) >> 5 for a in trace.addresses[-50:]}:
            s_frame = scalar.l1.probe(block)
            b_frame = batch.l1.probe(block)
            assert (s_frame is None) == (b_frame is None)
            if s_frame is not None:
                assert b_frame.fill_time == s_frame.fill_time
                assert b_frame.hit_count == s_frame.hit_count
                assert b_frame.dirty == s_frame.dirty

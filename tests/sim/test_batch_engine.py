"""Batch-dispatch engine: selection, fallback reasons, equivalence.

The batch engine (``repro.sim.batch``) vectorizes the paper's baseline
machine shape and must be bitwise-interchangeable with the scalar
loop.  These tests pin the selection plumbing (``engine=`` argument,
``engine_used``/``batch_fallback`` recording), every fallback reason,
that the paper's victim-cache and prefetch configurations stay on the
batch engine, and scalar-vs-batch equality of results, cache state,
victim-cache contents, prefetch engine state and metrics on small
traces — including warmup and perfect-mode runs, which exercise the
deferred-state thaw across and after batch dispatch.
"""

import dataclasses
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from repro.cache.block import Frame
from repro.common.config import paper_machine, small_test_machine
from repro.common.errors import SimulationError
from repro.common.types import AccessOutcome, MissClass, PrefetchTimeliness
from repro.core.decay import DecayPolicy
from repro.core.generations import GenerationRecord
from repro.core.metrics import MissCorrelation
from repro.core.prefetch.correlation import DBCPTable
from repro.core.prefetch.policy import PrefetchPolicy
from repro.core.victim import AdmissionFilter
from repro.figures.registry import CONFIGS as FIGURE_CONFIGS
from repro.sim import batch as batch_module
from repro.sim.batch import batch_fallback_reason
from repro.sim.simulator import MemorySimulator, make_simulator
from repro.sim.sweep import CONFIG_PRESETS
from repro.traces.trace import Trace
from repro.traces.workloads import build_workload

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

from equivalence import state_digest  # noqa: E402  (needs the sys.path insert above)

#: The admission filters of the paper's three victim-cache configs.
PAPER_FILTERS = ("unfiltered", "collins", "timekeeping")


class NeverPredicts(PrefetchPolicy):
    """A prefetch policy without ``next_hit_trigger`` that never predicts."""

    def on_miss(self, frame, frame_key, new_block_addr, pc, now):
        return None


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


def prefetch_trace(n=600, seed=5, max_gap=400):
    """Structured misses on four sets plus a DBCP signature collision.

    Four sets walk fixed cycles of three tags (with repeated hits), so
    both prefetchers confirm table entries; prefetches arrive early and
    late, and demand misses merge with them in flight.  Frames 5 and
    773 are built to share a DBCP signature (``a1 - a2 = 256`` and
    ``b2 - b1 = 256 * K``, K the signature's block multiplier), so
    frame 773 predicts frame 5's successor: a prefetch into another
    set, cancelled when that block is already resident.
    """
    rng = np.random.default_rng(seed)
    cycles = [rng.permutation(3) for _ in range(4)]
    steps = [0] * 4
    k = 0x85EBCA6B
    a1, b1, c1 = 1024 + 5, 2048 + 5, 3072 + 5
    a2, b2 = a1 - 256, b1 + 256 * k
    assert DBCPTable.signature(64, a1, b1) == DBCPTable.signature(64, a2, b2)
    blocks, pcs = [], []
    motif = 0
    while len(blocks) < n:
        r = rng.random()
        if r < 0.2:
            blocks.append((a1, b1, c1)[motif % 3])
            pcs.append(64)
            motif += 1
        elif r < 0.27:
            blocks.extend((a2, b2))
            pcs.extend((64, 64))
        else:
            s = int(rng.integers(0, 4))
            tag = int(cycles[s][steps[s] % 3]) + 1
            steps[s] += 1
            for _ in range(int(rng.integers(1, 4))):
                blocks.append(tag * 1024 + 8 + s)
                pcs.append(int(rng.integers(0, 16)) * 4)
    blocks = np.array(blocks[:n], dtype=np.int64)
    return Trace(
        (blocks * 32 + rng.integers(0, 8, n) * 4).astype(np.int64),
        np.array(pcs[:n], dtype=np.int64),
        rng.integers(0, 2, n).astype(np.int8),
        rng.integers(0, max_gap, n).astype(np.int32),
        name="prefetch-small",
    )


def digest(sim, result):
    """Comparable snapshot of everything an engine can influence: the
    result and the full machine state."""
    return {"result": result.to_dict(), **state_digest(sim)}


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

    def test_prefetch_policy(self):
        sim = MemorySimulator(prefetch_policy=NeverPredicts())
        assert "has no next_hit_trigger" in batch_fallback_reason(sim)

    def test_victim_cache(self):
        """The paper's three admission filters run batched; victim
        caches the batch engine cannot reproduce each fall back with
        their own reason."""
        class KeepEverything(AdmissionFilter):
            def admit(self, frame, incoming_block_addr, now):
                return True

        for victim_filter in PAPER_FILTERS:
            sim = MemorySimulator(victim_filter=victim_filter)
            assert batch_fallback_reason(sim) is None, victim_filter
        adaptive = MemorySimulator(victim_filter="adaptive")
        assert "adaptive" in batch_fallback_reason(adaptive)
        custom = MemorySimulator(victim_filter=KeepEverything())
        assert "custom" in batch_fallback_reason(custom)
        perfect = MemorySimulator(
            victim_filter="timekeeping", perfect_non_cold=True
        )
        assert "perfect_non_cold" in batch_fallback_reason(perfect)

    def test_prefetch_combinations(self):
        """The paper's two prefetchers run batched on the paper machine;
        a policy without a hit trigger, and prefetch combined with a
        victim cache or perfect mode, fall back with their own reason."""
        for name in ("timekeeping", "dbcp"):
            sim = make_simulator(prefetcher=name)
            assert batch_fallback_reason(sim) is None, name
            assert "victim cache" in batch_fallback_reason(
                make_simulator(prefetcher=name, victim_filter="timekeeping")
            )
            assert "perfect_non_cold" in batch_fallback_reason(
                make_simulator(prefetcher=name, perfect_non_cold=True)
            )
            assert "decay" in batch_fallback_reason(
                make_simulator(prefetcher=name, decay_interval=8192)
            )
        custom = MemorySimulator(prefetch_policy=NeverPredicts())
        assert "next_hit_trigger" in batch_fallback_reason(custom)

    def test_decay(self):
        sim = MemorySimulator(decay=DecayPolicy(8192))
        assert "decay" in batch_fallback_reason(sim)

    def test_set_associative_l1(self):
        machine = paper_machine().with_l1d(associativity=2)
        sim = MemorySimulator(machine=machine)
        assert "direct-mapped" in batch_fallback_reason(sim)

    def test_pending_events(self):
        sim = MemorySimulator()
        sim.events.schedule(5, (0, None))
        assert "pending timing events" in batch_fallback_reason(sim)

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

    PREFETCH_CONFIGS = sorted(
        {
            (name, tuple(sorted(config.items())))
            for table in (FIGURE_CONFIGS, CONFIG_PRESETS)
            for name, config in table.items()
            if "prefetcher" in config
        }
    )

    @pytest.mark.parametrize(
        "name,items", PREFETCH_CONFIGS, ids=[n for n, _ in PREFETCH_CONFIGS]
    )
    def test_prefetch_config_engine(self, name, items):
        sim = make_simulator(**dict(items))
        result = sim.run(build_workload("vortex", length=2_000), warmup=500)
        assert result.prefetch.scheduled > 0
        assert sim.engine_used == "batch", sim.batch_fallback

    def test_paper_prefetch_configs_are_covered(self):
        names = {name for name, _ in self.PREFETCH_CONFIGS}
        assert {"pf_tk", "pf_dbcp"} <= names


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
    @pytest.mark.parametrize("prefetcher", ["timekeeping", "dbcp"])
    def test_batch_matches_scalar_prefetch(self, prefetcher, warmup):
        """Prefetches that arrive early and late, merge with a demand
        miss and (DBCP, whose hashed table can predict another set's
        block) are cancelled, all on the event loop.  A timekeeping
        prediction always names another block of the frame's own set,
        and any change of that set's resident resolves it first, so on
        a direct-mapped L1 it is never cancelled."""
        d_scalar, d_batch = run_both(
            lambda: make_simulator(prefetcher=prefetcher, collect_metrics=True),
            prefetch_trace(),
            warmup=warmup,
        )
        stats = d_scalar["result"]["prefetch"]
        timeliness = stats["timeliness"]
        early = late = 0
        for bucket in (timeliness["correct"], timeliness["wrong"]):
            early += bucket[PrefetchTimeliness.EARLY.name]
            late += bucket[PrefetchTimeliness.LATE.name]
        assert early > 0 and late > 0
        assert d_scalar["result"]["outcomes"][AccessOutcome.PREFETCH_HIT.name] > 0
        if prefetcher == "dbcp":
            assert stats["cancelled"] > 0
        assert d_scalar == d_batch

    @pytest.mark.parametrize("prefetcher", ["timekeeping", "dbcp"])
    def test_batch_matches_scalar_prefetch_small_l2(self, prefetcher):
        """A 16KB 2-way L2 behind a 4KB L1: prefetch fills land at the
        LRU position of full L2 sets and evict, so the deferred L2
        replay's insert-at-LRU stamps are checked against real frames."""
        l2 = dataclasses.replace(paper_machine().l2, size_bytes=16 * 1024,
                                 associativity=2)
        machine = dataclasses.replace(paper_machine(), l2=l2).with_l1d(
            size_bytes=4 * 1024
        )
        d_scalar, d_batch = run_both(
            lambda: make_simulator(
                machine, prefetcher=prefetcher, collect_metrics=True
            ),
            prefetch_trace(),
            warmup=150,
        )
        assert d_scalar["prefetch"]["l2_prefetch"][1] > 0
        assert d_scalar == d_batch

    @pytest.mark.parametrize("prefetcher", ["timekeeping", "dbcp"])
    def test_batch_matches_scalar_prefetch_starved(self, prefetcher):
        """One prefetch MSHR, a two-entry queue and short gaps: requests
        wait in the queue and overflow it, and a demand merge that frees
        the MSHR lets the next access issue with no event due (the event
        loop visits every access while the queue holds requests)."""
        machine = dataclasses.replace(
            paper_machine(),
            prefetch=dataclasses.replace(
                paper_machine().prefetch, mshrs=1, queue_entries=2
            ),
        )
        d_scalar, d_batch = run_both(
            lambda: make_simulator(
                machine, prefetcher=prefetcher, collect_metrics=True
            ),
            prefetch_trace(seed=0, max_gap=40),
            warmup=150,
        )
        if prefetcher == "timekeeping":
            assert d_scalar["result"]["prefetch"]["discarded"] > 0
        assert d_scalar == d_batch

    def test_batch_matches_scalar_arrival_before_fill(self):
        """A DBCP prefetch into another set can arrive at a cycle before
        the fill of the block it evicts (a demand miss just before the
        drain stalled past the arrival time), closing a generation with
        a negative dead time.  Both engines keep it exactly in the
        generation columns, and the dead-time histogram refuses it on
        read rather than binning it."""
        trace = prefetch_trace(seed=14, max_gap=20)
        digests = []
        for engine in ("scalar", "batch"):
            sim = make_simulator(prefetcher="dbcp", collect_metrics=True)
            result = sim.run(trace, engine=engine)
            assert sim.engine_used == engine, sim.batch_fallback
            assert min(g.dead_time for g in sim.metrics.generations) < 0
            with pytest.raises(ValueError, match="non-negative"):
                sim.metrics.dead_time
            digests.append(digest(sim, result))
        assert digests[0] == digests[1]

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


class TestDeferredL1:
    """A base batch leaves the L1 as per-set columns (the
    ``_DeferredL1State`` installer), from which the next batch reads its
    entry state; frames are built only when something reads the L1."""

    @pytest.mark.parametrize("config", [
        {}, {"perfect_non_cold": True}, {"victim_filter": "collins"},
    ], ids=["base", "perfect", "victim_collins"])
    def test_no_frames_built_during_a_run(self, config, monkeypatch):
        """Collins admission reads each victim's prev_tag, which the
        measured batch takes from the warm-up batch's columns: at row
        100, three sets' first miss brings back the entry resident's
        predecessor (A-B-A)."""
        trace = conflict_trace()
        scalar = MemorySimulator(collect_metrics=True, **config)
        r_scalar = scalar.run(trace, warmup=100, engine="scalar")
        restored = []
        restore = Frame.restore

        def counting(cls, *args, **kwargs):
            restored.append(args)
            return restore(*args, **kwargs)

        monkeypatch.setattr(Frame, "restore", classmethod(counting))
        batch = MemorySimulator(collect_metrics=True, **config)
        r_batch = batch.run(trace, warmup=100)
        assert batch.engine_used == "batch", batch.batch_fallback
        assert isinstance(batch.l1._deferred, batch_module._DeferredL1State)
        assert restored == [] and batch.l1._tags == {}
        # Reading the frames thaws the columns.
        assert digest(batch, r_batch) == digest(scalar, r_scalar)
        assert batch.l1._deferred is None and restored

    @pytest.mark.parametrize("victim_filter", [None, "collins"])
    def test_batch_after_scalar_rows_snapshots_the_frames(self, victim_filter):
        """An L1 that the scalar loop filled enters a batch through the
        frame snapshot (no public path mixes engines on one simulator);
        at row 100 Collins admission reads snapshotted prev_tags."""
        trace = conflict_trace()
        digests = []
        for engine in ("scalar", "batch"):
            sim = MemorySimulator(collect_metrics=True, victim_filter=victim_filter)
            rows = trace.rows()
            sim._consume(islice(rows, 100))
            if engine == "batch":
                batch_module.consume_batch(sim, trace, 100, len(trace))
            else:
                sim._consume(rows)
            digests.append(state_digest(sim))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("prefetcher", ["timekeeping", "dbcp"])
    def test_prefetch_batch_thaws_a_deferred_l1(self, prefetcher):
        """The prefetch event loop works on real L1 frames.  Entered with
        an L1 that a base batch left as columns (no public path does
        this: all batches of one simulator take one engine), it thaws
        them first, and runs as on thawed frames and as the scalar loop
        does."""
        trace = prefetch_trace()
        warmup = 150

        def run(engine, thaw_first=False):
            sim = make_simulator(prefetcher=prefetcher, collect_metrics=True)
            policy, sim.policy = sim.policy, None
            rows = trace.rows()
            if engine == "scalar":
                sim._consume(islice(rows, warmup))
            else:
                batch_module.consume_batch(sim, trace, 0, warmup)
                assert sim.l1._deferred is not None
                if thaw_first:
                    list(sim.l1.frames())
            sim.policy = policy
            if engine == "scalar":
                sim._consume(rows)
            else:
                batch_module.consume_batch(sim, trace, warmup, len(trace))
            return digest(sim, sim._build_result(trace))

        scalar = run("scalar")
        assert scalar["result"]["prefetch"]["arrived"] > 0
        assert run("batch", thaw_first=True) == scalar
        assert run("batch") == scalar


class TestNoRecordsBuilt:
    """A metric bank stays columns through a run and its serialization;
    records are built only when an object view is read."""

    @pytest.mark.parametrize("make,trace", [
        (lambda: MemorySimulator(collect_metrics=True), conflict_trace),
        (lambda: make_simulator(prefetcher="timekeeping", collect_metrics=True),
         prefetch_trace),
    ], ids=["base", "pf_tk"])
    def test_two_batch_run_builds_no_record(self, make, trace, monkeypatch):
        """The measured batch looks its first evictions and its
        correlation fallbacks up in the warm-up batch's queued columns."""
        built = []
        for cls in (GenerationRecord, MissCorrelation):
            def counting(self, *args, _init=cls.__init__):
                built.append(type(self).__name__)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        sim = make()
        result = sim.run(trace(), warmup=150)
        assert sim.engine_used == "batch", sim.batch_fallback
        assert len(sim.generations._pending_closed) == 2
        result.to_dict(include_metrics=True)
        assert built == []
        assert sim.metrics.generations and sim.metrics.miss_correlations
        assert {"GenerationRecord", "MissCorrelation"} <= set(built)


class TestNoBankNoGenerations:
    """Only a metric bank reads a generation, so a machine without one
    has no tracker, and neither batch engine runs a generation pass."""

    @pytest.mark.parametrize("name", sorted(FIGURE_CONFIGS))
    def test_bankless_run_tracks_no_generation(self, name, monkeypatch):
        """A two-batch run of each paper config: no tracker, no interval
        pass, no correlation or generation close, and the result of the
        banked run (a bank observes and never steers)."""
        config = {**FIGURE_CONFIGS[name], "collect_metrics": False}
        trace = prefetch_trace() if "prefetcher" in config else conflict_trace()
        banked = make_simulator(**{**config, "collect_metrics": True})
        expected = banked.run(trace, warmup=150).to_dict()

        def refuse(*args, **kwargs):
            raise AssertionError("generation pass without a metric bank")

        monkeypatch.setattr(batch_module._Batch, "intervals", refuse)
        monkeypatch.setattr(batch_module._Batch, "close", refuse)
        sim = make_simulator(**config)
        result = sim.run(trace, warmup=150)
        assert sim.engine_used == "batch", sim.batch_fallback
        assert sim.generations is None and sim.metrics is None
        if result.prefetch is not None:
            assert result.prefetch.arrived > 0
        assert result.to_dict() == expected


def classifier_state(sim):
    """The 3C classifier's counts, shadow (contents and LRU order) and
    seen set, read through the accessor that installs a deferred
    state."""
    counts = sim.classifier.counts
    shadow, seen = sim.classifier.contents()
    return ((counts.cold, counts.conflict, counts.capacity),
            tuple(shadow), frozenset(seen))


def memo_keys(machine, ranges, prefetch=False):
    """The ``trace.memo`` keys a batch run on *machine* builds over each
    (start, stop) row range in *ranges*: the 3C replay and the opening
    columns, plus the event loop's columns with a prefetcher."""
    l1 = machine.l1d
    offset_bits = l1.block_size.bit_length() - 1
    kinds = (("3c", l1.num_blocks), ("open", l1.num_sets))
    if prefetch:
        kinds += (("loop", l1.num_sets),)
    return {(kind, offset_bits, size, start, stop)
            for start, stop in ranges for kind, size in kinds}


#: The two row ranges of a 3000-access run with a 1000-access warm-up.
RANGES = ((0, 1000), (1000, 3000))


@pytest.fixture
def replays(monkeypatch):
    """Count the shadow replays the batch engine runs."""
    calls = []
    real = batch_module._replay_shadow

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(batch_module, "_replay_shadow", counting)
    return calls


class TestShadowReplayMemo:
    """The 3C shadow replay is memoized on the trace: a batch that
    enters in the replay's entry state reads it, and nothing it leaves
    behind differs from a replay's."""

    def test_later_configs_read_the_first_replay(self, replays):
        trace = build_workload("gcc", length=3000)
        first = make_simulator()
        first.run(trace, warmup=1000)
        assert len(replays) == 2  # the warm-up batch and the measured one
        assert set(trace.memo) == memo_keys(paper_machine(), RANGES)
        for config in ({"victim_filter": "timekeeping"}, {"prefetcher": "dbcp"},
                       {"perfect_non_cold": True}):
            make_simulator(**config).run(trace, warmup=1000)
        assert len(replays) == 2
        assert set(trace.memo) == memo_keys(paper_machine(), RANGES, prefetch=True)

    def test_alternating_geometries_match_fresh_traces(self):
        """One trace run alternately under machines with different L1
        geometry (shadow capacity, offset bits) matches fresh traces."""
        machines = (paper_machine(), small_test_machine(),
                    paper_machine().with_l1d(block_size=64))
        configs = ({}, {"victim_filter": "collins"}, {"prefetcher": "timekeeping"},
                   {"perfect_non_cold": True})
        shared = build_workload("gcc", length=3000)
        for _round in range(2):
            for machine in machines:
                for config in configs:
                    sims = [make_simulator(machine, collect_metrics=True, **config)
                            for _ in range(2)]
                    got = sims[0].run(shared, warmup=1000)
                    want = sims[1].run(build_workload("gcc", length=3000), warmup=1000)
                    assert sims[0].engine_used == "batch"
                    assert digest(sims[0], got) == digest(sims[1], want)
                    assert classifier_state(sims[0]) == classifier_state(sims[1])
        # Two row ranges per geometry, each memoized once.
        assert set(shared.memo) == set().union(*(
            memo_keys(machine, RANGES, prefetch=True) for machine in machines
        ))

    #: 33 blocks through a 32-block shadow: block 1 is seen but evicted.
    PRIMED = list(range(1, 34))

    @pytest.mark.parametrize("prior", [
        [5],
        PRIMED[:-2] + PRIMED[:-3:-1],
        [0] + PRIMED[1:],
    ], ids=["other-shadow", "other-lru-order", "other-seen-set"])
    def test_other_entry_state_replays(self, replays, prior):
        machine = small_test_machine()

        def run(order, trace):
            sim = make_simulator(machine, collect_metrics=True)
            for block in order:
                sim.classifier.record_access(block)
            result = sim.run(trace)
            return digest(sim, result), classifier_state(sim)

        trace = small_trace(n=600)
        run(self.PRIMED, trace)
        memoized = dict(trace.memo)
        # The same entry state reads the memo ...
        assert run(self.PRIMED, trace) == run(self.PRIMED, small_trace(n=600))
        assert len(replays) == 2  # the first run and the fresh trace
        # ... any other replays, and leaves the memo as it was.
        assert run(prior, trace) == run(prior, small_trace(n=600))
        assert len(replays) == 4
        assert trace.memo == memoized


@pytest.fixture
def memoized(monkeypatch):
    """Record the key of every column set the batch engine memoizes."""
    keys = []
    real = batch_module._memoize

    def recording(trace, key, cols):
        keys.append(key)
        return real(trace, key, cols)

    monkeypatch.setattr(batch_module, "_memoize", recording)
    return keys


class TestTraceMemo:
    """One trace run under all seven paper configs does each piece of
    per-trace work once per row range, and shares it read-only."""

    def run_paper_configs(self, trace):
        for name, config in FIGURE_CONFIGS.items():
            sim = make_simulator(**config)
            sim.run(trace, warmup=1000)
            assert sim.engine_used == "batch", (name, sim.batch_fallback)

    def test_each_memo_built_once_per_row_range(self, replays, memoized):
        trace = build_workload("gcc", length=3000)
        self.run_paper_configs(trace)
        expected = memo_keys(paper_machine(), RANGES, prefetch=True)
        # The opening columns and, for both prefetchers together, the
        # event loop's columns: one build per row range ...
        assert sorted(memoized) == sorted(k for k in expected if k[0] != "3c")
        # ... and one 3C replay per row range.
        assert len(replays) == 2
        assert set(trace.memo) == expected

    def test_memoized_arrays_are_read_only(self):
        trace = build_workload("gcc", length=3000)
        self.run_paper_configs(trace)
        arrays = []
        for key, value in trace.memo.items():
            if key[0] == "3c":
                arrays += [value.cold, value.in_shadow]
                continue
            for col in value:
                # Memoized sequences are tuples, scalars ints.
                assert isinstance(col, (np.ndarray, tuple, int)), (key, type(col))
                if isinstance(col, np.ndarray):
                    arrays.append(col)
        assert len(arrays) == 2 * (2 + 11 + 3)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


class TestDeferredClassifier:
    """A memo hit defers the classifier to the replay's exit state; it
    is installed, the same as a scalar run's, when something reads it."""

    @pytest.fixture
    def installs(self, monkeypatch):
        calls = []
        real = batch_module._ShadowReplay.__call__

        def counting(self, shadow, seen):
            calls.append(self)
            real(self, shadow, seen)

        monkeypatch.setattr(batch_module._ShadowReplay, "__call__", counting)
        return calls

    def pair(self):
        """A batch run that read both replays another config memoized,
        and a scalar run of the same config on a fresh trace."""
        trace = build_workload("gcc", length=3000)
        make_simulator().run(trace, warmup=1000)
        batch = make_simulator(victim_filter="timekeeping")
        batch.run(trace, warmup=1000)
        assert batch.classifier.state is trace.memo[("3c", 5, 1024, 1000, 3000)]
        scalar = make_simulator(victim_filter="timekeeping")
        scalar.run(build_workload("gcc", length=3000), warmup=1000, engine="scalar")
        return batch, scalar

    def test_accessor_installs_the_exit_state_once(self, installs):
        batch, scalar = self.pair()
        assert installs == []  # neither batch built the classifier's state
        assert classifier_state(batch) == classifier_state(scalar)
        assert installs == [batch.classifier.state]
        batch.classifier.contents()
        assert len(installs) == 1

    def test_record_access_thaws_first(self, installs):
        batch, scalar = self.pair()
        shadow, seen = scalar.classifier.contents()
        lru = next(iter(shadow))
        evicted = next(b for b in sorted(seen) if b not in shadow)
        unseen = max(seen) + 1
        for block in (lru, evicted, unseen):
            for sim in (batch, scalar):
                sim.classifier.record_access(block)
        assert len(installs) == 1
        assert batch.classifier.state is None
        assert classifier_state(batch) == classifier_state(scalar)

    def test_classify_miss_thaws_first(self, installs):
        batch, scalar = self.pair()
        shadow, seen = scalar.classifier.contents()
        evicted = next(b for b in sorted(seen) if b not in shadow)
        blocks = (next(iter(shadow)), evicted, max(seen) + 1)
        got = [batch.classifier.classify_miss(b) for b in blocks]
        assert len(installs) == 1
        assert got == [scalar.classifier.classify_miss(b) for b in blocks] == [
            MissClass.CONFLICT, MissClass.CAPACITY, MissClass.COLD,
        ]
        assert classifier_state(batch) == classifier_state(scalar)

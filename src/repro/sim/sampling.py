"""Sampled fidelity tier: representative-interval simulation.

Instead of simulating every access, this module simulates a seeded,
deterministic selection of intervals — a warmup prefix that seeds
microarchitectural state plus K measured windows spread over the
measured region — and extrapolates full-run counters from the measured
fraction, attaching per-metric confidence intervals computed over the
windows (Student's t, 95%).

Window selection is a pure function of ``(trace length, warmup, seed,
plan knobs)``: the same sweep cell selects the same windows on a fresh
run, under ``--resume``, and regardless of worker count, so sampled
results are bitwise-reproducible.  The selection is also recorded in
the :class:`~repro.sim.store.RunStore` manifest (see
:meth:`SamplingPlan.to_manifest`), and a resumed store refuses to mix
plans.

One simulator instance is driven across all intervals: the batch
engine consumes each window when the configuration allows it (the
scalar loop otherwise, so victim caches and prefetchers are fully
supported), and the clock is advanced over skipped regions by their
summed compute gaps so time-based state (decay, timekeeping metrics)
ages realistically between windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..classify.three_c import MissCounts
from ..common.config import MachineConfig, paper_machine
from ..common.errors import SimulationError
from ..common.rng import derive_seed
from ..common.stats import Histogram
from ..common.types import AccessOutcome, AccessType
from ..core.metrics import TimekeepingMetrics
from ..timing.processor import TimingModel
from .batch import batch_fallback_reason, consume_batch
from .results import FIDELITIES, SimulationResult
from .simulator import make_simulator

_STORE = int(AccessType.STORE)

#: Default number of measured windows.
DEFAULT_WINDOWS = 8

#: Default window sizing: window_length = max(MIN_WINDOW_LENGTH,
#: measured // WINDOW_DIVISOR).
WINDOW_DIVISOR = 512
MIN_WINDOW_LENGTH = 512

#: Default warmup prefix actually simulated (cache state over the rest
#: of the warmup region is reconstructed, not simulated).
DEFAULT_SAMPLE_WARMUP = 512

#: Cache-state reconstruction looks at most this many trailing accesses
#: of a skipped region (see :func:`_fast_forward`); 0 disables the cap.
RECONSTRUCT_SPAN = 32768

#: Two-sided 95% Student's t critical values for 1..30 degrees of
#: freedom; larger df use the normal approximation.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def _t_critical(df: int) -> float:
    if df <= 0:
        return 0.0
    if df <= len(_T_95):
        return _T_95[df - 1]
    return 1.96


@dataclass(frozen=True)
class SamplingPlan:
    """A deterministic interval selection for one trace shape.

    ``windows`` holds absolute, non-overlapping, ascending ``(start,
    stop)`` index ranges inside the measured region; ``warmup_start``
    is where the (shrunk) warmup prefix begins, ending at
    ``measure_start`` (the exact tier's warmup boundary).
    """

    total_length: int
    measure_start: int
    warmup_start: int
    seed: int
    windows: Tuple[Tuple[int, int], ...]
    #: Accesses simulated (and discarded) immediately before each
    #: window, re-warming L1/L2 state across the skipped region
    #: (detached warming, after the interval-sampling literature).
    window_warmup: int = 0

    @property
    def sample_warmup(self) -> int:
        """Warmup accesses actually simulated before measurement."""
        return self.measure_start - self.warmup_start

    @property
    def measured_accesses(self) -> int:
        """Total accesses inside the measured windows."""
        return sum(stop - start for start, stop in self.windows)

    def to_manifest(self) -> Dict[str, Any]:
        """JSON-able record of the selection for the RunStore manifest."""
        return {
            "windows": len(self.windows),
            "window_length": self.windows[0][1] - self.windows[0][0]
            if self.windows else 0,
            "sample_warmup": self.sample_warmup,
            "window_warmup": self.window_warmup,
            "selected": [[start, stop] for start, stop in self.windows],
        }


def make_sampling_plan(
    total_length: int,
    warmup: int,
    *,
    seed: int = 0,
    windows: Optional[int] = None,
    window_length: Optional[int] = None,
    sample_warmup: Optional[int] = None,
    window_warmup: Optional[int] = None,
) -> SamplingPlan:
    """Select representative intervals for a ``total_length`` trace.

    The measured region ``[warmup, total_length)`` is split into K
    equal strata; one window lands in each stratum at a seeded offset
    (stratified systematic sampling — coverage of the whole run,
    deterministic jitter against periodic behavior).  The jitter comes
    from :func:`~repro.common.rng.derive_seed` on ``(seed, stratum)``,
    so selection depends only on the arguments, never on run order.
    """
    if total_length <= 0:
        raise SimulationError("sampling needs a non-empty trace")
    warmup = min(max(0, warmup), total_length)
    measured = total_length - warmup
    if measured <= 0:
        raise SimulationError(
            f"sampling needs a measured region, got warmup {warmup} >= "
            f"trace length {total_length}"
        )
    k = windows if windows is not None else DEFAULT_WINDOWS
    k = max(1, min(int(k), measured))
    if window_length is None:
        window_length = max(MIN_WINDOW_LENGTH, measured // WINDOW_DIVISOR)
    window_length = max(1, int(window_length))
    if sample_warmup is None:
        sample_warmup = DEFAULT_SAMPLE_WARMUP
    sample_warmup = min(max(0, int(sample_warmup)), warmup)
    # Detached warming defaults to off: _fast_forward reconstructs the
    # post-skip cache state directly, which is both faster and closer
    # to the exact run than re-warming from a stale state.
    if window_warmup is None:
        window_warmup = 0
    window_warmup = max(0, int(window_warmup))

    selected: List[Tuple[int, int]] = []
    for j in range(k):
        lo = warmup + (measured * j) // k
        hi = warmup + (measured * (j + 1)) // k
        stratum = hi - lo
        # Leave room for the warm segment inside the stratum so warm
        # spans never reach before measure_start or overlap a prior
        # window's measured span.
        length = min(window_length, max(1, stratum - window_warmup))
        slack = stratum - length - window_warmup
        jitter = derive_seed(seed, f"sampling:{j}") % (max(0, slack) + 1)
        start = lo + min(window_warmup, max(0, stratum - length)) + jitter
        selected.append((start, start + length))
    return SamplingPlan(
        total_length=total_length,
        measure_start=warmup,
        warmup_start=warmup - sample_warmup,
        seed=seed,
        windows=tuple(selected),
        window_warmup=window_warmup,
    )


def _gap_sum(trace, start: int, stop: int) -> int:
    if stop <= start:
        return 0
    gaps = trace.gaps
    if isinstance(gaps, np.ndarray):
        return int(gaps[start:stop].sum(dtype=np.int64))
    return sum(gaps[start:stop])


def _scale_count(value: int, scale: float) -> int:
    return int(round(value * scale))


def _scale_histogram(hist: Histogram, scale: float) -> Histogram:
    out = Histogram(hist.bin_width, hist.num_bins)
    out.counts = [_scale_count(c, scale) for c in hist.counts]
    out.overflow = _scale_count(hist.overflow, scale)
    out.total = sum(out.counts) + out.overflow
    out._sum = hist._sum * scale
    return out


def _scale_metrics(metrics: TimekeepingMetrics, scale: float) -> TimekeepingMetrics:
    """Extrapolate measured-window histograms to the full run.

    Distribution shape carries over (every count scales by the measured
    fraction); the raw per-generation / per-miss record lists stay as
    measured — they are samples, not totals, and scaling a record list
    has no meaning.
    """
    out = TimekeepingMetrics()
    out.live_time = _scale_histogram(metrics.live_time, scale)
    out.dead_time = _scale_histogram(metrics.dead_time, scale)
    out.access_interval = _scale_histogram(metrics.access_interval, scale)
    out.reload_interval = _scale_histogram(metrics.reload_interval, scale)
    out.reload_by_class = {
        cls: _scale_histogram(h, scale) for cls, h in metrics.reload_by_class.items()
    }
    out.dead_by_class = {
        cls: _scale_histogram(h, scale) for cls, h in metrics.dead_by_class.items()
    }
    out.live_by_class = {
        cls: _scale_histogram(h, scale) for cls, h in metrics.live_by_class.items()
    }
    out.total_generations = _scale_count(metrics.total_generations, scale)
    out.zero_live_generations = _scale_count(metrics.zero_live_generations, scale)
    # Keep the measured sample of records for figure pipelines that
    # inspect individual generations.
    out._pending_generations = list(metrics._pending_generations)
    out._generations = list(metrics._generations)
    out._live_time_pairs = list(metrics._live_time_pairs)
    out._pending_correlations = list(metrics._pending_correlations)
    out._miss_correlations = list(metrics._miss_correlations)
    return out


def _ci(samples: List[float]) -> Dict[str, Any]:
    """Mean, sample std, and 95% t half-width over per-window samples."""
    k = len(samples)
    mean = sum(samples) / k if k else 0.0
    if k < 2:
        return {"mean": mean, "std": 0.0, "ci95": 0.0, "windows": k}
    var = sum((s - mean) ** 2 for s in samples) / (k - 1)
    std = math.sqrt(var)
    half = _t_critical(k - 1) * std / math.sqrt(k)
    return {"mean": mean, "std": std, "ci95": half, "windows": k}


def _counters(sim) -> Dict[str, int]:
    """Flat snapshot of every integer statistic the result is built from.

    Per-window measured totals are deltas of two snapshots, which is
    what lets each window carry a discarded warm segment: the warm
    accesses update microarchitectural state but fall outside the
    bracketing snapshots, so they never reach the extrapolation.
    """
    import dataclasses

    c: Dict[str, int] = {
        "accesses": sim._accesses,
        "stall": sim.timing.stall_cycles,
        "compute": sim.timing.compute_cycles,
        "l2_hits": sim.hierarchy.l2_demand_hits,
        "l2_misses": sim.hierarchy.l2_demand_misses,
        "memory": sim.hierarchy.memory_accesses,
        "writebacks": sim.writebacks,
    }
    for outcome, n in sim._outcomes.items():
        c[f"outcome:{outcome.name}"] = n
    for category, n in sim.timing._breakdown.items():
        c[f"breakdown:{category}"] = n
    if sim.classifier is not None:
        mc = sim.classifier.counts
        c["mc:cold"] = mc.cold
        c["mc:conflict"] = mc.conflict
        c["mc:capacity"] = mc.capacity
    if sim.victim_cache is not None:
        vc = sim.victim_cache
        c["vc:probes"] = vc.probes
        c["vc:hits"] = vc.hits
        c["vc:fills"] = vc.fills
        c["vc:rejected"] = vc.rejected
        c["vc:lru_evictions"] = vc.lru_evictions
    if sim.policy is not None:
        table = getattr(sim.policy, "table", None)
        c["pf:scheduled"] = sim._prefetch_scheduled
        c["pf:fired"] = sim._prefetch_fired
        c["pf:issued"] = sim._prefetch_issued
        c["pf:arrived"] = sim._prefetch_arrived
        c["pf:useful"] = sim._prefetch_useful
        c["pf:discarded"] = sim.prefetch_queue.discarded
        c["pf:cancelled"] = sim.bookkeeper.cancelled
        c["pf:superseded"] = sim.bookkeeper.superseded
        c["pf:mshr_rejections"] = sim.prefetch_mshrs.full_rejections
        c["pf:predictor_lookups"] = table.lookups if table is not None else 0
        c["pf:predictor_hits"] = table.lookup_hits if table is not None else 0
    if sim.decay is not None:
        for f in dataclasses.fields(sim.decay.stats):
            value = getattr(sim.decay.stats, f.name)
            if isinstance(value, int) and not isinstance(value, bool):
                c[f"decay:{f.name}"] = value
    return c


def simulate_sampled(
    trace,
    *,
    machine: Optional[MachineConfig] = None,
    ipa: float = 3.0,
    warmup: int = 0,
    seed: int = 0,
    engine: str = "batch",
    plan: Optional[SamplingPlan] = None,
    windows: Optional[int] = None,
    window_length: Optional[int] = None,
    sample_warmup: Optional[int] = None,
    window_warmup: Optional[int] = None,
    collect_metrics: bool = False,
    **config: Any,
) -> SimulationResult:
    """Sampled drop-in for :func:`repro.sim.simulator.simulate`.

    Accepts every exact-tier configuration knob (victim caches,
    prefetchers, decay, perfect mode — non-batchable configurations run
    each window through the scalar loop).  Returns a
    :class:`SimulationResult` whose counters are extrapolated to the
    full measured region, with ``fidelity="sampled"`` and
    :attr:`~SimulationResult.error_bars` carrying per-window confidence
    intervals and the interval selection.
    """
    total = len(trace)
    if plan is None:
        plan = make_sampling_plan(
            total, warmup, seed=seed, windows=windows,
            window_length=window_length, sample_warmup=sample_warmup,
            window_warmup=window_warmup,
        )
    elif plan.total_length != total or plan.measure_start != min(warmup, total):
        raise SimulationError(
            f"sampling plan was built for length {plan.total_length} / "
            f"warmup {plan.measure_start}, trace has {total} / {warmup}"
        )
    machine = machine if machine is not None else paper_machine()
    sim = make_simulator(
        machine, ipa=ipa, collect_metrics=collect_metrics, **config
    )
    if engine not in ("batch", "scalar"):
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of ('batch', 'scalar')"
        )
    use_batch = False
    if engine == "batch":
        sim.batch_fallback = batch_fallback_reason(sim, trace)
        use_batch = sim.batch_fallback is None
    sim.engine_used = "batch" if use_batch else "scalar"

    def run_span(start: int, stop: int) -> None:
        if stop <= start:
            return
        if use_batch:
            consume_batch(sim, trace, start, stop)
        else:
            sim._consume(trace.sliced(start, stop).rows())

    # Warmup prefix: fast-forward cache state over the skipped head of
    # the warmup region (the L2 fills during warmup in an exact run —
    # without this the whole measured region sees a cold L2), simulate
    # the tail right before the measured region, then reset the books
    # exactly as run() does.
    if plan.warmup_start > 0 and sim._assoc == 1:
        _fast_forward(sim, trace, 0, plan.warmup_start, use_batch)
    sim.now += _gap_sum(trace, 0, plan.warmup_start)
    run_span(plan.warmup_start, plan.measure_start)
    sim._reset_stats()

    deltas: List[Dict[str, int]] = []
    cursor = plan.measure_start
    for start, stop in plan.windows:
        # Detached warming: simulate window_warmup accesses before the
        # measured span so L1/L2/predictor state recovers from the
        # skipped region, but keep their stats out of the snapshots.
        warm_start = max(cursor, start - plan.window_warmup)
        if warm_start > cursor and sim._assoc == 1:
            # Fast-forward cache state over the skip: carrying stale
            # contents across thousands of skipped accesses inflates
            # window hit rates, and flushing would deflate them.  For
            # the DM L1 the post-skip state is closed-form exact.
            _fast_forward(sim, trace, cursor, warm_start, use_batch)
        sim.now += _gap_sum(trace, cursor, warm_start)
        run_span(warm_start, start)
        before = _counters(sim)
        run_span(start, stop)
        after = _counters(sim)
        deltas.append({k: v - before.get(k, 0) for k, v in after.items()})
        cursor = stop
    simulated_accesses = sim._accesses  # windows + warm segments
    sim._finished = True

    totals: Dict[str, int] = {}
    for delta in deltas:
        for k, v in delta.items():
            totals[k] = totals.get(k, 0) + v
    measured_accesses = totals.get("accesses", 0)
    region = total - plan.measure_start
    if measured_accesses <= 0:
        raise SimulationError("sampling plan selected no accesses")
    scale = region / measured_accesses

    # ---- extrapolated counters -------------------------------------------
    outcomes = {outcome: 0 for outcome in AccessOutcome}
    scaled_other = 0
    for outcome in AccessOutcome:
        if outcome is AccessOutcome.L1_HIT:
            continue
        outcomes[outcome] = _scale_count(totals.get(f"outcome:{outcome.name}", 0), scale)
        scaled_other += outcomes[outcome]
    outcomes[AccessOutcome.L1_HIT] = max(0, region - scaled_other)
    l1_hits = outcomes[AccessOutcome.L1_HIT]
    l1_misses = region - l1_hits

    # ---- extrapolated timing ---------------------------------------------
    # Compute cycles over the measured region are exact (a column sum);
    # only the stalls are extrapolated from the windows.
    timing = TimingModel(machine.processor, ipa)
    timing.compute_cycles = _gap_sum(trace, plan.measure_start, total)
    timing._accesses = region
    for key, amount in totals.items():
        if not key.startswith("breakdown:"):
            continue
        scaled = _scale_count(amount, scale)
        timing._breakdown[key[len("breakdown:"):]] = scaled
        timing.stall_cycles += scaled
    if not timing._breakdown:
        timing.stall_cycles = _scale_count(totals.get("stall", 0), scale)

    # ---- per-window confidence intervals ---------------------------------
    miss_rates: List[float] = []
    ipcs: List[float] = []
    max_ipc = float(machine.processor.issue_width)
    for delta in deltas:
        acc = delta.get("accesses", 0)
        if acc <= 0:
            continue
        hits = delta.get(f"outcome:{AccessOutcome.L1_HIT.name}", 0)
        miss_rates.append((acc - hits) / acc)
        cycles = max(1, delta.get("compute", 0) + delta.get("stall", 0))
        ipcs.append(min(acc * ipa / cycles, max_ipc))
    error_bars: Dict[str, Any] = {
        "confidence": 0.95,
        "measured_accesses": measured_accesses,
        "simulated_accesses": simulated_accesses,
        "extrapolation_scale": scale,
        "plan": plan.to_manifest(),
        "l1_miss_rate": _ci(miss_rates),
        "ipc": _ci(ipcs),
    }

    metrics = None
    if collect_metrics and sim.metrics is not None:
        # Metric distributions come from every simulated post-warmup
        # access (warm segments included — they are valid samples of the
        # same generations), so their scale differs from the counters'.
        metrics = _scale_metrics(sim.metrics, region / simulated_accesses)

    miss_counts = None
    if sim.classifier is not None:
        miss_counts = MissCounts(
            cold=_scale_count(totals.get("mc:cold", 0), scale),
            conflict=_scale_count(totals.get("mc:conflict", 0), scale),
            capacity=_scale_count(totals.get("mc:capacity", 0), scale),
        )

    return SimulationResult(
        name=trace.name,
        accesses=region,
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        outcomes=outcomes,
        timing=timing.result(),
        miss_counts=miss_counts,
        victim=_victim_stats(sim, totals, scale),
        prefetch=_prefetch_stats(sim, totals, scale),
        metrics=metrics,
        l2_hits=_scale_count(totals.get("l2_hits", 0), scale),
        l2_misses=_scale_count(totals.get("l2_misses", 0), scale),
        memory_accesses=_scale_count(totals.get("memory", 0), scale),
        decay=_decay_stats(sim, totals, scale),
        writebacks=_scale_count(totals.get("writebacks", 0), scale),
        fidelity="sampled",
        error_bars=error_bars,
    )


def _fast_forward(sim, trace, start: int, stop: int, use_batch: bool) -> None:
    """Reconstruct cache state across a skipped region without simulating it.

    For a direct-mapped L1 the tag state after accesses ``[start,
    stop)`` is exact and closed-form: each touched set holds the last
    block accessed in it, with fill/dirty/hit metadata recovered from
    the trailing resident generation (one narrow stable sort by set,
    no per-access loop).  Only L1 misses reach the L2, and the skip's
    DM miss stream is itself exact, so the L2's occupancy advances by
    merging each set's most recently missed distinct blocks into its
    LRU state — through the batch engine's lean deferred structures
    when available (building them from scratch on a cold L2), or the
    real frames otherwise.  Timestamps inside the skip use the
    compute-gap clock (stalls the skip would have added are unknown);
    they only feed metric distributions, never counters.

    Long skips are reconstructed from their trailing
    ``RECONSTRUCT_SPAN`` accesses: anything a set saw before that
    suffix is either evicted by the suffix or preserved as the
    pre-skip state it still holds, so the truncation degrades
    gracefully while making reconstruction O(span) instead of
    O(skip).

    Statistics are untouched: this runs between the measured spans'
    snapshots, so it only affects microarchitectural state.  With a
    set-associative L1 the closed form does not apply and the caller
    falls back to plain detached warming.
    """
    if 0 < RECONSTRUCT_SPAN < stop - start:
        start = stop - RECONSTRUCT_SPAN
    n = stop - start
    if n <= 0:
        return
    addresses, kinds, gaps = trace.scan_columns(start, stop)
    blocks = (addresses >> sim._offset_bits).astype(np.int64)
    stores = kinds == _STORE
    now0 = sim.now
    t = np.cumsum(gaps, dtype=np.int64)

    # ---- one stable sort by set drives everything ------------------------
    # After the stable sort each set's accesses form one contiguous run
    # in original order, so hits/misses, the final resident, and the
    # trailing resident generation all fall out of adjacent-element
    # comparisons: an access hits iff its predecessor in the run (or
    # the pre-skip resident, at the head) is the same block, and the
    # resident's generation began at the run's last miss.
    l1 = sim.l1
    num_sets = l1.num_sets
    sets = blocks & (num_sets - 1)
    if num_sets <= 32768:
        order = np.argsort(sets.astype(np.int16), kind="stable")
    else:
        order = np.argsort(sets, kind="stable")
    ss = sets[order]
    sb = blocks[order]
    st = stores[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    head[1:] = ss[1:] != ss[:-1]
    heads_idx = np.flatnonzero(head)
    tails_idx = np.r_[heads_idx[1:], n] - 1
    gcount = len(heads_idx)
    gid = np.cumsum(head) - 1

    # Pre-skip residents (the skip's head accesses hit or miss against
    # them, and they decide whether a resident survived the skip).
    entry_resident = np.full(num_sets, -1, dtype=np.int64)
    for frame in l1._tags.values():
        entry_resident[frame.set_index] = frame.block_addr

    hit_sorted = np.empty(n, dtype=bool)
    hit_sorted[0] = False
    hit_sorted[1:] = (sb[1:] == sb[:-1]) & (ss[1:] == ss[:-1])
    hit_sorted[head] = entry_resident[ss[head]] == sb[head]
    mpos = np.flatnonzero(~hit_sorted)

    # Last miss per set (-1: the pre-skip resident survived; its
    # generation extends instead of restarting).
    last_miss = np.full(gcount, -1, dtype=np.int64)
    last_miss[gid[mpos]] = mpos
    survived = last_miss < 0
    run_start = np.where(survived, heads_idx, last_miss)
    st_cum = np.cumsum(st, dtype=np.int64)

    resident = sb[tails_idx].tolist()
    hit_counts = (tails_idx - run_start).tolist()
    run_dirty = (
        (st_cum[tails_idx] - st_cum[run_start] + st[run_start]) > 0
    ).tolist()
    fill_t = (now0 + t[order[run_start]]).tolist()
    last_t = (now0 + t[order[tails_idx]]).tolist()

    l1_tags = l1._tags
    index_bits = l1._index_bits
    open_last = sim.generations._open_last
    open_max = sim.generations._open_max
    for set_idx, blk, hc, dirty, fill, last, stayed in zip(
        ss[heads_idx].tolist(), resident, hit_counts, run_dirty, fill_t, last_t,
        survived.tolist(),
    ):
        frame = l1._sets[set_idx][0] if l1._sets[set_idx] else None
        if frame is None:
            frame = l1._materialize_set(set_idx)[0]
        if stayed and frame.valid and frame.block_addr == blk:
            # The resident survived the whole skip: extend its
            # generation instead of restarting it.
            frame.hit_count += hc + 1
            frame.last_access_time = last
            frame.lt_register = last - frame.fill_time
            if dirty:
                frame.dirty = True
            open_last[frame.frame_key] = last
            continue
        if frame.valid:
            del l1_tags[frame.block_addr]
        else:
            l1._valid_counts[set_idx] += 1
        frame.reset_generation(blk, blk >> index_bits, fill)
        l1_tags[blk] = frame
        if hc:
            frame.hit_count = hc
            frame.last_access_time = last
            frame.lt_register = last - fill
        if dirty:
            frame.dirty = True
        l1._clock += 1
        frame.lru_stamp = l1._clock
        key = frame.frame_key
        open_last[key] = last if hc else fill
        open_max[key] = 0

    if sim.victim_cache is not None:
        # 32 entries versus thousands of skipped evictions: the buffer
        # fully turns over.  Dropping it entirely is the closest cheap
        # approximation (re-deriving its exact contents would need the
        # full eviction stream).
        sim.victim_cache._blocks.clear()

    # ---- L2: occupancy replay --------------------------------------------
    # Only L1 misses reach the L2, and for a DM L1 the skip's miss
    # stream is exact: an access misses iff the previous access to its
    # set (or the pre-skip resident, at the head of a set's run) was a
    # different block.  Replaying the misses' distinct L2 blocks in
    # last-miss order both shrinks the replay and keeps the L2's
    # recency order faithful to the real demand stream.
    hierarchy = sim.hierarchy
    l2 = hierarchy.l2
    if len(mpos) == 0:
        return
    miss_idx = order[mpos]
    miss_idx.sort()
    m = len(miss_idx)
    l2_blocks = blocks[miss_idx] >> hierarchy._l2_shift
    rev = l2_blocks[::-1]
    uniq, first_rev = np.unique(rev, return_index=True)
    last_idx = m - 1 - first_rev

    # Per L2 set, only the ``assoc`` most recently missed distinct
    # blocks can still be resident when the skip ends — everything
    # older is evicted along the way.  Select them in closed form
    # (lexsort by set then last-miss index, keep each group's tail) so
    # the merge below loops over sets, not over every distinct block.
    l2_set_mask = l2._set_mask
    l2_assoc = l2.associativity
    us = uniq & l2_set_mask
    sel = np.lexsort((last_idx, us))
    gs = us[sel]
    u = len(sel)
    gpos = np.arange(u, dtype=np.int64)
    ghead = np.empty(u, dtype=bool)
    ghead[0] = True
    ghead[1:] = gs[1:] != gs[:-1]
    gid = np.cumsum(ghead) - 1
    gend = np.empty(int(gid[-1]) + 1, dtype=np.int64)
    gend[gid] = gpos
    keep = gpos > gend[gid] - l2_assoc
    ks = gs[keep]
    kb = uniq[sel[keep]].tolist()
    kt = (now0 + t[miss_idx[last_idx[sel[keep]]]]).tolist()
    kn = len(kb)
    khead = np.empty(kn, dtype=bool)
    khead[0] = True
    khead[1:] = ks[1:] != ks[:-1]
    bounds = np.flatnonzero(khead).tolist()
    bounds.append(kn)
    ksets = ks[khead].tolist()

    payload = l2.deferred_contents()
    if payload is None and (not use_batch or l2._tags):
        # Real frames (scalar engine, or some batch fallback left
        # materialized state): go through the cache API so policy state
        # stays coherent.
        for lb, when in zip(kb, kt):
            l2.access(lb, when)
        return
    from .batch import _DeferredL2State

    if payload is None:
        # Cold L2 under the batch engine (nothing has run yet): build
        # the lean deferred structures from scratch instead of paying
        # for one real Frame per distinct block.
        set_lists: Dict[int, List[int]] = {}
        way_of: Dict[int, int] = {}
        free_ways: Dict[int, List[int]] = {}
        base_fields = dict
        clk = l2._clock
    else:
        set_lists = payload.set_lists
        way_of = payload.way_of
        free_ways = payload.free_ways
        base_fields = payload.final_fields
        clk = payload.clock0 + len(payload.ev_block)
    default_ways = range(l2_assoc - 1, -1, -1)
    added: Dict[int, tuple] = {}
    removed: List[int] = []
    for gi, s in enumerate(ksets):
        lo, hi = bounds[gi], bounds[gi + 1]
        new = kb[lo:hi]
        times = kt[lo:hi]
        lst = set_lists.get(s)
        if lst is None:
            lst = []
            free = free_ways[s] = list(default_ways)
        else:
            free = free_ways[s]
        if lst:
            in_new = set(new)
            survivors = [b for b in lst if b not in in_new]
        else:
            survivors = []
        # LRU→MRU after the skip: surviving residents (original order)
        # then the skip's blocks by last miss; anything past ``assoc``
        # from the MRU end was evicted during the skip.
        final = survivors + new
        excess = len(final) - l2_assoc
        if excess > 0:
            for old in final[:excess]:
                free.append(way_of.pop(old))
                if added.pop(old, None) is None:
                    removed.append(old)
            final = final[excess:]
        for b, when in zip(new, times):
            clk += 1
            if b not in way_of:
                way_of[b] = free.pop()
                added[b] = (when, when, 0, 0, False, -1, clk)
        set_lists[s] = final

    def fields_fn(base=base_fields, added=added, removed=tuple(removed)):
        fields = dict(base())
        for b in removed:
            fields.pop(b, None)
        fields.update(added)
        return fields

    empty = np.zeros(0, dtype=np.int64)
    l2.defer_contents(
        _DeferredL2State(
            set_lists, way_of, free_ways, fields_fn,
            empty, empty, np.zeros(0, dtype=bool), empty,
            clk, l2._index_bits, l2_assoc,
        )
    )


def _victim_stats(sim, totals: Dict[str, int], scale: float):
    if sim.victim_cache is None:
        return None
    from .results import VictimStats

    # entries is the buffer's capacity, not a rate — never scaled.
    return VictimStats(
        entries=sim.victim_cache.entries,
        probes=_scale_count(totals.get("vc:probes", 0), scale),
        hits=_scale_count(totals.get("vc:hits", 0), scale),
        fills=_scale_count(totals.get("vc:fills", 0), scale),
        rejected=_scale_count(totals.get("vc:rejected", 0), scale),
        lru_evictions=_scale_count(totals.get("vc:lru_evictions", 0), scale),
    )


def _prefetch_stats(sim, totals: Dict[str, int], scale: float):
    if sim.policy is None:
        return None
    from .results import PrefetchStats

    def scaled(key: str) -> int:
        return _scale_count(totals.get(f"pf:{key}", 0), scale)

    # table_bytes is a size and timeliness a measured sample of
    # per-prefetch classifications — neither is extrapolated.
    return PrefetchStats(
        scheduled=scaled("scheduled"),
        fired=scaled("fired"),
        issued=scaled("issued"),
        arrived=scaled("arrived"),
        useful=scaled("useful"),
        discarded=scaled("discarded"),
        cancelled=scaled("cancelled"),
        superseded=scaled("superseded"),
        mshr_rejections=scaled("mshr_rejections"),
        predictor_lookups=scaled("predictor_lookups"),
        predictor_hits=scaled("predictor_hits"),
        table_bytes=sim.policy.state_bytes(),
        timeliness=sim.bookkeeper.counts,
    )


def _decay_stats(sim, totals: Dict[str, int], scale: float):
    if sim.decay is None:
        return None
    import dataclasses

    updates = {
        f.name: _scale_count(totals[f"decay:{f.name}"], scale)
        for f in dataclasses.fields(sim.decay.stats)
        if f"decay:{f.name}" in totals
    }
    return dataclasses.replace(sim.decay.stats, **updates)


# ---------------------------------------------------------------------------
# fidelity dispatch (shared by run_workload and the sweep runner)
# ---------------------------------------------------------------------------

def simulate_with_fidelity(
    trace,
    fidelity: str = "exact",
    *,
    seed: int = 0,
    **kwargs: Any,
) -> SimulationResult:
    """Run *trace* at the requested fidelity tier.

    ``exact`` forwards to :func:`~repro.sim.simulator.simulate`
    unchanged (bit-for-bit the pre-fidelity behavior); ``sampled``
    forwards to :func:`simulate_sampled` with *seed* driving interval
    selection.
    """
    if fidelity not in FIDELITIES:
        raise SimulationError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
        )
    if fidelity == "exact":
        from .simulator import simulate

        return simulate(trace, **kwargs)
    return simulate_sampled(trace, seed=seed, **kwargs)

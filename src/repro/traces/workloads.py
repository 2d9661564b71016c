"""Synthetic SPEC2000 stand-in workloads.

The paper evaluates on SPEC CPU2000 reference runs (2B instructions on an
Alpha).  Those traces are not available here, so each benchmark gets a
*stand-in*: a composition of :mod:`repro.traces.kernels` whose parameters
are chosen to match the benchmark's published characteristics in the
paper —

- its memory-boundness (Figure 1: how much IPC is lost to L1D conflict +
  capacity misses),
- its miss-type mix (Figure 2: conflict vs capacity vs cold),
- its address predictability (Figures 19/20: e.g. ammp near-perfect,
  twolf/parser near-zero, mcf only with megabyte-scale tables),
- its generation-time scale (Figure 21: mgrid/facerec have short
  generations and hence late prefetches).

Every stand-in is deterministic given (length, seed).  The
:data:`SPEC2000` registry lists them in the paper's Figure-1 order
(left = least memory-bound, right = most potential speedup).

Each workload is a declarative *plan* — a :class:`Kernel` or a
:class:`Mix` of kernels — that :meth:`WorkloadSpec.build` materializes
through numpy columnar synthesis (:data:`repro.traces.kernels.COLUMNAR`).
The plan's :meth:`~Kernel.rows` is the original per-row iterator
pipeline (:func:`repro.traces.kernels.interleave` over kernel
generators), kept as the reference the columns must match bitwise:
both read one plan object, so they cannot structurally drift, and
``tests/traces/test_vectorized_equivalence.py`` pins the equivalence.

Address map: each kernel gets its own 16MB-aligned region so distinct
data structures never overlap, while still colliding freely in the 32KB
L1 (whose index uses address bits 5..14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..common.errors import TraceError
from ..common.rng import derive_seed, make_rng
from ..common.types import KB, MB
from . import kernels
from .kernels import Columns, Row
from .trace import Trace

#: Version stamp of the synthesis pipelines.  Part of every trace-cache
#: key: bump it whenever a change to the kernels, the workload plans, or
#: the seeding scheme alters the emitted columns, so stale cache entries
#: are rebuilt instead of silently served.
GENERATOR_VERSION = 2

#: Spacing between kernel data regions.  Generous (a quarter GB) so
#: sparse structures can spread over a realistic virtual-address range:
#: tag entropy matters — with only a handful of distinct tags, the
#: correlation table's identification-tag match false-hits far more
#: often than it would on real programs.
REGION = 256 * MB
#: Per-region stagger so distinct regions do not alias to the same L1
#: set (a real allocator/compiler would not place arrays exactly 2^k
#: apart either).  Multiple of the 64B L2 block size.
REGION_STAGGER = 5 * KB + 192


def _region(i: int) -> int:
    """Base address of the i-th data region (set-decorrelated)."""
    return (i + 1) * REGION + i * REGION_STAGGER


def _conflict_set(region_index: int, num_ways: int, *, set_offset: int = 0x40) -> List[int]:
    """Addresses in one region that all map to the same 32KB-L1 set.

    The L1 is 32KB direct-mapped, so addresses 32KB apart collide.
    """
    base = _region(region_index) + set_offset
    return [base + way * 32 * KB for way in range(num_ways)]


# ---------------------------------------------------------------------------
# Declarative synthesis plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """One kernel invocation, as rows or as columns."""

    generator: Callable[..., Iterator[Row]]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def rows(self) -> Iterator[Row]:
        """The endless row generator (the columns' reference)."""
        return self.generator(*self.args, **self.kwargs)

    def columns(self, n: int) -> Columns:
        """The kernel's first *n* rows as numpy columns."""
        return kernels.columns_for(self.generator)(n, *self.args, **self.kwargs)


@dataclass(frozen=True)
class Mix:
    """Burst-interleaved composition of kernels (see
    :func:`repro.traces.kernels.interleave`)."""

    kernels: Tuple[Kernel, ...]
    weights: Tuple[float, ...]
    seed: int
    burst: int = 16

    def rows(self) -> Iterator[Row]:
        return kernels.interleave(
            [k.rows() for k in self.kernels],
            list(self.weights),
            seed=self.seed,
            burst=self.burst,
        )

    def columns(self, n: int) -> Columns:
        """Vectorized interleave: same burst schedule, scattered columns.

        Replays :func:`~repro.traces.kernels.interleave`'s exact RNG
        draws (one ``random()`` per started burst against the same
        cumulative-weight edges), then asks each kernel for exactly the
        rows its bursts consume and scatters them into place.
        """
        if len(self.kernels) != len(self.weights):
            raise ValueError("sources and weights must have equal length")
        if not self.kernels:
            raise ValueError("need at least one source")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        burst = self.burst
        n_bursts = -(-n // burst)
        rng = make_rng(self.seed, "interleave")
        random_draw = rng.random
        # float64 running sum, identical to interleave's Python
        # accumulation (cumsum adds left to right).
        edges = np.cumsum(np.asarray(self.weights, dtype=np.float64))
        total = edges[-1]
        picks = np.fromiter(
            (random_draw() for _ in range(n_bursts)), dtype=np.float64, count=n_bursts
        )
        # interleave picks the first source whose cumulative edge
        # satisfies ``pick <= edge``; 'left' finds exactly that index.
        chosen = np.searchsorted(edges, picks * total, side="left")

        out_addr = np.empty(n, dtype=np.int64)
        out_pc = np.empty(n, dtype=np.int64)
        out_kind = np.empty(n, dtype=np.int8)
        out_gap = np.empty(n, dtype=np.int32)
        offsets = np.arange(burst, dtype=np.int64)
        for s, kernel in enumerate(self.kernels):
            bursts = np.nonzero(chosen == s)[0]
            if bursts.size == 0:
                continue
            positions = (bursts[:, None] * burst + offsets[None, :]).reshape(-1)
            if positions[-1] >= n:  # the final burst may be truncated
                positions = positions[positions < n]
            addr, pc, kind, gap = kernel.columns(positions.size)
            out_addr[positions] = addr
            out_pc[positions] = pc
            out_kind[positions] = kind
            out_gap[positions] = gap
        return out_addr, out_pc, out_kind, out_gap


#: A workload's synthesis plan: one kernel or a weighted mix.
Plan = Union[Kernel, Mix]


def _K(generator: Callable[..., Iterator[Row]], *args: Any, **kwargs: Any) -> Kernel:
    return Kernel(generator, args, kwargs)


# ---------------------------------------------------------------------------
# Synthesis instrumentation
# ---------------------------------------------------------------------------

#: Listeners called as ``fn(workload_name, length, seed)`` every time a
#: workload trace is actually *synthesized*.  Cache hits do not notify —
#: which is exactly what the sweep-level "materialize once per workload"
#: regression tests assert through this hook.
_synthesis_listeners: List[Callable[[str, int, int], None]] = []


def add_synthesis_listener(fn: Callable[[str, int, int], None]) -> None:
    """Register a synthesis observer (testing/benchmark hook)."""
    _synthesis_listeners.append(fn)


def remove_synthesis_listener(fn: Callable[[str, int, int], None]) -> None:
    """Unregister a previously added synthesis observer."""
    _synthesis_listeners.remove(fn)


def _notify_synthesis(name: str, length: int, seed: int) -> None:
    for fn in _synthesis_listeners:
        fn(name, length, seed)


# ---------------------------------------------------------------------------
# Workload registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """A named synthetic benchmark.

    Attributes:
        name: SPEC2000 benchmark this stands in for.
        description: What the composition models and why.
        make_plan: Factory ``(seed) -> synthesis plan``.
        ipa: Instructions per memory access, used by the IPC model.
        category: Coarse label matching the paper's Figure 22 grouping.
    """

    name: str
    description: str
    make_plan: Callable[[int], Plan]
    ipa: float = 3.0
    category: str = "mixed"

    def build(self, length: int = 100_000, seed: int = 0) -> Trace:
        """Materialize *length* accesses of this workload."""
        if length <= 0:
            raise TraceError(f"trace length must be positive, got {length}")
        _notify_synthesis(self.name, length, seed)
        plan = self.make_plan(derive_seed(seed, self.name))
        addresses, pcs, kinds, gaps = plan.columns(length)
        return Trace(
            addresses, pcs, kinds, gaps,
            name=self.name,
            total_gap=int(gaps.sum(dtype=np.int64)),
        )


def _mix(seed: int, parts: Sequence[Tuple[Kernel, float]], burst: int = 16) -> Mix:
    sources, weights = zip(*parts)
    return Mix(tuple(sources), tuple(weights), seed=seed, burst=burst)


# ---------------------------------------------------------------------------
# Low-memory-stall benchmarks (Figure 22 top set: eon, vortex, galgel,
# sixtrack, ...).  Small working sets that fit L1, long compute gaps.
# ---------------------------------------------------------------------------

def _low_stall(hot_kb: int, gap: int, seed_label: str) -> Callable[[int], Plan]:
    def make(seed: int) -> Plan:
        return _mix(
            seed,
            [
                (_K(kernels.working_set_loop, _region(0), hot_kb * KB, stride=32, gap=gap), 0.7),
                (_K(kernels.hot_cold,
                    _region(1), 4 * KB, _region(2), 64 * KB,
                    hot_fraction=0.98, gap=gap, seed=derive_seed(seed, seed_label)), 0.3),
            ],
        )
    return make


# ---------------------------------------------------------------------------
# Conflict-dominated benchmarks (victim cache set: vpr, crafty, twolf,
# parser, gzip, bzip2, perlbmk, wupwise).  Hot loops plus set-thrashing.
# ---------------------------------------------------------------------------

def _conflicty(
    thrash_ways: int,
    thrash_weight: float,
    hot_kb: int,
    gap: int,
    *,
    noise_weight: float = 0.0,
    noise_kb: int = 256,
    accesses_per_block: int = 2,
    num_thrash_sets: int = 4,
) -> Callable[[int], Plan]:
    def make(seed: int) -> Plan:
        parts: List[Tuple[Kernel, float]] = [
            (_K(kernels.working_set_loop, _region(0), hot_kb * KB, stride=32, gap=gap),
             1.0 - thrash_weight - noise_weight),
        ]
        per_set = thrash_weight / num_thrash_sets
        for s in range(num_thrash_sets):
            # Alternate 2-way (A->B->A, the ping-pong a Collins filter
            # catches) with wider rotations only timekeeping catches.
            ways = 2 if s % 2 == 0 else max(2, thrash_ways)
            parts.append((
                _K(kernels.conflict_thrash,
                   _conflict_set(3 + s, ways, set_offset=0x40 + s * 0x400),
                   accesses_per_block=accesses_per_block,
                   gap=gap,
                   # 2-way ping-pong keeps its natural A->B->A order (a
                   # Collins filter must be able to catch it); wider
                   # rotations get data-dependent visit order.
                   jitter_seed=0 if ways == 2 else derive_seed(seed, f"thrash{s}")),
                per_set,
            ))
        if noise_weight > 0:
            parts.append((
                _K(kernels.random_access,
                   _region(10), noise_kb * KB, gap=gap, seed=derive_seed(seed, "noise")),
                noise_weight,
            ))
        return _mix(seed, parts, burst=thrash_ways * accesses_per_block)
    return make


# ---------------------------------------------------------------------------
# Capacity-dominated, prefetch-friendly benchmarks (gcc, swim, mgrid,
# applu, facerec, ammp, art, mcf).  Working sets beyond 32KB (and for the
# most memory-bound ones beyond the 1MB L2), regular traversals.
# ---------------------------------------------------------------------------

def _gcc_like(seed: int) -> Plan:
    """Hot IR working set + streaming passes + bursty pointer noise."""
    return _mix(
        seed,
        [
            (_K(kernels.hot_cold,
                _region(0), 16 * KB, _region(1), 256 * KB,
                hot_fraction=0.6, gap=1, seed=derive_seed(seed, "hc"),
                sequential_cold=True), 0.20),
            (_K(kernels.sequential_sweep, _region(2), 96 * KB, stride=8, gap=1), 0.72),
            (_K(kernels.pointer_chase, _region(3), 4_000, node_bytes=64, gap=1,
                seed=derive_seed(seed, "pc")), 0.08),
        ],
        burst=48,
    )


def _mcf_like(seed: int) -> Plan:
    """Huge pointer chase (network simplex arcs) + small hot loop.

    The 3MB node footprint defeats the L2, and one table entry per node
    is needed to predict the chase — only megabyte-scale correlation
    tables (DBCP) cover it, reproducing mcf's table-size sensitivity.
    """
    return _mix(
        seed,
        [
            # Arc records spread over ~10MB of address space (544B
            # apart, an odd block multiple so all L1 sets are used):
            # ~1.1MB of touched 64B lines spills the L2, and the wide
            # tag space keeps small correlation tables from matching —
            # mcf's table-size hunger.
            (_K(kernels.pointer_chase, _region(0), 24_000, node_bytes=2080, gap=12,
                seed=derive_seed(seed, "arcs")), 0.8),
            (_K(kernels.working_set_loop, _region(1), 8 * KB, stride=32, gap=6), 0.2),
        ],
        burst=64,
    )


def _swim_like(seed: int) -> Plan:
    """Three grids swept in lockstep (shallow-water arrays).

    192KB joint footprint: far beyond the 32KB L1 (pure L1 capacity
    misses) but L2-resident; one pass is ~24K accesses so default-length
    traces see several reuse generations.
    """
    return _K(kernels.stream_triad,
              _region(0), _region(1), _region(2), 8_000, element_bytes=8, gap=1)


def _mgrid_like(seed: int) -> Plan:
    """Multigrid: stencils over nested grids — short, regular generations."""
    return _mix(
        seed,
        [
            (_K(kernels.stencil_sweep, _region(0), 64, 64, element_bytes=8, gap=1), 0.4),
            (_K(kernels.sequential_sweep, _region(2), 128 * KB, stride=8, gap=1), 0.6),
        ],
        burst=64,
    )


def _applu_like(seed: int) -> Plan:
    """SSOR sweeps: large sequential passes with block reuse."""
    return _mix(
        seed,
        [
            (_K(kernels.sequential_sweep, _region(0), 192 * KB, stride=8, gap=1), 0.8),
            (_K(kernels.working_set_loop, _region(1), 20 * KB, stride=32, gap=1), 0.2),
        ],
        burst=64,
    )


def _art_like(seed: int) -> Plan:
    """Neural-net weights swept in long bursts with noisy winner lookups.

    The long bursts overflow the prefetch queue (discards) and the
    random F1 lookups drag address accuracy down — art's signature
    behaviors in Figures 20/21.
    """
    return _mix(
        seed,
        [
            (_K(kernels.sequential_sweep, _region(0), 320 * KB, stride=8, gap=1), 0.65),
            (_K(kernels.random_access, _region(1), 256 * KB, gap=1,
                seed=derive_seed(seed, "f1")), 0.35),
        ],
        burst=256,
    )


def _facerec_like(seed: int) -> Plan:
    """Image-graph correlation: gallery/probe image sweeps with a
    short-generation stencil over the graph grid.

    The two image streams dominate the misses (predictable order, short
    regular generations); the stencil contends with them in the L1 and
    keeps generation times short — facerec's paper signature of
    hard-to-time prefetches.
    """
    return _mix(
        seed,
        [
            (_K(kernels.stencil_sweep, _region(0), 48, 64, element_bytes=4, gap=1), 0.25),
            (_K(kernels.sequential_sweep, _region(1), 96 * KB, stride=8, gap=1), 0.45),
            (_K(kernels.sequential_sweep, _region(2), 64 * KB, stride=8, gap=1), 0.30),
        ],
        burst=48,
    )


def _ammp_like(seed: int) -> Plan:
    """Molecular dynamics neighbor sweeps: perfectly regular, memory-bound.

    Three 16-byte-element arrays (1.1MB joint footprint, slightly
    spilling the L2): half of all accesses miss the L1, and the
    perfectly repeating triad makes both the next address and the live
    time trivially predictable — ammp is the paper's best prefetch case
    (+257%).
    """
    return _K(kernels.stream_triad,
              _region(0), _region(1), _region(2), 8_000, element_bytes=16, gap=1)


def _lucas_like(seed: int) -> Plan:
    """FFT butterflies: bit-reversed (shuffled) passes over the working
    array plus power-of-two stride conflicts.

    Bit-reversed addressing makes the per-frame miss transitions look
    random to a correlation prefetcher, while the footprint (beyond the
    L1) and the short-dead-time conflicts keep both miss populations —
    lucas lands in the paper's "helped a little by both mechanisms"
    overlap.
    """
    return _mix(
        seed,
        [
            (_K(kernels.random_access, _region(0), 128 * KB, gap=2,
                seed=derive_seed(seed, "bitrev")), 0.30),
            (_K(kernels.sequential_sweep, _region(1), 64 * KB, stride=16, gap=2), 0.45),
            (_K(kernels.conflict_thrash, _conflict_set(2, 4), accesses_per_block=2,
                gap=2, jitter_seed=derive_seed(seed, "butterfly")), 0.25),
        ],
        burst=32,
    )


def _twolf_like(seed: int) -> Plan:
    """Placement annealing: random cell lookups — unpredictable addresses."""
    return _mix(
        seed,
        [
            # Cells scattered over 48MB of address space (one 32B block
            # per 4.3KB record; odd block multiple so all sets are hit):
            # ~360KB of live data with a wide tag space, so correlation
            # tables rarely even match.
            (_K(kernels.random_access, _region(0), 48 * MB, align=4384, gap=2,
                seed=derive_seed(seed, "cells")), 0.45),
            (_K(kernels.working_set_loop, _region(1), 12 * KB, stride=32, gap=2), 0.40),
            (_K(kernels.conflict_thrash, _conflict_set(2, 3), accesses_per_block=2,
                gap=2, jitter_seed=derive_seed(seed, "cells-thrash")), 0.15),
        ],
        burst=16,
    )


def _parser_like(seed: int) -> Plan:
    """Dictionary walks: random hash probes over a mid-size table."""
    return _mix(
        seed,
        [
            (_K(kernels.random_access, _region(0), 40 * MB, align=3488, gap=2,
                seed=derive_seed(seed, "dict")), 0.5),
            (_K(kernels.working_set_loop, _region(1), 16 * KB, stride=32, gap=2), 0.5),
        ],
        burst=16,
    )


def _make_registry() -> Dict[str, WorkloadSpec]:
    specs: List[WorkloadSpec] = []

    def add(name: str, make: Callable[[int], Plan], desc: str, ipa: float, cat: str) -> None:
        specs.append(WorkloadSpec(name, desc, make, ipa=ipa, category=cat))

    # --- few memory stalls -------------------------------------------------
    add("eon", _low_stall(8, 24, "eon"),
        "Ray tracer: tiny working set, compute bound.", 60.0, "low-stall")
    add("sixtrack", _low_stall(12, 20, "sixtrack"),
        "Particle tracking: L1-resident state, compute bound.", 50.0, "low-stall")
    add("vortex", _low_stall(14, 14, "vortex"),
        "OO database: mostly-hot object cache.", 36.0, "low-stall")
    add("galgel", _low_stall(10, 16, "galgel"),
        "Galerkin FEM on small meshes: cache resident.", 42.0, "low-stall")
    # --- conflict-leaning integer codes (victim-cache set) ------------------
    add("gzip", _conflicty(2, 0.10, 14, 8),
        "Compression: hot window + light 2-way set thrash.", 20.0, "conflict")
    add("perlbmk", _conflicty(2, 0.12, 12, 8),
        "Interpreter: op tables + hash collisions.", 20.0, "conflict")
    add("wupwise", _conflicty(3, 0.18, 16, 6),
        "Lattice QCD: strided matrix tiles colliding in L1.", 15.0, "conflict")
    add("bzip2", _conflicty(2, 0.12, 20, 7, noise_weight=0.08, noise_kb=64),
        "Block-sort compression: hot buckets + scattered suffix reads.", 18.0, "conflict")
    add("crafty", _conflicty(3, 0.25, 12, 5, num_thrash_sets=6),
        "Chess: hash/attack tables thrashing a direct-mapped L1.", 14.0, "conflict")
    add("vpr", _conflicty(3, 0.30, 14, 4, num_thrash_sets=6),
        "FPGA place&route: routing grids with pathological strides.", 12.0, "conflict")
    add("gap", _conflicty(2, 0.15, 18, 6, noise_weight=0.10, noise_kb=128),
        "Group theory: workspace loops + scattered bag reads.", 16.0, "conflict")
    add("twolf", _twolf_like,
        "Placement annealing: random lookups, little prefetchability.", 10.0, "conflict")
    add("parser", _parser_like,
        "Link grammar: random dictionary probes.", 10.0, "conflict")
    add("lucas", _lucas_like,
        "FFT: strided butterflies, mixed conflict/capacity.", 8.0, "mixed")
    # --- capacity-dominated, prefetch-friendly ------------------------------
    add("gcc", _gcc_like,
        "Compiler: IR sweeps over ~2MB with hot symbol tables.", 6.0, "capacity")
    add("facerec", _facerec_like,
        "Face recognition: short-generation image stencils.", 4.0, "capacity")
    add("applu", _applu_like,
        "SSOR solver: 1.5MB sequential sweeps.", 4.0, "capacity")
    add("mgrid", _mgrid_like,
        "Multigrid: nested stencils, short regular generations.", 4.0, "capacity")
    add("art", _art_like,
        "ART neural net: 1MB weight sweeps + noisy lookups, bursty.", 3.5, "capacity")
    add("swim", _swim_like,
        "Shallow water: 1.9MB triad over three grids.", 3.0, "capacity")
    add("ammp", _ammp_like,
        "Molecular dynamics: 5.6MB perfectly regular triad.", 3.0, "capacity")
    add("mcf", _mcf_like,
        "Network simplex: 3MB pointer chase.", 3.0, "capacity")

    return {spec.name: spec for spec in specs}


#: Registry of all SPEC2000 stand-ins, in roughly the paper's Figure-1
#: order (least to most potential memory speedup).
SPEC2000: Dict[str, WorkloadSpec] = _make_registry()

#: The paper's "eight best performers" (Figures 20, 21).
BEST_PERFORMERS: Tuple[str, ...] = (
    "gcc", "mcf", "swim", "mgrid", "applu", "art", "facerec", "ammp",
)


def workload_names() -> List[str]:
    """All stand-in names in registry order."""
    return list(SPEC2000)


def get_workload(name: str) -> WorkloadSpec:
    """Look up a stand-in by SPEC2000 benchmark name."""
    try:
        return SPEC2000[name]
    except KeyError:
        raise TraceError(f"unknown workload {name!r}; known: {', '.join(SPEC2000)}") from None


def build_workload(name: str, length: int = 100_000, seed: int = 0) -> Trace:
    """Materialize *length* accesses of the named stand-in."""
    return get_workload(name).build(length=length, seed=seed)

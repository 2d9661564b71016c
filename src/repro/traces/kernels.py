"""Access-pattern kernels.

Each kernel is a generator of raw trace rows ``(address, pc, kind, gap)``
modelling one archetypal memory behavior.  The SPEC2000 stand-in
workloads (:mod:`repro.traces.workloads`) are compositions of these
kernels; the mapping from kernel parameters to the paper's generational
populations is:

- working sets larger than a cache level -> capacity misses there, long
  dead times and long reload intervals;
- several blocks contending for one set of a direct-mapped cache ->
  conflict misses, short dead times, short reload intervals, zero live
  times when the victim had not been re-referenced;
- regular loop trip counts -> repeatable per-frame live times (the
  regularity paper Figure 15 exploits);
- random pointer chasing -> poor address predictability for
  correlation-table prefetchers.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..common.rng import make_rng
from ..common.types import AccessType

Row = Tuple[int, int, int, int]

#: Columnar kernel output: (addresses int64, pcs int64, kinds int8,
#: gaps int32) — the dtypes of :data:`repro.traces.trace.COLUMN_DTYPES`.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_LOAD = int(AccessType.LOAD)
_STORE = int(AccessType.STORE)


def sequential_sweep(
    base: int,
    region_bytes: int,
    *,
    stride: int = 8,
    gap: int = 1,
    pc: int = 0x1000,
    write_every: int = 0,
) -> Iterator[Row]:
    """Endless streaming sweep over ``[base, base+region_bytes)``.

    One pass touches every *stride*-th byte in order, then wraps.  With a
    region much larger than a cache, every pass misses everywhere —
    pure capacity behavior with highly regular reload intervals.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
    count = max(1, region_bytes // stride)
    for i in itertools.cycle(range(count)):
        kind = _STORE if write_every and i % write_every == 0 else _LOAD
        yield base + i * stride, pc + (i % 16) * 4, kind, gap


def working_set_loop(
    base: int,
    region_bytes: int,
    *,
    stride: int = 8,
    gap: int = 1,
    pc: int = 0x2000,
) -> Iterator[Row]:
    """Endless loop over a region intended to fit in cache.

    After the first pass everything hits; live times within a generation
    are long and regular (one loop trip), dead times short.
    """
    yield from sequential_sweep(base, region_bytes, stride=stride, gap=gap, pc=pc)


def conflict_thrash(
    conflict_addresses: Sequence[int],
    *,
    accesses_per_block: int = 2,
    gap: int = 2,
    pc: int = 0x3000,
    jitter_seed: int = 0,
) -> Iterator[Row]:
    """Endless rotation over addresses that map to the same cache set.

    With more addresses than the set's associativity, each visit evicts
    a block that is still "live" (it will be re-referenced soon) —
    classic conflict misses: short reload intervals, short dead times
    and, with ``accesses_per_block=1``, zero live times.

    With a nonzero ``jitter_seed`` the visit order is reshuffled each
    rotation: the miss *timing* population is unchanged (same rate,
    same short dead times — a victim cache still wins) but the
    address-to-address transitions become data-dependent, which is what
    real conflict streams look like to a correlation prefetcher.
    """
    if not conflict_addresses:
        raise ValueError("need at least one conflict address")
    if jitter_seed:
        rng = make_rng(jitter_seed, "conflict_thrash")
        order = list(range(len(conflict_addresses)))
        while True:
            rng.shuffle(order)
            for i in order:
                addr = conflict_addresses[i]
                for j in range(accesses_per_block):
                    yield addr + 8 * j, pc + i * 4, _LOAD, gap
    else:
        for i in itertools.cycle(range(len(conflict_addresses))):
            addr = conflict_addresses[i]
            for j in range(accesses_per_block):
                yield addr + 8 * j, pc + i * 4, _LOAD, gap


def pointer_chase(
    base: int,
    num_nodes: int,
    *,
    node_bytes: int = 64,
    gap: int = 4,
    pc: int = 0x4000,
    seed: int = 1,
) -> Iterator[Row]:
    """Endless walk of a random Hamiltonian cycle over *num_nodes* nodes.

    Models linked-data-structure codes (mcf-like): with a footprint far
    beyond cache, nearly every access misses; successor addresses are
    fixed per node (so an address-correlation predictor *can* learn them)
    but the pattern needs one table entry per node, defeating small
    tables — reproducing mcf's preference for megabyte-scale DBCP state.
    """
    if num_nodes < 2:
        raise ValueError("pointer chase needs >= 2 nodes")
    rng = make_rng(seed, "pointer_chase")
    order = list(range(num_nodes))
    rng.shuffle(order)
    successor = [0] * num_nodes
    for i in range(num_nodes):
        successor[order[i]] = order[(i + 1) % num_nodes]
    node = order[0]
    while True:
        yield base + node * node_bytes, pc, _LOAD, gap
        node = successor[node]


def stream_triad(
    base_a: int,
    base_b: int,
    base_c: int,
    elements: int,
    *,
    element_bytes: int = 8,
    gap: int = 1,
    pc: int = 0x5000,
) -> Iterator[Row]:
    """Endless STREAM-triad loop: ``C[i] = A[i] + s * B[i]``.

    Three interleaved sequential streams.  This is the paper's own
    "contrived example" of constructive aliasing: many frames share the
    same miss-to-miss tag transitions, so a tiny correlation table
    predicts the whole loop.
    """
    for i in itertools.cycle(range(elements)):
        off = i * element_bytes
        yield base_a + off, pc, _LOAD, gap
        yield base_b + off, pc + 4, _LOAD, gap
        yield base_c + off, pc + 8, _STORE, gap


def stencil_sweep(
    base: int,
    rows: int,
    cols: int,
    *,
    element_bytes: int = 8,
    gap: int = 1,
    pc: int = 0x6000,
) -> Iterator[Row]:
    """Endless 5-point stencil over a *rows* x *cols* grid.

    Models mgrid/swim-like scientific codes: mostly-sequential with a
    fixed reuse distance of one grid row, giving short, regular live
    times and strong next-address regularity.
    """
    if rows < 3 or cols < 3:
        raise ValueError("stencil grid must be at least 3x3")
    row_bytes = cols * element_bytes
    while True:
        for r in range(1, rows - 1):
            for c in range(1, cols - 1):
                center = base + r * row_bytes + c * element_bytes
                yield center - row_bytes, pc, _LOAD, gap
                yield center - element_bytes, pc + 4, _LOAD, gap
                yield center, pc + 8, _LOAD, gap
                yield center + element_bytes, pc + 12, _LOAD, gap
                yield center + row_bytes, pc + 16, _STORE, gap


def random_access(
    base: int,
    region_bytes: int,
    *,
    align: int = 8,
    gap: int = 2,
    pc: int = 0x7000,
    seed: int = 2,
) -> Iterator[Row]:
    """Endless uniform-random accesses within a region.

    Address transitions carry no information, so correlation predictors
    achieve near-zero accuracy — the twolf/parser failure mode.
    """
    rng = make_rng(seed, "random_access")
    slots = max(1, region_bytes // align)
    while True:
        yield base + rng.randrange(slots) * align, pc, _LOAD, gap


def hot_cold(
    hot_base: int,
    hot_bytes: int,
    cold_base: int,
    cold_bytes: int,
    *,
    hot_fraction: float = 0.9,
    align: int = 8,
    gap: int = 1,
    pc: int = 0x8000,
    seed: int = 3,
    sequential_cold: bool = False,
) -> Iterator[Row]:
    """Endless mix of a small hot region and a large cold region.

    Models integer codes (gcc/gap-like): the hot set mostly hits; cold
    excursions produce a mix of capacity misses and, when hot and cold
    addresses collide in the direct-mapped L1, conflict misses.  With
    ``sequential_cold`` the cold excursions walk the region in order
    (a pass over IR/symbol tables) instead of jumping randomly, which
    keeps the cold misses address-predictable.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1]")
    rng = make_rng(seed, "hot_cold")
    hot_slots = max(1, hot_bytes // align)
    cold_slots = max(1, cold_bytes // align)
    cold_cursor = 0
    while True:
        if rng.random() < hot_fraction:
            yield hot_base + rng.randrange(hot_slots) * align, pc, _LOAD, gap
        elif sequential_cold:
            yield cold_base + cold_cursor * align, pc + 4, _LOAD, gap
            cold_cursor = (cold_cursor + 1) % cold_slots
        else:
            yield cold_base + rng.randrange(cold_slots) * align, pc + 4, _LOAD, gap


def compute_phase(
    *,
    cycles: int,
    anchor_address: int,
    pc: int = 0x9000,
) -> Iterator[Row]:
    """A single access representing a long computation touching one line.

    Used to model low-memory-intensity benchmarks (eon, sixtrack): all
    the time goes into the gap, not into memory traffic.
    """
    while True:
        yield anchor_address, pc, _LOAD, cycles


def interleave(
    sources: Sequence[Iterator[Row]],
    weights: Sequence[float],
    *,
    seed: int = 4,
    burst: int = 8,
) -> Iterator[Row]:
    """Probabilistically interleave kernels in bursts.

    Draws a source according to *weights* and emits *burst* consecutive
    rows from it, modelling phase-like behavior rather than per-access
    shuffling (which would destroy every kernel's locality).
    """
    if len(sources) != len(weights):
        raise ValueError("sources and weights must have equal length")
    if not sources:
        raise ValueError("need at least one source")
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError("weights must be non-negative and sum > 0")
    rng = make_rng(seed, "interleave")
    cumulative: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    total = cumulative[-1]
    while True:
        pick = rng.random() * total
        idx = next(i for i, edge in enumerate(cumulative) if pick <= edge)
        src = sources[idx]
        for _ in range(burst):
            yield next(src)


def take(source: Iterator[Row], count: int) -> Iterator[Row]:
    """Yield the first *count* rows of an endless kernel."""
    return itertools.islice(source, count)


# ---------------------------------------------------------------------------
# Columnar (vectorized) synthesis
#
# Every kernel generator above has a ``*_columns(n, ...)`` sibling that
# synthesizes the kernel's first *n* rows as numpy columns, bitwise-
# identical to *n* ``next()`` calls on the generator with the same
# parameters (tests/traces/test_vectorized_equivalence.py pins this).
# Deterministic kernels are pure array arithmetic; stochastic kernels
# draw from the *same* ``make_rng`` stream in the same order, doing only
# the unavoidable Mersenne-Twister calls in Python and vectorizing
# everything around them.
# ---------------------------------------------------------------------------


def _const_columns(n: int, pcs: np.ndarray, kind_value: int, gap: int,
                   addresses: np.ndarray) -> Columns:
    """Assemble columns where kind and gap are constants."""
    return (
        addresses,
        pcs,
        np.full(n, kind_value, dtype=np.int8),
        np.full(n, gap, dtype=np.int32),
    )


def sequential_sweep_columns(
    n: int,
    base: int,
    region_bytes: int,
    *,
    stride: int = 8,
    gap: int = 1,
    pc: int = 0x1000,
    write_every: int = 0,
) -> Columns:
    """First *n* rows of :func:`sequential_sweep`, vectorized."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    count = max(1, region_bytes // stride)
    i = np.arange(n, dtype=np.int64) % count
    addresses = base + i * stride
    pcs = pc + (i % 16) * 4
    if write_every:
        kinds = np.where(i % write_every == 0, _STORE, _LOAD).astype(np.int8)
    else:
        kinds = np.full(n, _LOAD, dtype=np.int8)
    return addresses, pcs, kinds, np.full(n, gap, dtype=np.int32)


def working_set_loop_columns(
    n: int,
    base: int,
    region_bytes: int,
    *,
    stride: int = 8,
    gap: int = 1,
    pc: int = 0x2000,
) -> Columns:
    """First *n* rows of :func:`working_set_loop`, vectorized."""
    return sequential_sweep_columns(n, base, region_bytes, stride=stride, gap=gap, pc=pc)


def conflict_thrash_columns(
    n: int,
    conflict_addresses: Sequence[int],
    *,
    accesses_per_block: int = 2,
    gap: int = 2,
    pc: int = 0x3000,
    jitter_seed: int = 0,
) -> Columns:
    """First *n* rows of :func:`conflict_thrash`, vectorized.

    With jitter, the per-rotation shuffles still come from the same
    Mersenne stream (one ``rng.shuffle`` per started rotation); the
    per-row address/pc expansion is array work.
    """
    if not conflict_addresses:
        raise ValueError("need at least one conflict address")
    num = len(conflict_addresses)
    apb = accesses_per_block
    rotation = num * apb
    rotations = -(-n // rotation) if rotation else 0
    if jitter_seed:
        rng = make_rng(jitter_seed, "conflict_thrash")
        order = list(range(num))
        visit = np.empty((rotations, num), dtype=np.int64)
        for r in range(rotations):
            rng.shuffle(order)
            visit[r] = order
        i_idx = np.repeat(visit.reshape(-1), apb)[:n]
    else:
        i_idx = np.repeat(np.tile(np.arange(num, dtype=np.int64), rotations), apb)[:n]
    j_idx = np.tile(np.arange(apb, dtype=np.int64), num * rotations)[:n]
    addrs = np.asarray(conflict_addresses, dtype=np.int64)
    addresses = addrs[i_idx] + 8 * j_idx
    pcs = pc + i_idx * 4
    return _const_columns(n, pcs, _LOAD, gap, addresses)


def pointer_chase_columns(
    n: int,
    base: int,
    num_nodes: int,
    *,
    node_bytes: int = 64,
    gap: int = 4,
    pc: int = 0x4000,
    seed: int = 1,
) -> Columns:
    """First *n* rows of :func:`pointer_chase`, vectorized.

    The generator's walk of ``successor`` starting at ``order[0]`` is,
    by construction of the Hamiltonian cycle, exactly ``order`` repeated
    — so the whole chase collapses to one gather.
    """
    if num_nodes < 2:
        raise ValueError("pointer chase needs >= 2 nodes")
    rng = make_rng(seed, "pointer_chase")
    order = list(range(num_nodes))
    rng.shuffle(order)
    seq = np.asarray(order, dtype=np.int64)[np.arange(n, dtype=np.int64) % num_nodes]
    addresses = base + seq * node_bytes
    pcs = np.full(n, pc, dtype=np.int64)
    return _const_columns(n, pcs, _LOAD, gap, addresses)


def stream_triad_columns(
    n: int,
    base_a: int,
    base_b: int,
    base_c: int,
    elements: int,
    *,
    element_bytes: int = 8,
    gap: int = 1,
    pc: int = 0x5000,
) -> Columns:
    """First *n* rows of :func:`stream_triad`, vectorized."""
    r = np.arange(n, dtype=np.int64)
    stream = r % 3
    off = ((r // 3) % elements) * element_bytes
    addresses = np.asarray([base_a, base_b, base_c], dtype=np.int64)[stream] + off
    pcs = pc + stream * 4
    kinds = np.where(stream == 2, _STORE, _LOAD).astype(np.int8)
    return addresses, pcs, kinds, np.full(n, gap, dtype=np.int32)


def stencil_sweep_columns(
    n: int,
    base: int,
    rows: int,
    cols: int,
    *,
    element_bytes: int = 8,
    gap: int = 1,
    pc: int = 0x6000,
) -> Columns:
    """First *n* rows of :func:`stencil_sweep`, vectorized."""
    if rows < 3 or cols < 3:
        raise ValueError("stencil grid must be at least 3x3")
    row_bytes = cols * element_bytes
    inner_cols = cols - 2
    pass_len = (rows - 2) * inner_cols * 5
    p = np.arange(n, dtype=np.int64) % pass_len
    cell, point = p // 5, p % 5
    r = 1 + cell // inner_cols
    c = 1 + cell % inner_cols
    center = base + r * row_bytes + c * element_bytes
    offsets = np.asarray(
        [-row_bytes, -element_bytes, 0, element_bytes, row_bytes], dtype=np.int64
    )
    addresses = center + offsets[point]
    pcs = pc + point * 4
    kinds = np.where(point == 4, _STORE, _LOAD).astype(np.int8)
    return addresses, pcs, kinds, np.full(n, gap, dtype=np.int32)


def random_access_columns(
    n: int,
    base: int,
    region_bytes: int,
    *,
    align: int = 8,
    gap: int = 2,
    pc: int = 0x7000,
    seed: int = 2,
) -> Columns:
    """First *n* rows of :func:`random_access`.

    One ``randrange`` per row is irreducible (the Mersenne stream must
    match the generator's), but the address arithmetic is vectorized and
    the generator/builder plumbing is gone.
    """
    rng = make_rng(seed, "random_access")
    slots = max(1, region_bytes // align)
    randrange = rng.randrange
    draws = np.fromiter((randrange(slots) for _ in range(n)), dtype=np.int64, count=n)
    addresses = base + draws * align
    pcs = np.full(n, pc, dtype=np.int64)
    return _const_columns(n, pcs, _LOAD, gap, addresses)


def hot_cold_columns(
    n: int,
    hot_base: int,
    hot_bytes: int,
    cold_base: int,
    cold_bytes: int,
    *,
    hot_fraction: float = 0.9,
    align: int = 8,
    gap: int = 1,
    pc: int = 0x8000,
    seed: int = 3,
    sequential_cold: bool = False,
) -> Columns:
    """First *n* rows of :func:`hot_cold`.

    The hot/cold choice and the slot draw interleave on one RNG stream,
    so this kernel stays a Python loop over the draws; only the column
    assembly is vectorized.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1]")
    rng = make_rng(seed, "hot_cold")
    random_draw = rng.random
    randrange = rng.randrange
    hot_slots = max(1, hot_bytes // align)
    cold_slots = max(1, cold_bytes // align)
    cold_cursor = 0
    addresses: List[int] = []
    hot_flags: List[bool] = []
    addr_append = addresses.append
    flag_append = hot_flags.append
    for _ in range(n):
        if random_draw() < hot_fraction:
            addr_append(hot_base + randrange(hot_slots) * align)
            flag_append(True)
        elif sequential_cold:
            addr_append(cold_base + cold_cursor * align)
            cold_cursor = (cold_cursor + 1) % cold_slots
            flag_append(False)
        else:
            addr_append(cold_base + randrange(cold_slots) * align)
            flag_append(False)
    pcs = np.where(np.asarray(hot_flags, dtype=bool), pc, pc + 4).astype(np.int64)
    return _const_columns(n, pcs, _LOAD, gap, np.asarray(addresses, dtype=np.int64))


def compute_phase_columns(
    n: int,
    *,
    cycles: int,
    anchor_address: int,
    pc: int = 0x9000,
) -> Columns:
    """First *n* rows of :func:`compute_phase`, vectorized."""
    return _const_columns(
        n,
        np.full(n, pc, dtype=np.int64),
        _LOAD,
        cycles,
        np.full(n, anchor_address, dtype=np.int64),
    )


#: Generator -> columnar counterpart.  The workload layer synthesizes
#: through the columnar side; the generators stay as its reference.
COLUMNAR: Dict[Callable[..., Iterator[Row]], Callable[..., Columns]] = {
    sequential_sweep: sequential_sweep_columns,
    working_set_loop: working_set_loop_columns,
    conflict_thrash: conflict_thrash_columns,
    pointer_chase: pointer_chase_columns,
    stream_triad: stream_triad_columns,
    stencil_sweep: stencil_sweep_columns,
    random_access: random_access_columns,
    hot_cold: hot_cold_columns,
    compute_phase: compute_phase_columns,
}


def columns_for(generator: Callable[..., Iterator[Row]]) -> Callable[..., Columns]:
    """Columnar counterpart of a kernel generator."""
    try:
        return COLUMNAR[generator]
    except KeyError:
        raise ValueError(f"no columnar synthesis for kernel {generator!r}") from None

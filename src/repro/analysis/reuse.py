"""Vectorized LRU stack-distance (reuse-distance) kernel.

:meth:`repro.classify.lru_stack.LRUStack.distance_histogram` runs whole
block sequences through :func:`stack_distances` instead of its
O(n)-per-access scalar loop.

The kernel is exact (verified against the scalar
:class:`~repro.classify.lru_stack.LRUStack`): ``stack_dist(i) =
(i - prev_i - 1) - #{k < i : prev_k > prev_i}`` where ``prev`` holds
last-occurrence indices, and the correction term is an element-wise
inversion count over ``prev`` computed by bottom-up mergesort rounds
with one batched ``searchsorted`` per round.
"""

from __future__ import annotations

import numpy as np


def previous_occurrences(blocks: np.ndarray) -> np.ndarray:
    """Index of each element's previous occurrence (-1 for first touches).

    One stable sort by block address: equal blocks become adjacent in
    original order, so each element's predecessor in the sorted run is
    its previous occurrence.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    n = blocks.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(blocks, kind="stable")
    sb = blocks[order]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = sb[1:] == sb[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    return prev


def _count_prev_greater_before(prev: np.ndarray) -> np.ndarray:
    """``counts[i] = #{k < i : prev[k] > prev[i]}``, fully vectorized.

    Bottom-up mergesort: at each round, elements of every right
    half-segment are binary-searched against their sibling (sorted)
    left half.  All pair segments are searched with a single
    ``np.searchsorted`` call by offsetting each pair's ranks into a
    disjoint range, so the work per round is one stable integer sort
    plus one searchsorted — ``O(n log n)`` per round, ``log n`` rounds,
    no Python-level per-element loop.

    Ties only occur between the repeated -1 first-touch markers; their
    stable rank order is irrelevant because callers read counts only
    for re-references, whose ``prev`` values are unique.
    """
    n = prev.size
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    levels = (n - 1).bit_length()
    n2 = 1 << levels
    key = np.empty(n2, dtype=np.int64)
    key[:n] = prev
    if n2 > n:
        # Pads occupy the array tail, so a half-segment containing pads
        # is never the left sibling of real elements; any value works.
        key[n:] = np.iinfo(np.int64).max
    by_key = np.argsort(key, kind="stable")
    rank = np.empty(n2, dtype=np.int64)
    rank[by_key] = np.arange(n2, dtype=np.int64)
    counts = np.zeros(n2, dtype=np.int64)
    # Half-segment ids fit 32 bits for any realistic trace; the int32
    # stable sort takes numpy's radix path.
    positions32 = by_key.astype(np.int32)
    for level in range(1, levels + 1):
        w = 1 << (level - 1)
        half_ids = positions32 >> (level - 1)
        pos = by_key[np.argsort(half_ids, kind="stable")]
        ranks = rank[pos].reshape(-1, w)
        lefts = ranks[0::2]
        rights = ranks[1::2]
        right_pos = pos.reshape(-1, w)[1::2]
        pairs = lefts.shape[0]
        offsets = np.arange(pairs, dtype=np.int64)[:, None] * np.int64(n2)
        flat = (lefts + offsets).ravel()
        at_most = np.searchsorted(flat, (rights + offsets).ravel(), side="right")
        at_most -= np.repeat(np.arange(pairs, dtype=np.int64) * w, w)
        counts[right_pos.ravel()] += w - at_most
    return counts[:n]


def stack_distances(blocks: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance per access; -1 marks first touches.

    The stack distance of a re-reference is the number of *distinct*
    blocks touched since its previous occurrence ``p``:
    ``(i - p - 1)`` accesses lie between, minus the re-references among
    them whose own previous occurrence falls after ``p`` (each such
    access repeats a block already counted).  Since ``prev[k] < k``
    always, that correction equals ``#{k < i : prev[k] > p}``.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    n = blocks.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    prev = previous_occurrences(blocks)
    repeats = _count_prev_greater_before(prev)
    dist = np.arange(n, dtype=np.int64) - prev - 1 - repeats
    dist[prev < 0] = -1
    return dist

"""LRU stack / stack-distance machinery.

A classic tool behind associativity studies (Hill & Smith): for each
reference, the *stack distance* is the number of distinct blocks
referenced since the previous reference to the same block.  A
fully-associative LRU cache of capacity C hits exactly the references
with stack distance < C, which is what the 3C classifier needs.

:class:`LRUStack` offers exact distances (O(n) per access, for analysis
and tests); :class:`BoundedLRU` is the O(1) bounded variant the
classifier uses in the simulation hot path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from ..common.errors import ConfigError


class LRUStack:
    """Exact LRU stack over an unbounded set of blocks.

    :meth:`reference` returns the stack distance of each reference
    (None for first touches).  Distances start at 0 for an immediate
    re-reference.
    """

    def __init__(self) -> None:
        """An empty stack."""
        self._stack: List[int] = []

    def reference(self, block: int) -> Optional[int]:
        """Reference *block*; return its stack distance or None if new."""
        try:
            depth = self._stack.index(block)
        except ValueError:
            self._stack.insert(0, block)
            return None
        del self._stack[depth]
        self._stack.insert(0, block)
        return depth

    def __len__(self) -> int:
        return len(self._stack)

    def distance_histogram(self, blocks) -> Dict[Optional[int], int]:
        """Convenience: run a sequence and histogram the distances.

        On a fresh stack the whole sequence goes through the vectorized
        reuse-distance kernel (:func:`repro.analysis.reuse.stack_distances`)
        instead of the O(n)-per-access scalar loop; a stack with prior
        state falls back to :meth:`reference` so distances keep counting
        blocks referenced before this call.  Both paths leave the stack
        in the same final state and return the same histogram.
        """
        if self._stack:
            hist: Dict[Optional[int], int] = {}
            for block in blocks:
                d = self.reference(block)
                hist[d] = hist.get(d, 0) + 1
            return hist

        import numpy as np

        from ..analysis.reuse import stack_distances

        arr = np.ascontiguousarray(
            blocks if isinstance(blocks, np.ndarray) else list(blocks),
            dtype=np.int64,
        )
        if arr.size == 0:
            return {}
        distances = stack_distances(arr)
        hist = {}
        first_touches = int((distances < 0).sum())
        if first_touches:
            hist[None] = first_touches
        reref = distances[distances >= 0]
        if reref.size:
            values, counts = np.unique(reref, return_counts=True)
            for value, count in zip(values.tolist(), counts.tolist()):
                hist[value] = count
        # The scalar loop leaves the distinct blocks on the stack most
        # recently referenced first; reproduce that from the tail in.
        reversed_blocks = arr[::-1]
        _, first_from_end = np.unique(reversed_blocks, return_index=True)
        self._stack = reversed_blocks[np.sort(first_from_end)].tolist()
        return hist


class BoundedLRU:
    """Fully-associative LRU cache of *capacity* blocks, O(1) per access.

    Models the equal-capacity fully-associative cache of Hill's conflict
    definition.  ``access`` returns True on hit.
    """

    __slots__ = ("capacity", "_blocks")

    def __init__(self, capacity: int) -> None:
        """An empty cache of *capacity* blocks (at least 1)."""
        if capacity < 1:
            raise ConfigError(f"BoundedLRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._blocks: "OrderedDict[int, None]" = OrderedDict()

    def access(self, block: int) -> bool:
        """Touch *block*; returns True if it was resident (hit)."""
        blocks = self._blocks
        if block in blocks:
            blocks.move_to_end(block)
            return True
        if len(blocks) >= self.capacity:
            blocks.popitem(last=False)
        blocks[block] = None
        return False

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

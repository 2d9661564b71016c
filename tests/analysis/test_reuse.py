"""Tests for the vectorized LRU stack-distance kernel (repro.analysis.reuse).

The kernel is pinned against the scalar :class:`LRUStack` reference.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.analysis.reuse import stack_distances
from repro.classify.lru_stack import LRUStack
from repro.traces.workloads import build_workload


def _scalar_distances(blocks):
    stack = LRUStack()
    return [(-1 if (d := stack.reference(b)) is None else d) for b in blocks]


class TestStackDistances:
    def test_empty(self):
        assert stack_distances(np.array([], dtype=np.int64)).size == 0

    def test_known_sequence(self):
        # 1 2 1 2 3 1: first touches at 0,1,4; re-references at
        # distance 1,1 and (3 at index 4 pushes 1 down) 2.
        out = stack_distances(np.array([1, 2, 1, 2, 3, 1]))
        assert out.tolist() == [-1, -1, 1, 1, -1, 2]

    @given(st.lists(st.integers(min_value=0, max_value=40),
                    min_size=1, max_size=300))
    def test_matches_scalar_lru_stack(self, blocks):
        arr = np.array(blocks, dtype=np.int64)
        assert stack_distances(arr).tolist() == _scalar_distances(blocks)

    def test_matches_scalar_on_workload_blocks(self):
        trace = build_workload("gcc", length=5_000)
        blocks = (np.asarray(trace.addresses, dtype=np.int64) >> 5)[:2_000]
        assert stack_distances(blocks).tolist() == _scalar_distances(
            blocks.tolist())

"""Generator vs vectorized synthesis: bitwise equivalence.

The vectorized columnar synthesis is only allowed to exist because it
is *provably the same trace*: for every SPEC2000 workload spec, at
several lengths and seeds, every column (addresses, pcs, kinds, gaps)
must be exactly equal to what the original per-row generator pipeline
(the workload plan's ``rows()``) emits.  Any synthesis change that
shifts a single element must bump ``GENERATOR_VERSION`` and update
both pipelines together.
"""

import numpy as np
import pytest

from repro.common.rng import derive_seed
from repro.traces import kernels
from repro.traces.trace import TraceBuilder
from repro.traces.workloads import SPEC2000, build_workload

#: Lengths chosen to straddle burst boundaries (truncated final bursts)
#: and kernel period boundaries.
LENGTHS = (257, 5_000)
SEEDS = (0, 13)

COLUMN_NAMES = ("addresses", "pcs", "kinds", "gaps")


def generator_trace(name, length, seed):
    """The per-row pipeline: the seeded plan's rows through a builder,
    exactly as ``WorkloadSpec.build`` seeds the columnar plan."""
    plan = SPEC2000[name].make_plan(derive_seed(seed, name))
    builder = TraceBuilder(name=name)
    for addr, pc, kind, gap in kernels.take(plan.rows(), length):
        builder.add(addr, pc=pc, kind=kind, gap=gap)
    return builder.build()


def _assert_traces_equal(name, length, seed):
    gen = generator_trace(name, length, seed)
    vec = build_workload(name, length=length, seed=seed)
    for col, g, v in zip(COLUMN_NAMES, gen.to_arrays(), vec.to_arrays()):
        if not np.array_equal(g, v):
            i = int(np.nonzero(g != v)[0][0])
            pytest.fail(
                f"{name} length={length} seed={seed}: column {col} differs "
                f"first at row {i}: generator={g[i]} vectorized={v[i]}"
            )


@pytest.mark.parametrize("name", sorted(SPEC2000))
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_workload_bitwise_equivalence(name, length, seed):
    _assert_traces_equal(name, length, seed)


def test_total_gap_matches_across_engines():
    gen = generator_trace("gcc", 2_000, 5)
    vec = build_workload("gcc", length=2_000, seed=5)
    assert gen.total_gap_cycles == vec.total_gap_cycles


class TestKernelColumns:
    """Direct kernel-level equivalence for each columnar implementation."""

    CASES = [
        (kernels.sequential_sweep, (0x1000, 4096), {"stride": 64, "gap": 2, "write_every": 7}),
        (kernels.sequential_sweep, (0x1000, 4096), {"stride": 32}),
        (kernels.working_set_loop, (0x2000, 8192), {"stride": 32, "gap": 3}),
        (kernels.conflict_thrash, ([0x40, 0x8040, 0x10040],), {"accesses_per_block": 3, "gap": 2}),
        (kernels.conflict_thrash, ([0x40, 0x8040, 0x10040, 0x18040],),
         {"accesses_per_block": 2, "gap": 1, "jitter_seed": 99}),
        (kernels.pointer_chase, (0x100000, 50), {"node_bytes": 128, "gap": 4, "seed": 3}),
        (kernels.stream_triad, (0x1000, 0x20000, 0x40000, 500), {"element_bytes": 8, "gap": 1}),
        (kernels.stencil_sweep, (0x1000, 12, 9), {"element_bytes": 8, "gap": 1}),
        (kernels.random_access, (0x1000, 1 << 20), {"align": 64, "gap": 2, "seed": 17}),
        (kernels.hot_cold, (0x1000, 4096, 0x100000, 1 << 20),
         {"hot_fraction": 0.7, "gap": 2, "seed": 5}),
        (kernels.hot_cold, (0x1000, 4096, 0x100000, 1 << 20),
         {"hot_fraction": 0.5, "seed": 5, "sequential_cold": True}),
        (kernels.compute_phase, (), {"cycles": 40, "anchor_address": 0x9000}),
    ]

    @pytest.mark.parametrize("generator,args,kwargs", CASES,
                             ids=lambda c: getattr(c, "__name__", None))
    @pytest.mark.parametrize("n", (1, 97, 1000))
    def test_kernel_columns_match_generator(self, generator, args, kwargs, n):
        expected = list(kernels.take(generator(*args, **kwargs), n))
        cols = kernels.columns_for(generator)(n, *args, **kwargs)
        got = list(zip(*(c.tolist() for c in cols)))
        assert got == [tuple(row) for row in expected]

    def test_unknown_generator_rejected(self):
        def not_a_kernel():
            yield (0, 0, 0, 0)

        with pytest.raises(ValueError, match="no columnar synthesis"):
            kernels.columns_for(not_a_kernel)

    @pytest.mark.parametrize("generator,args,kwargs", CASES,
                             ids=lambda c: getattr(c, "__name__", None))
    def test_kernel_columns_dtypes(self, generator, args, kwargs):
        addr, pc, kind, gap = kernels.columns_for(generator)(64, *args, **kwargs)
        assert addr.dtype == np.int64
        assert pc.dtype == np.int64
        assert kind.dtype == np.int8
        assert gap.dtype == np.int32
        assert len(addr) == len(pc) == len(kind) == len(gap) == 64

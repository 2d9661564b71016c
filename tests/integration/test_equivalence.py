"""Differential equivalence: optimized hot paths vs straightforward reference.

The hot-path overhaul (O(1) tag store, inlined ``_consume``, slotted
frames) and the batch-dispatch engine must not change a single
simulated number.  ``tools/equivalence.py`` re-implements the L1,
hierarchy fetch, and main loop in the plain call-everything style;
this suite asserts that the production simulator under *both* dispatch
engines and the reference produce bitwise-identical
``SimulationResult.to_dict()`` output (plus a metrics digest) for
every workload in the suite — under the default, victim-cache (all
three admission filters), prefetch, decay, warmup, and perfect-mode
configurations, and on seeded random traces with stores — and that
every victim-cache run keeps the victim accounting invariants.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

import equivalence  # noqa: E402  (needs the sys.path insert above)

from repro.sim.simulator import MemorySimulator  # noqa: E402
from repro.traces.trace import Trace  # noqa: E402

LENGTH = 4_000


@pytest.mark.parametrize("config_name", sorted(equivalence.CONFIGS))
@pytest.mark.parametrize("workload", equivalence.DEFAULT_WORKLOADS)
def test_bitwise_equivalence(workload, config_name):
    cell = equivalence.run_cell(workload, LENGTH, config_name)
    diffs = equivalence.cell_diffs(cell)
    assert not diffs, "\n".join(diffs)


def test_reference_refuses_batch_engine():
    """The reference must run the scalar loop even when batch is asked
    for — otherwise the harness would test the batch engine against
    itself."""
    trace = equivalence.build_workload("gcc", length=500)
    sim = equivalence._build_simulator(equivalence.ReferenceSimulator, {})
    sim.run(trace, engine="batch")
    assert sim.engine_used == "scalar"
    assert "not batch-capable" in sim.batch_fallback


def random_trace(n=3_000, seed=0xC0FFEE):
    rng = np.random.default_rng(seed)
    return Trace(
        (rng.integers(0, 1 << 20, n) * 4).astype(np.int64),
        (rng.integers(0, 1 << 12, n) * 4).astype(np.int64),
        rng.integers(0, 2, n).astype(np.int8),  # loads and stores
        rng.integers(0, 8, n).astype(np.int32),
        name="rand",
    )


@pytest.mark.parametrize(
    "warmup,kwargs",
    [
        (0, {}),
        (900, {}),
        (900, {"perfect_non_cold": True}),
        (900, {"victim_filter": "timekeeping"}),
    ],
    ids=["plain", "warmup", "perfect-warmup", "victim-warmup"],
)
def test_randomized_trace_engines_agree(warmup, kwargs):
    """Seeded random traces (stores included) hit eviction/writeback
    interleavings the synthetic workloads miss."""
    trace = random_trace()
    digests = {}
    for engine in ("scalar", "batch"):
        sim = MemorySimulator(collect_metrics=True, **kwargs)
        result = sim.run(trace, warmup=warmup, engine=engine)
        assert sim.engine_used == engine, sim.batch_fallback
        assert not equivalence.victim_invariant_violations(sim, result)
        digests[engine] = {
            "result": result.to_dict(),
            "metrics": equivalence.metrics_digest(sim),
        }
    diffs = list(
        equivalence._diff_keys(
            digests["scalar"], digests["batch"], labels=("scalar", "batch")
        )
    )
    assert not diffs, "\n".join(diffs)


def test_victim_invariant_violation_is_a_diff_line():
    sim = MemorySimulator(victim_filter="timekeeping")
    result = sim.run(equivalence.build_workload("gcc", length=1_000))
    assert equivalence.victim_invariant_violations(sim, result) == []
    sim.l1.evictions += 1  # an eviction neither admitted nor rejected
    violations = equivalence.victim_invariant_violations(sim, result)
    assert len(violations) == 1
    assert violations[0].startswith(
        "victim.fills + victim.rejected == l1.evictions"
    )
    cell = {
        label: {"result": {}, "metrics": None, "invariant_violations": []}
        for label, _, _ in equivalence.RUNS
    }
    cell["batch"]["invariant_violations"] = violations
    lines = equivalence.cell_diffs(cell)
    assert f"[batch] invariant violated: {violations[0]}" in lines


def test_iter_mismatches_empty_on_identical_runs():
    cells = list(
        equivalence.iter_mismatches(["gcc"], 1_000, ["default", "prefetch"])
    )
    assert cells == []


def test_cli_reports_all_cells(capsys):
    rc = equivalence.main(
        ["--length", "1000", "--workloads", "gcc", "--configs", "default,decay"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 2 cells bitwise-identical" in out


def test_cli_rejects_unknown_config():
    with pytest.raises(SystemExit):
        equivalence.main(["--configs", "nonsense"])

"""Differential equivalence: fast paths vs the plain reference.

The batch-dispatch engine and the production caches' O(1) tag store,
lazy sets and valid counts must not change a single simulated number.
``tools/equivalence.py`` runs each cell three ways — the batch engine,
the plain per-access scalar loop, and that same loop over linear-scan
reference caches — and this suite asserts that all three produce
bitwise-identical ``SimulationResult.to_dict()`` output and full
machine state (``equivalence.state_digest``) for every workload in the
suite: under the default, victim-cache (the paper's three admission
filters and the adaptive one), prefetch (timekeeping and DBCP), decay,
2-way L1, warmup, and perfect-mode configurations, the bank-less
configs that track no generation, plus eon under both prefetchers
(the one stand-in whose prefetch cells issue many prefetches at this
length), and on seeded random traces with stores.  Every run must
also keep the accounting identities.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

import equivalence  # noqa: E402  (needs the sys.path insert above)

from repro.sim.simulator import MemorySimulator, make_simulator  # noqa: E402
from repro.traces.trace import Trace  # noqa: E402

LENGTH = 4_000


@pytest.fixture(scope="module")
def traces():
    """Traces shared by every cell of this module, as the harness shares
    them: batch runs after a trace's first read its memoized 3C replay."""
    return {}


@pytest.mark.parametrize("config_name", sorted(equivalence.CONFIGS))
@pytest.mark.parametrize("workload", equivalence.DEFAULT_WORKLOADS)
def test_bitwise_equivalence(workload, config_name, traces):
    cell = equivalence.run_cell(workload, LENGTH, config_name, traces)
    diffs = equivalence.cell_diffs(cell)
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("config_name", [
    "prefetch", "prefetch_dbcp", "prefetch_warmup", "prefetch_dbcp_warmup",
    "prefetch_warmup_nobank", "prefetch_dbcp_warmup_nobank",
])
def test_prefetch_cells_on_eon(config_name, traces):
    """At this length the default stand-ins leave the prefetch event loop
    nearly idle (no DBCP cell issues a prefetch); eon issues hundreds
    under either prefetcher.  The cell must issue some, or it would go
    inert without notice."""
    cell = equivalence.run_cell("eon", LENGTH, config_name, traces)
    assert not equivalence.cell_diffs(cell), "\n".join(equivalence.cell_diffs(cell))
    assert cell["batch"]["result"]["prefetch"]["issued"] > 0


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


def repeating_trace(n=3_000, period=250, seed=0xBEEF):
    """A random block sequence (with its PCs) repeated until *n*
    accesses, stores included: both prefetchers' tables confirm
    entries and issue prefetches."""
    rng = np.random.default_rng(seed)
    reps = -(-n // period)
    blocks = np.tile(rng.integers(0, 1 << 15, period), reps)[:n]
    pcs = np.tile(rng.integers(0, 1 << 10, period) * 4, reps)[:n]
    return Trace(
        (blocks * 32 + rng.integers(0, 8, n) * 4).astype(np.int64),
        pcs.astype(np.int64),
        rng.integers(0, 2, n).astype(np.int8),
        rng.integers(0, 300, n).astype(np.int32),
        name="repeat",
    )


@pytest.mark.parametrize(
    "warmup,kwargs,make_trace",
    [
        (0, {}, random_trace),
        (900, {}, random_trace),
        (900, {"perfect_non_cold": True}, random_trace),
        (900, {"victim_filter": "timekeeping"}, random_trace),
        (0, {"prefetcher": "timekeeping"}, repeating_trace),
        (900, {"prefetcher": "timekeeping"}, repeating_trace),
        (0, {"prefetcher": "dbcp"}, repeating_trace),
        (900, {"prefetcher": "dbcp"}, repeating_trace),
    ],
    ids=[
        "plain", "warmup", "perfect-warmup", "victim-warmup",
        "prefetch-tk", "prefetch-tk-warmup", "prefetch-dbcp",
        "prefetch-dbcp-warmup",
    ],
)
def test_randomized_trace_engines_agree(warmup, kwargs, make_trace):
    """Seeded random traces (stores included) hit eviction/writeback
    interleavings the synthetic workloads miss; repeating ones make
    the prefetchers issue.  Each run builds its own policy object."""
    trace = make_trace()
    digests = {}
    for engine in ("scalar", "batch"):
        sim = make_simulator(collect_metrics=True, **kwargs)
        result = sim.run(trace, warmup=warmup, engine=engine)
        assert sim.engine_used == engine, sim.batch_fallback
        assert not equivalence.victim_invariant_violations(sim, result)
        if "prefetcher" in kwargs:
            assert result.prefetch.issued > 0
        digests[engine] = {
            "result": result.to_dict(),
            "state": equivalence.state_digest(sim),
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
        label: {"result": {}, "state": None, "invariant_violations": []}
        for label, _, _ in equivalence.RUNS
    }
    cell["batch"]["invariant_violations"] = violations
    lines = equivalence.cell_diffs(cell)
    assert f"[batch] invariant violated: {violations[0]}" in lines


def test_accounting_violation_is_a_diff_line():
    sim = MemorySimulator()
    result = sim.run(equivalence.build_workload("gcc", length=1_000))
    assert equivalence.accounting_violations(sim, result) == []
    result.timing.stall_breakdown["injected"] = 1  # not in stall_cycles
    violations = equivalence.accounting_violations(sim, result)
    assert violations == [
        f"sum(stall_breakdown) == stall_cycles "
        f"({result.timing.stall_cycles + 1} vs {result.timing.stall_cycles})"
    ]
    cell = {
        label: {"result": {}, "state": None, "invariant_violations": []}
        for label, _, _ in equivalence.RUNS
    }
    cell["scalar"]["invariant_violations"] = violations
    lines = equivalence.cell_diffs(cell)
    assert f"[scalar] invariant violated: {violations[0]}" in lines


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

"""Property-based integration tests: invariants over random traces, and
the batch engine against the scalar loop on them."""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.common.config import small_test_machine
from repro.common.types import AccessOutcome, AccessType
from repro.figures.registry import CONFIGS as PAPER_CONFIGS
from repro.sim.simulator import make_simulator, simulate
from repro.traces.trace import TraceBuilder

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

import equivalence  # noqa: E402  (needs the sys.path insert above)


@st.composite
def random_traces(draw, *, extended=False):
    """Loads over a small address pool; *extended* adds stores, a small
    PC pool (so the prefetchers' tables match) and zero-length traces."""
    n = draw(st.integers(min_value=0 if extended else 1, max_value=300))
    # Address pool spanning several sets and aliases of the small machine.
    pool = draw(st.lists(st.integers(min_value=0, max_value=1 << 16),
                         min_size=1, max_size=40))
    pcs = draw(st.lists(st.integers(min_value=0x400, max_value=0x4ff),
                        min_size=1, max_size=4)) if extended else [0]
    kinds = (AccessType.LOAD, AccessType.STORE) if extended else (AccessType.LOAD,)
    b = TraceBuilder(name="prop")
    for _ in range(n):
        addr = draw(st.sampled_from(pool))
        gap = draw(st.integers(min_value=0, max_value=30))
        if extended:
            b.add(addr, pc=draw(st.sampled_from(pcs)),
                  kind=draw(st.sampled_from(kinds)), gap=gap)
        else:
            b.add(addr, gap=gap)
    return b.build()


SIM_SETTINGS = settings(max_examples=25, deadline=None)


@SIM_SETTINGS
@given(random_traces())
def test_outcomes_partition_accesses(trace):
    r = simulate(trace, machine=small_test_machine())
    assert sum(r.outcomes.values()) == r.accesses == len(trace)
    assert r.l1_hits + r.l1_misses == r.accesses


@SIM_SETTINGS
@given(random_traces())
def test_miss_classes_partition_misses(trace):
    r = simulate(trace, machine=small_test_machine())
    assert r.miss_counts.total == r.l1_misses


@SIM_SETTINGS
@given(random_traces())
def test_ipc_bounded_by_issue_width(trace):
    r = simulate(trace, machine=small_test_machine(), ipa=3.0)
    assert 0.0 <= r.ipc <= 8.0


@SIM_SETTINGS
@given(random_traces())
def test_perfect_mode_never_slower(trace):
    m = small_test_machine()
    base = simulate(trace, machine=m)
    perfect = simulate(trace, machine=m, perfect_non_cold=True)
    assert perfect.ipc >= base.ipc - 1e-9


@SIM_SETTINGS
@given(random_traces())
def test_determinism(trace):
    a = simulate(trace, machine=small_test_machine(), prefetcher="timekeeping")
    b = simulate(trace, machine=small_test_machine(), prefetcher="timekeeping")
    assert a.ipc == b.ipc
    assert a.outcomes == b.outcomes


@SIM_SETTINGS
@given(random_traces())
def test_generation_metrics_conserved(trace):
    r = simulate(trace, machine=small_test_machine(), collect_metrics=True)
    m = r.metrics
    # Every closed generation was a miss-fill that later got evicted:
    # closed generations can never exceed misses.
    assert m.total_generations <= r.l1_misses
    # Histogram totals match generation counts.
    assert m.live_time.total == m.total_generations
    assert m.dead_time.total == m.total_generations


@SIM_SETTINGS
@given(random_traces())
def test_victim_cache_conservation(trace):
    r = simulate(trace, machine=small_test_machine(), victim_filter="unfiltered")
    v = r.victim
    # every probe is a miss; hits cannot exceed probes or fills
    assert v.probes == r.l1_misses - r.outcomes[AccessOutcome.PREFETCH_HIT]
    assert v.hits <= v.probes
    assert v.hits <= v.fills


@SIM_SETTINGS
@given(random_traces())
def test_victim_cache_never_much_worse(trace):
    """The victim cache may cost a little bandwidth but must stay within
    a few percent of base on arbitrary traces."""
    m = small_test_machine()
    base = simulate(trace, machine=m)
    vic = simulate(trace, machine=m, victim_filter="timekeeping")
    assert vic.ipc >= base.ipc * 0.9


@SIM_SETTINGS
@given(random_traces())
def test_prefetch_timeliness_resolutions_bounded(trace):
    r = simulate(trace, machine=small_test_machine(), prefetcher="timekeeping")
    pf = r.prefetch
    assert pf.timeliness.total <= pf.scheduled
    assert pf.useful <= pf.arrived
    assert pf.issued >= pf.arrived


#: ``state_digest`` keys that only a metric bank (and the generation
#: tracker that only a bank has) fills.
BANK_KEYS = ("closed_generations", "open_generations", "metrics")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_engine_matches_scalar_loop(data):
    """Every paper config on the small machine, with a drawn warm-up and
    a drawn metric bank: the batch engine and the scalar loop agree on
    the whole result and on the full machine state the run leaves
    behind, metric banks included.  A bank observes and never steers,
    so one more batch run with the other bank setting leaves the same
    result and the same state outside the bank's keys (the figures
    rely on this: ``base`` with a bank is also the IPC baseline).  The
    config is drawn per example, so all seven share one example
    budget; about half of the 100 examples draw a bank."""
    trace = data.draw(random_traces(extended=True), label="trace")
    name = data.draw(st.sampled_from(sorted(PAPER_CONFIGS)), label="config")
    warmup = data.draw(st.integers(min_value=0, max_value=len(trace)), label="warmup")
    bank = data.draw(st.booleans(), label="collect_metrics")
    runs = {}
    for label, engine, collect in (("batch", "batch", bank), ("scalar", "scalar", bank),
                                   ("other_bank", "batch", not bank)):
        config = {**PAPER_CONFIGS[name], "collect_metrics": collect}
        sim = make_simulator(machine=small_test_machine(), **config)
        result = sim.run(trace, warmup=warmup, engine=engine)
        assert sim.engine_used == engine, sim.batch_fallback
        assert (sim.generations is None) is not collect
        runs[label] = {"result": result.to_dict(),
                       "state": equivalence.state_digest(sim)}
    diffs = list(equivalence._diff_keys(runs["batch"], runs["scalar"],
                                        labels=("batch", "scalar")))
    assert not diffs, "\n".join(diffs)
    for run in (runs["batch"], runs["other_bank"]):
        for key in BANK_KEYS:
            del run["state"][key]
    diffs = list(equivalence._diff_keys(runs["batch"], runs["other_bank"],
                                        labels=("batch", "other_bank")))
    assert not diffs, "\n".join(diffs)

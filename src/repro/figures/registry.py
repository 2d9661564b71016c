"""The paper's evaluation as a registry of :class:`FigureSpec` entries.

One spec per row of DESIGN.md's per-experiment index (Table 1 and
Figures 1-22).  Each spec's ``build`` function is the figure logic: it
derives the figure's dataset from a finished suite, renders the
paper-style text, and evaluates the paper's shape claims as
:class:`CheckResult` data.

The simulator configurations are unified in :data:`CONFIGS` so that
specs sharing a cell (e.g. every speedup figure's ``base``) name the
*same* configuration and the orchestrator can deduplicate the sweep
matrix.  ``collect_metrics`` is timing-inert, so the metric-collecting
``base`` doubles as the IPC baseline for the victim and prefetch
comparisons.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..analysis import paper_targets
from ..analysis.report import (
    bar_chart,
    distribution_rows,
    format_table,
    stacked_bars,
)
from ..analysis.venn import classify_benchmarks
from ..common.config import paper_machine
from ..common.stats import Histogram, abs_diff_histogram, geometric_mean, ratio_cdf
from ..common.types import KB, MB, MissClass, PrefetchTimeliness
from ..core.metrics import (
    RELOAD_BIN,
    TIME_BIN,
    CorrelationColumns,
    TimekeepingMetrics,
    concatenated,
)
from ..core.predictors.conflict import (
    FIG8_THRESHOLDS,
    FIG10_THRESHOLDS,
    accuracy_coverage_curve,
    evaluate_zero_live_predictor,
)
from ..core.predictors.deadblock import (
    FIG14_THRESHOLDS,
    LiveTimeDeadBlockPredictor,
    decay_curve,
)
from ..sim.sweep import CONFIG_PRESETS, speedups
from ..traces.workloads import BEST_PERFORMERS, SPEC2000
from .spec import Checks, FigureArtifact, FigureSpec, Suite

#: Unified simulator configurations used across all specs: seven of the
#: sweep presets, with ``base`` also collecting the metric banks.  One
#: name -> one digest, so the checkpoint store shares cells between figures.
CONFIGS: Dict[str, Dict[str, object]] = {
    name: dict(CONFIG_PRESETS[name])
    for name in ("base", "perfect", "victim", "victim_collins", "victim_tk",
                 "pf_tk", "pf_dbcp")
}
CONFIGS["base"]["collect_metrics"] = True

#: Figure 15's cumulative-ratio breakpoints (live/prev_live).
RATIO_BREAKPOINTS = (0.25, 0.5, 1.0, 2.0, 4.0, 16.0)

#: Figure 21's timeliness segments, in rendering order.
TIMELINESS_SEGMENTS = (
    PrefetchTimeliness.EARLY,
    PrefetchTimeliness.DISCARDED,
    PrefetchTimeliness.TIMELY,
    PrefetchTimeliness.LATE,
    PrefetchTimeliness.NOT_STARTED,
)
TIMELINESS_NAMES = ("early", "discarded", "timely", "late", "not_started")


# -- shared derivation helpers ------------------------------------------------


def base_metrics(suite: Suite) -> List[TimekeepingMetrics]:
    """Every workload's ``base`` TimekeepingMetrics, suite order."""
    return [cfgs["base"].metrics for cfgs in suite.values()]


def _merge(histograms: Iterable[Histogram]) -> Histogram:
    """Merge same-geometry histograms into one (suite aggregate)."""
    it = iter(histograms)
    out = next(it)
    for h in it:
        out = out.merged(h)
    return out


def _merge_by_class(suite: Suite, attr: str) -> Tuple[Histogram, Histogram]:
    """The conflict and capacity histograms of one per-class view, each
    merged across workloads; each bank's view is read (binned) once."""
    banks = [getattr(m, attr) for m in base_metrics(suite)]
    return tuple(_merge(bank[kind] for bank in banks)
                 for kind in (MissClass.CONFLICT, MissClass.CAPACITY))


def _all_correlations(suite: Suite) -> CorrelationColumns:
    """Every workload's miss correlations, concatenated."""
    return concatenated([m.correlation_columns for m in base_metrics(suite)])


# -- builders -----------------------------------------------------------------


def build_table1(suite: Suite) -> FigureArtifact:
    """Table 1 — configuration of the simulated processor."""
    machine = paper_machine()
    text = "Table 1 — Configuration of Simulated Processor\n" + machine.describe()
    checks = Checks()
    checks.require("issue width 8", machine.processor.issue_width == 8)
    checks.require("window 128", machine.processor.window_size == 128)
    checks.require(
        "L1D 32KB direct-mapped, 32B blocks",
        machine.l1d.size_bytes == 32 * KB
        and machine.l1d.associativity == 1
        and machine.l1d.block_size == 32,
    )
    checks.require("64 L1 MSHRs", machine.l1_mshrs == 64)
    checks.require(
        "L2 1MB 4-way, 64B blocks, 12-cycle hits",
        machine.l2.size_bytes == 1 * MB
        and machine.l2.associativity == 4
        and machine.l2.block_size == 64
        and machine.l2.hit_latency == 12,
    )
    checks.require(
        "buses 32B/64B, memory 70 cycles",
        machine.l1_l2_bus.width_bytes == 32
        and machine.memory_bus.width_bytes == 64
        and machine.memory_latency == 70,
    )
    checks.require(
        "prefetch 32 MSHRs, 128-entry queue",
        machine.prefetch.mshrs == 32 and machine.prefetch.queue_entries == 128,
    )
    return FigureArtifact("table1", TABLE1.title, text, checks.results)


def build_fig01(suite: Suite) -> FigureArtifact:
    """Figure 1 — potential IPC gain with conflict+capacity misses removed."""
    potential = speedups(suite, "perfect", "base")
    ordered = dict(sorted(potential.items(), key=lambda kv: kv[1]))
    rows = {
        f"{name} (paper ~{paper_targets.FIG1_POTENTIAL.get(name, 0):.0%})": value
        for name, value in ordered.items()
    }
    text = bar_chart(
        rows,
        title="Figure 1 — potential IPC improvement, all conflict+capacity "
        "misses removed (measured vs paper)",
        fmt="{:+.1%}",
    )
    checks = Checks()
    for name in ("eon", "sixtrack", "vortex", "galgel"):
        checks.guarded(
            f"{name} low-stall (<25% potential)", name in potential,
            lambda n=name: potential[n] < 0.25,
            f"{potential.get(name, 0.0):+.1%}" if name in potential else "",
        )
    for name in ("swim", "ammp", "mcf"):
        checks.guarded(
            f"{name} memory-bound (>50% potential)", name in potential,
            lambda n=name: potential[n] > 0.5,
            f"{potential.get(name, 0.0):+.1%}" if name in potential else "",
        )
    checks.guarded(
        "ammp potential > 10x gzip",
        "ammp" in potential and "gzip" in potential,
        lambda: potential["ammp"] > 10 * potential["gzip"],
    )
    return FigureArtifact("fig01", FIG01.title, text, checks.results)


def build_fig02(suite: Suite) -> FigureArtifact:
    """Figure 2 — L1D miss breakdown into conflict/cold/capacity."""
    rows = {}
    for name, results in suite.items():
        mc = results["base"].miss_counts
        rows[name] = [mc.conflict, mc.cold, mc.capacity]
    potential = speedups(suite, "perfect", "base")
    ordered = {k: rows[k] for k in sorted(rows, key=lambda n: potential[n])}
    text = stacked_bars(
        ordered,
        ["conflict", "cold", "capacity"],
        title="Figure 2 — L1D miss breakdown (sorted by Fig-1 potential)",
    )

    def frac(name: str, kind: MissClass) -> float:
        return suite[name]["base"].miss_counts.fraction(kind)

    checks = Checks()
    for name in ("gzip", "vpr", "crafty"):
        checks.guarded(
            f"{name} conflict-dominated (>60%)", name in rows,
            lambda n=name: frac(n, MissClass.CONFLICT) > 0.6,
        )
    for name in ("swim", "ammp", "applu", "mcf"):
        checks.guarded(
            f"{name} capacity-dominated (>50%)", name in rows,
            lambda n=name: frac(n, MissClass.CAPACITY) > 0.5,
        )
    return FigureArtifact("fig02", FIG02.title, text, checks.results)


def build_fig04(suite: Suite) -> FigureArtifact:
    """Figure 4 — live time and dead time distributions."""
    metrics = base_metrics(suite)
    live = _merge(m.live_time for m in metrics)
    dead = _merge(m.dead_time for m in metrics)
    text = "\n".join([
        "Figure 4 — live time distribution (x100-cycle bins)",
        distribution_rows(live.fractions(), TIME_BIN),
        f"  fraction below 100 cycles: {live.fraction_below(100):.1%} (paper: 58%)",
        "",
        "Figure 4 — dead time distribution (x100-cycle bins)",
        distribution_rows(dead.fractions(), TIME_BIN),
        f"  fraction below 100 cycles: {dead.fraction_below(100):.1%} (paper: 31%)",
    ])
    checks = Checks()
    checks.require(
        "live times shorter than dead times (<100-cycle mass)",
        live.fraction_below(100) > dead.fraction_below(100),
        f"live {live.fraction_below(100):.1%} vs dead {dead.fraction_below(100):.1%}",
    )
    checks.require(
        "live mass below 100 cycles > 35%", live.fraction_below(100) > 0.35,
        f"{live.fraction_below(100):.1%}",
    )
    checks.require(
        "dead overflow mass exceeds live",
        dead.fractions()[-1] > live.fractions()[-1],
    )
    checks.require("mean dead > mean live", dead.mean > live.mean,
                   f"{dead.mean:,.0f} vs {live.mean:,.0f} cycles")
    return FigureArtifact("fig04", FIG04.title, text, checks.results)


def build_fig05(suite: Suite) -> FigureArtifact:
    """Figure 5 — access interval and reload interval distributions."""
    metrics = base_metrics(suite)
    access = _merge(m.access_interval for m in metrics)
    reload_ = _merge(m.reload_interval for m in metrics)
    text = "\n".join([
        "Figure 5 — access interval distribution (x100-cycle bins)",
        distribution_rows(access.fractions(), TIME_BIN),
        f"  fraction below 1000 cycles: {access.fraction_below(1000):.1%} (paper: 91%)",
        "",
        "Figure 5 — reload interval distribution (x1000-cycle bins)",
        distribution_rows(reload_.fractions(), RELOAD_BIN),
        f"  fraction below 1000 cycles: {reload_.fraction_below(1000):.1%} (paper: 24%)",
    ])
    checks = Checks()
    checks.require(
        "access-interval mass below 1000 cycles > 30%",
        access.fraction_below(1000) > 0.3, f"{access.fraction_below(1000):.1%}",
    )
    checks.require(
        "reload intervals longer than access intervals",
        reload_.fraction_below(1000) < access.fraction_below(1000),
    )
    checks.require("mean reload > mean access", reload_.mean > access.mean,
                   f"{reload_.mean:,.0f} vs {access.mean:,.0f} cycles")
    return FigureArtifact("fig05", FIG05.title, text, checks.results)


def build_fig07(suite: Suite) -> FigureArtifact:
    """Figure 7 — reload intervals split by next-miss type."""
    conflict, capacity = _merge_by_class(suite, "reload_by_class")
    text = "\n".join([
        "Figure 7 — reload intervals preceding CONFLICT misses (x1000-cycle bins)",
        distribution_rows(conflict.fractions(), RELOAD_BIN),
        f"  mean: {conflict.mean:,.0f} cycles (paper: ~8000)",
        "",
        "Figure 7 — reload intervals preceding CAPACITY misses (x1000-cycle bins)",
        distribution_rows(capacity.fractions(), RELOAD_BIN),
        f"  mean: {capacity.mean:,.0f} cycles (paper: 1-2 orders larger)",
    ])
    checks = Checks()
    checks.require("both populations non-empty",
                   conflict.total > 0 and capacity.total > 0)
    checks.require(
        "capacity reload mean > 5x conflict",
        capacity.mean > 5 * conflict.mean,
        f"{capacity.mean:,.0f} vs {conflict.mean:,.0f} cycles",
    )
    checks.require(
        "conflict mass below 16K cycles > 60%",
        conflict.fraction_below(16_000) > 0.6,
        f"{conflict.fraction_below(16_000):.1%}",
    )
    checks.require(
        "capacity mass below 16K cycles < 40%",
        capacity.fraction_below(16_000) < 0.4,
        f"{capacity.fraction_below(16_000):.1%}",
    )
    return FigureArtifact("fig07", FIG07.title, text, checks.results)


def build_fig08(suite: Suite) -> FigureArtifact:
    """Figure 8 — reload-interval conflict predictor threshold sweep."""
    correlations = _all_correlations(suite)
    rows = accuracy_coverage_curve(correlations, "reload", FIG8_THRESHOLDS)
    text = format_table(
        ["reload threshold (cycles)", "accuracy", "coverage"],
        [[t, a, c] for t, a, c in rows],
        title="Figure 8 — conflict prediction by reload interval",
    )
    by_threshold = {t: (a, c) for t, a, c in rows}
    coverages = [c for _, _, c in rows]
    checks = Checks()
    checks.require(
        "accuracy > 80% at the 16K operating point",
        by_threshold[16_000][0] > 0.8, f"{by_threshold[16_000][0]:.2f}",
    )
    checks.require("coverage monotone in threshold", coverages == sorted(coverages))
    checks.require("coverage > 50% at 16K", by_threshold[16_000][1] > 0.5,
                   f"{by_threshold[16_000][1]:.2f}")
    checks.require(
        "accuracy decays past the breakpoint",
        by_threshold[512_000][0] < by_threshold[16_000][0],
    )
    return FigureArtifact("fig08", FIG08.title, text, checks.results)


def build_fig09(suite: Suite) -> FigureArtifact:
    """Figure 9 — dead times split by next-miss type."""
    conflict, capacity = _merge_by_class(suite, "dead_by_class")
    text = "\n".join([
        "Figure 9 — dead times preceding CONFLICT misses (x100-cycle bins)",
        distribution_rows(conflict.fractions(), TIME_BIN),
        f"  mean: {conflict.mean:,.0f} cycles",
        "",
        "Figure 9 — dead times preceding CAPACITY misses (x100-cycle bins)",
        distribution_rows(capacity.fractions(), TIME_BIN),
        f"  mean: {capacity.mean:,.0f} cycles",
    ])
    checks = Checks()
    checks.require("mean conflict dead < mean capacity dead",
                   conflict.mean < capacity.mean,
                   f"{conflict.mean:,.0f} vs {capacity.mean:,.0f} cycles")
    checks.require(
        "conflict dead mass below 1000 cycles > 30%",
        conflict.fraction_below(1000) > 0.3, f"{conflict.fraction_below(1000):.1%}",
    )
    checks.require(
        "capacity dead times longer than conflict",
        capacity.fraction_below(1000) < conflict.fraction_below(1000),
    )
    return FigureArtifact("fig09", FIG09.title, text, checks.results)


def build_fig10(suite: Suite) -> FigureArtifact:
    """Figure 10 — dead-time conflict predictor threshold sweep."""
    correlations = _all_correlations(suite)
    rows = accuracy_coverage_curve(correlations, "dead", FIG10_THRESHOLDS)
    text = format_table(
        ["dead-time threshold (cycles)", "accuracy", "coverage"],
        [[t, a, c] for t, a, c in rows],
        title="Figure 10 — conflict prediction by dead time",
    )
    by_threshold = {t: (a, c) for t, a, c in rows}
    coverages = [c for _, _, c in rows]
    checks = Checks()
    checks.require("accuracy > 75% at 100 cycles", by_threshold[100][0] > 0.75,
                   f"{by_threshold[100][0]:.2f}")
    checks.require("coverage monotone in threshold", coverages == sorted(coverages))
    checks.require(
        "accuracy degrades toward huge thresholds",
        by_threshold[51200][0] < by_threshold[100][0],
    )
    checks.require(
        "solid accuracy at the victim filter's ~1K operating point",
        by_threshold[800][0] > 0.6, f"{by_threshold[800][0]:.2f}",
    )
    return FigureArtifact("fig10", FIG10.title, text, checks.results)


def build_fig11(suite: Suite) -> FigureArtifact:
    """Figure 11 — zero-live-time conflict predictor per benchmark."""
    rows = {}
    for name, results in suite.items():
        cors = results["base"].metrics.correlation_columns
        if not cors.miss_class.size:
            continue
        stats = evaluate_zero_live_predictor(cors)
        rows[name] = (stats.accuracy, stats.coverage, stats.actual_positives)
    conflicty = {k: v for k, v in rows.items() if v[2] >= 20}
    text = format_table(
        ["benchmark", "accuracy", "coverage", "conflict misses"],
        [[n, a, c, p] for n, (a, c, p) in rows.items()],
        title='Figure 11 — "live time = 0" conflict predictor',
    )
    accs = [v[0] for v in conflicty.values()]
    covs = [v[1] for v in conflicty.values()]
    if conflicty:
        text += (
            f"\ngeomean accuracy (conflict-bearing benchmarks): "
            f"{geometric_mean([a + 0.01 for a in accs]) - 0.01:.2f} (paper: 0.68)"
            f"\ngeomean coverage: {geometric_mean([c + 0.01 for c in covs]) - 0.01:.2f} "
            f"(paper: ~0.30)"
        )
    checks = Checks()
    checks.require("some conflict-bearing benchmarks evaluated", bool(conflicty),
                   f"{len(conflicty)} of {len(rows)}")
    for name in ("vpr", "crafty"):
        checks.guarded(
            f"{name} accuracy > 50%", name in conflicty,
            lambda n=name: conflicty[n][0] > 0.5,
        )
    return FigureArtifact("fig11", FIG11.title, text, checks.results)


def build_fig13(suite: Suite) -> FigureArtifact:
    """Figure 13 — victim cache variants: IPC gain and fill traffic."""
    unfiltered = speedups(suite, "victim", "base")
    collins = speedups(suite, "victim_collins", "base")
    timekeeping = speedups(suite, "victim_tk", "base")
    traffic = {}
    for name, results in suite.items():
        traffic[name] = (results["victim"].victim.fills,
                         results["victim_tk"].victim.fills)
    rows = []
    for name in suite:
        base_fills, tk_fills = traffic[name]
        cut = 1 - tk_fills / base_fills if base_fills else 0.0
        rows.append([
            name, f"{unfiltered[name]:+.1%}", f"{collins[name]:+.1%}",
            f"{timekeeping[name]:+.1%}", f"{cut:.0%}",
        ])
    total_base = sum(t[0] for t in traffic.values())
    total_tk = sum(t[1] for t in traffic.values())
    overall_cut = 1 - total_tk / total_base if total_base else 0.0
    text = format_table(
        ["benchmark", "victim", "collins filter", "timekeeping filter",
         "traffic cut"],
        rows,
        title="Figure 13 — victim cache IPC gain over base + fill-traffic "
        "reduction of the timekeeping filter",
    )
    text += f"\noverall fill-traffic reduction: {overall_cut:.0%} (paper: 87%)"
    gm = geometric_mean(list(timekeeping.values()), offset=1.0)
    gm_collins = geometric_mean(list(collins.values()), offset=1.0)
    text += f"\ngeomean timekeeping-filter IPC gain: {gm:+.1%}"
    checks = Checks()
    for name in ("vpr", "crafty"):
        checks.guarded(
            f"{name} gains with any victim cache", name in unfiltered,
            lambda n=name: unfiltered[n] > 0.03 and timekeeping[n] > 0.03,
        )
    for name in ("swim", "ammp", "applu"):
        checks.guarded(
            f"{name}: unfiltered flat-or-hurts, filter protects",
            name in unfiltered,
            lambda n=name: unfiltered[n] < 0.01
            and timekeeping[n] >= unfiltered[n] - 1e-9,
        )
    checks.require("suite-wide fill-traffic cut > 50%", overall_cut > 0.5,
                   f"{overall_cut:.0%}")
    checks.require(
        "timekeeping matches Collins on geomean IPC",
        gm >= gm_collins - 0.005,
        f"{gm:+.1%} vs {gm_collins:+.1%}",
    )
    return FigureArtifact("fig13", FIG13.title, text, checks.results)


def build_fig14(suite: Suite) -> FigureArtifact:
    """Figure 14 — decay-style dead-block prediction threshold sweep."""
    generations = concatenated([m.generation_columns for m in base_metrics(suite)])
    rows = decay_curve(generations, FIG14_THRESHOLDS)
    text = format_table(
        ["idle threshold (cycles)", "accuracy", "coverage"],
        [[t, a, c] for t, a, c in rows],
        title="Figure 14 — decay-style dead-block prediction",
    )
    by_threshold = {t: (a, c) for t, a, c in rows}
    coverages = [c for _, _, c in rows]
    checks = Checks()
    checks.require(
        "accuracy > 75% at the 5120-cycle operating point",
        by_threshold[5120][0] > 0.75, f"{by_threshold[5120][0]:.2f}",
    )
    checks.require(
        "coverage shrinks markedly with threshold",
        coverages[-1] < coverages[0] - 0.2,
        f"{coverages[0]:.2f} -> {coverages[-1]:.2f}",
    )
    checks.require("coverage partial at 5120 (paper ~50%)",
                   by_threshold[5120][1] < 0.8, f"{by_threshold[5120][1]:.2f}")
    return FigureArtifact("fig14", FIG14.title, text, checks.results)


def build_fig15(suite: Suite) -> FigureArtifact:
    """Figure 15 — consecutive live-time variability."""
    generations = concatenated([m.generation_columns for m in base_metrics(suite)])
    pairs = generations.live_time_pairs()
    diffs = abs_diff_histogram(pairs)
    cdf = ratio_cdf(generations.live_time_ratios(), list(RATIO_BREAKPOINTS))
    edges = ["<=0", "<=16", "<=32", "<=64", "<=128", "<=256", "<=512",
             "<=1024", "<=2048", "<=4096", "<=8192", ">8192"]
    text = format_table(
        ["|live - prev_live| (cycles)", "fraction"],
        [[e, f] for e, f in zip(edges, diffs)],
        title="Figure 15 (top) — absolute difference of consecutive live times",
    )
    text += "\n\n" + format_table(
        ["live/prev_live <=", "cumulative fraction"],
        [[bp, f] for bp, f in zip(RATIO_BREAKPOINTS, cdf)],
        title="Figure 15 (bottom) — cumulative ratio of consecutive live times",
    )
    within_2x = cdf[RATIO_BREAKPOINTS.index(2.0)]
    text += f"\nfraction of live times <= 2x previous: {within_2x:.1%} (paper: ~80%)"
    checks = Checks()
    checks.require("enough consecutive pairs (>100)", len(pairs) > 100,
                   str(len(pairs)))
    checks.require(
        "differences below 16 cycles > 20%", diffs[0] + diffs[1] > 0.2,
        f"{diffs[0] + diffs[1]:.1%}",
    )
    checks.require("live times <= 2x previous > 60%", within_2x > 0.6,
                   f"{within_2x:.1%}")
    return FigureArtifact("fig15", FIG15.title, text, checks.results)


def build_fig16(suite: Suite) -> FigureArtifact:
    """Figure 16 — live-time (x2) dead-block prediction per benchmark."""
    predictor = LiveTimeDeadBlockPredictor()
    rows = {}
    for name, results in suite.items():
        generations = results["base"].metrics.generation_columns
        if generations.live_time.size < 50:
            continue
        stats = predictor.evaluate(generations)
        rows[name] = (stats.accuracy, stats.coverage, stats.total)
    text = format_table(
        ["benchmark", "accuracy", "coverage", "generations"],
        [[n, a, c, t] for n, (a, c, t) in rows.items()],
        title="Figure 16 — live-time (x2) dead-block prediction",
    )
    checks = Checks()
    checks.require("benchmarks evaluated", bool(rows), str(len(rows)))
    if rows:
        avg_acc = sum(v[0] for v in rows.values()) / len(rows)
        avg_cov = sum(v[1] for v in rows.values()) / len(rows)
        text += (
            f"\naverage accuracy: {avg_acc:.2f} (paper: ~0.75)"
            f"\naverage coverage: {avg_cov:.2f} (paper: ~0.70)"
        )
        checks.require("average accuracy > 50%", avg_acc > 0.5, f"{avg_acc:.2f}")
        checks.require("average coverage > 40%", avg_cov > 0.4, f"{avg_cov:.2f}")
    for name in ("swim", "ammp"):
        checks.guarded(
            f"{name} best-predicted (acc > 80%, cov > 70%)", name in rows,
            lambda n=name: rows[n][0] > 0.8 and rows[n][1] > 0.7,
        )
    return FigureArtifact("fig16", FIG16.title, text, checks.results)


def build_fig19(suite: Suite) -> FigureArtifact:
    """Figure 19 — prefetch IPC: timekeeping 8KB vs DBCP 2MB."""
    tk = speedups(suite, "pf_tk", "base")
    dbcp = speedups(suite, "pf_dbcp", "base")
    rows = []
    for name in suite:
        paper = paper_targets.FIG22_IMPROVEMENT.get(name)
        rows.append([
            name, f"{tk[name]:+.1%}", f"{dbcp[name]:+.1%}",
            f"{paper:+.0%}" if paper is not None else "-",
        ])
    gm_tk = geometric_mean(list(tk.values()), offset=1.0)
    gm_dbcp = geometric_mean(list(dbcp.values()), offset=1.0)
    text = format_table(
        ["benchmark", "timekeeping 8KB", "DBCP 2MB", "paper (best mech.)"],
        rows,
        title="Figure 19 — prefetch IPC improvement over base",
    )
    text += (
        f"\ngeomean timekeeping: {gm_tk:+.1%} (paper: +11%)"
        f"\ngeomean DBCP: {gm_dbcp:+.1%} (paper: +7%)"
    )
    first = next(iter(suite.values()))
    table_tk = first["pf_tk"].prefetch.table_bytes
    table_dbcp = first["pf_dbcp"].prefetch.table_bytes
    text += f"\ntable sizes: timekeeping {table_tk} B vs DBCP {table_dbcp} B"
    checks = Checks()
    checks.require("timekeeping beats DBCP suite-wide", gm_tk > gm_dbcp,
                   f"{gm_tk:+.1%} vs {gm_dbcp:+.1%}")
    checks.require("timekeeping geomean > +2%", gm_tk > 0.02, f"{gm_tk:+.1%}")
    for name in ("swim", "ammp"):
        checks.guarded(
            f"{name} gains substantially (>20%)", name in tk,
            lambda n=name: tk[n] > 0.2,
            f"{tk.get(name, 0.0):+.1%}" if name in tk else "",
        )
    checks.guarded(
        "ammp is the biggest prefetch winner", "ammp" in tk,
        lambda: tk["ammp"] == max(tk.values()),
    )
    checks.guarded(
        "mcf favors the megabyte-scale DBCP table", "mcf" in tk,
        lambda: dbcp["mcf"] > tk["mcf"],
    )
    checks.require(
        "timekeeping table 100x smaller than DBCP",
        table_tk * 100 <= table_dbcp, f"{table_tk} B vs {table_dbcp} B",
    )
    return FigureArtifact("fig19", FIG19.title, text, checks.results)


def build_fig20(suite: Suite) -> FigureArtifact:
    """Figure 20 — address accuracy/coverage of the 8KB table."""
    rows = {}
    for name in BEST_PERFORMERS:
        if name not in suite:
            continue
        pf = suite[name]["pf_tk"].prefetch
        rows[name] = (pf.address_accuracy, pf.coverage)
    text = format_table(
        ["benchmark", "address accuracy", "coverage (table hit rate)"],
        [[n, a, c] for n, (a, c) in rows.items()],
        title="Figure 20 — 8KB correlation table, eight best performers",
    )
    checks = Checks()
    checks.require("best performers present", bool(rows), str(len(rows)))
    for name in ("swim", "ammp"):
        checks.guarded(
            f"{name} predicts nearly perfectly", name in rows,
            lambda n=name: rows[n][0] > 0.7 and rows[n][1] > 0.6,
        )
    checks.guarded(
        "mcf's pointer chase defeats the small table",
        "mcf" in rows and "ammp" in rows,
        lambda: rows["mcf"][0] < 0.3 and rows["mcf"][0] < rows["ammp"][0],
    )
    checks.guarded(
        "art accuracy below swim", "art" in rows and "swim" in rows,
        lambda: rows["art"][0] < rows["swim"][0],
    )
    return FigureArtifact("fig20", FIG20.title, text, checks.results)


def build_fig21(suite: Suite) -> FigureArtifact:
    """Figure 21 — prefetch timeliness by address correctness."""
    correct_rows, wrong_rows = {}, {}
    for name in BEST_PERFORMERS:
        if name not in suite:
            continue
        counts = suite[name]["pf_tk"].prefetch.timeliness
        correct_rows[name] = [counts.correct[s] for s in TIMELINESS_SEGMENTS]
        wrong_rows[name] = [counts.wrong[s] for s in TIMELINESS_SEGMENTS]
    text = stacked_bars(
        correct_rows, list(TIMELINESS_NAMES),
        title="Figure 21 (top) — timeliness of CORRECT address predictions",
    )
    text += "\n\n" + stacked_bars(
        wrong_rows, list(TIMELINESS_NAMES),
        title="Figure 21 (bottom) — timeliness of WRONG address predictions",
    )

    def timely_share(name: str) -> float:
        values = correct_rows[name]
        total = sum(values)
        idx = TIMELINESS_SEGMENTS.index(PrefetchTimeliness.TIMELY)
        return values[idx] / total if total else 0.0

    checks = Checks()
    checks.require("best performers present", bool(correct_rows),
                   str(len(correct_rows)))
    checks.guarded(
        "ammp prefetches mostly timely (>50%)", "ammp" in correct_rows,
        lambda: timely_share("ammp") > 0.5,
    )
    covered = [
        name for name in correct_rows
        if suite[name]["pf_tk"].prefetch.coverage > 0.05
    ]
    checks.require(
        "covered benchmarks resolve predictions",
        all(sum(correct_rows[n]) + sum(wrong_rows[n]) > 0 for n in covered),
        f"{len(covered)} covered",
    )
    return FigureArtifact("fig21", FIG21.title, text, checks.results)


def build_fig22(suite: Suite) -> FigureArtifact:
    """Figure 22 — which mechanism helps which benchmark (Venn)."""
    potential = speedups(suite, "perfect", "base")
    victim = speedups(suite, "victim_tk", "base")
    prefetch = speedups(suite, "pf_tk", "base")
    summary = classify_benchmarks(potential, victim, prefetch,
                                  stall_threshold=0.12)
    text = summary.render()
    text += "\n\npaper sets for comparison:"
    text += f"\n  few stalls      : {', '.join(sorted(paper_targets.FIG22_FEW_STALLS))}"
    text += f"\n  victim helped   : {', '.join(sorted(paper_targets.FIG22_VICTIM_HELPED))}"
    text += f"\n  prefetch helped : {', '.join(sorted(paper_targets.FIG22_PREFETCH_HELPED))}"
    checks = Checks()
    for name in ("eon", "sixtrack"):
        checks.guarded(
            f"{name} in the few-stalls set", name in summary.improvement,
            lambda n=name: n in summary.few_stalls,
        )
    for name in ("vpr", "crafty"):
        checks.guarded(
            f"{name} helped by the victim filter", name in summary.improvement,
            lambda n=name: n in summary.victim_helped,
        )
    for name in ("swim", "ammp", "gcc"):
        checks.guarded(
            f"{name} helped by prefetch", name in summary.improvement,
            lambda n=name: n in summary.prefetch_helped,
        )
    helped = summary.victim_helped | summary.prefetch_helped
    checks.require(
        "victim and prefetch sets largely complementary",
        len(summary.both_helped) <= len(helped) / 2 if helped else True,
        f"{len(summary.both_helped)} in both of {len(helped)} helped",
    )
    return FigureArtifact("fig22", FIG22.title, text, checks.results)


# -- the registry -------------------------------------------------------------

_CHAR = ("base", "perfect")

TABLE1 = FigureSpec(
    fig_id="table1",
    title="Table 1 — Configuration of Simulated Processor",
    paper_shape="the simulated machine matches the paper's Table-1 parameters",
    workloads=(),
    configs=(),
    build=build_table1,
)
FIG01 = FigureSpec(
    fig_id="fig01",
    title="Figure 1 — potential IPC improvement (perfect non-cold L1D)",
    paper_shape="~0% for compute-bound codes up to ~350% for art/mcf",
    workloads=None,
    configs=_CHAR,
    build=build_fig01,
)
FIG02 = FigureSpec(
    fig_id="fig02",
    title="Figure 2 — L1D miss breakdown (conflict/cold/capacity)",
    paper_shape="integer codes conflict-dominated, high-potential codes "
    "capacity-dominated",
    workloads=None,
    configs=_CHAR,
    build=build_fig02,
)
FIG04 = FigureSpec(
    fig_id="fig04",
    title="Figure 4 — live time and dead time distributions",
    paper_shape="58% of live times below 100 cycles vs 31% of dead times",
    workloads=None,
    configs=("base",),
    build=build_fig04,
)
FIG05 = FigureSpec(
    fig_id="fig05",
    title="Figure 5 — access interval and reload interval distributions",
    paper_shape="91% of access intervals below 1000 cycles vs 24% of reloads",
    workloads=None,
    configs=("base",),
    build=build_fig05,
)
FIG07 = FigureSpec(
    fig_id="fig07",
    title="Figure 7 — reload intervals split by miss type",
    paper_shape="conflict reloads ~8K cycles, capacity reloads 1-2 orders larger",
    workloads=None,
    configs=("base",),
    build=build_fig07,
)
FIG08 = FigureSpec(
    fig_id="fig08",
    title="Figure 8 — conflict prediction by reload interval",
    paper_shape="near-perfect accuracy up to a 16K-cycle threshold, ~85% coverage",
    workloads=None,
    configs=("base",),
    build=build_fig08,
)
FIG09 = FigureSpec(
    fig_id="fig09",
    title="Figure 9 — dead times split by miss type",
    paper_shape="conflict dead times short (premature eviction), capacity long",
    workloads=None,
    configs=("base",),
    build=build_fig09,
)
FIG10 = FigureSpec(
    fig_id="fig10",
    title="Figure 10 — conflict prediction by dead time",
    paper_shape=">90% accuracy at ~100-cycle thresholds with ~40% coverage",
    workloads=None,
    configs=("base",),
    build=build_fig10,
)
FIG11 = FigureSpec(
    fig_id="fig11",
    title='Figure 11 — "live time = 0" conflict predictor per benchmark',
    paper_shape="geomean accuracy 68% at geomean coverage ~30%, no knob",
    workloads=None,
    configs=("base",),
    build=build_fig11,
)
FIG13 = FigureSpec(
    fig_id="fig13",
    title="Figure 13 — victim cache IPC gain and fill traffic",
    paper_shape="timekeeping filter cuts fill traffic ~87% while matching the "
    "unfiltered cache's IPC",
    workloads=None,
    configs=("base", "victim", "victim_collins", "victim_tk"),
    build=build_fig13,
)
FIG14 = FigureSpec(
    fig_id="fig14",
    title="Figure 14 — decay-style dead-block prediction",
    paper_shape="accuracy needs thresholds above ~5120 cycles; coverage ~50% there",
    workloads=None,
    configs=("base",),
    build=build_fig14,
)
FIG15 = FigureSpec(
    fig_id="fig15",
    title="Figure 15 — variability of consecutive live times",
    paper_shape=">20% of consecutive differences below 16 cycles; ~80% within 2x",
    workloads=None,
    configs=("base",),
    build=build_fig15,
)
FIG16 = FigureSpec(
    fig_id="fig16",
    title="Figure 16 — live-time (x2) dead-block prediction",
    paper_shape="average accuracy ~75% and coverage ~70%, best on regular codes",
    workloads=None,
    configs=("base",),
    build=build_fig16,
)
FIG19 = FigureSpec(
    fig_id="fig19",
    title="Figure 19 — prefetch IPC: timekeeping 8KB vs DBCP 2MB",
    paper_shape="timekeeping +11% suite-wide vs DBCP +7% with a 100x smaller table",
    workloads=None,
    configs=("base", "pf_tk", "pf_dbcp"),
    build=build_fig19,
)
FIG20 = FigureSpec(
    fig_id="fig20",
    title="Figure 20 — address accuracy and coverage of the 8KB table",
    paper_shape="regular codes near-perfect, art noisy, mcf needs megabyte tables",
    workloads=tuple(BEST_PERFORMERS),
    configs=("base", "pf_tk"),
    build=build_fig20,
)
FIG21 = FigureSpec(
    fig_id="fig21",
    title="Figure 21 — prefetch timeliness by address correctness",
    paper_shape="ammp almost all timely; mgrid/facerec lose to lateness",
    workloads=tuple(BEST_PERFORMERS),
    configs=("base", "pf_tk"),
    build=build_fig21,
)
FIG22 = FigureSpec(
    fig_id="fig22",
    title="Figure 22 — which mechanism helps which benchmark",
    paper_shape="victim filter covers conflict codes, prefetch covers capacity "
    "codes, few programs need both",
    workloads=None,
    configs=("base", "perfect", "victim_tk", "pf_tk"),
    build=build_fig22,
)

#: Every spec, in paper order.  Keys are the ``--only`` handles.
REGISTRY: Dict[str, FigureSpec] = {
    spec.fig_id: spec
    for spec in (
        TABLE1, FIG01, FIG02, FIG04, FIG05, FIG07, FIG08, FIG09, FIG10,
        FIG11, FIG13, FIG14, FIG15, FIG16, FIG19, FIG20, FIG21, FIG22,
    )
}


def get_spec(fig_id: str) -> FigureSpec:
    """Look up one spec by its handle; raises KeyError with the handles."""
    try:
        return REGISTRY[fig_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {fig_id!r}; known: {', '.join(REGISTRY)}"
        ) from None


def select_specs(only: Optional[Sequence[str]] = None) -> List[FigureSpec]:
    """The specs named by *only* (paper order), or all of them."""
    if only is None:
        return list(REGISTRY.values())
    wanted = set(only)
    unknown = wanted - set(REGISTRY)
    if unknown:
        raise KeyError(
            f"unknown figure(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(REGISTRY)}"
        )
    return [spec for fig_id, spec in REGISTRY.items() if fig_id in wanted]

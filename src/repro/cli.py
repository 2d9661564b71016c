"""Command-line interface.

Usage (installed as ``python -m repro``):

    python -m repro list
    python -m repro describe
    python -m repro run swim --prefetcher timekeeping --length 60000
    python -m repro compare vpr --configs base,victim,victim_tk,pf_tk
    python -m repro metrics ammp --length 60000
    python -m repro sweep --workloads all --configs base,victim_tk,pf_tk \\
        --workers 4 --store out.jsonl --resume \\
        --progress --trace-out trace.json --log-json events.jsonl
    python -m repro report out.jsonl --timing
    python -m repro paper --out docs --progress
    python -m repro paper --only fig13,fig19 --smoke --resume
    python -m repro trace build swim --length 60000
    python -m repro trace inspect
    python -m repro trace prewarm --workloads all --length 60000

Exit code 0 on success; 1 when a sweep leaves failed cells; argument
errors exit 2 (argparse convention).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.report import format_table, percent
from .common.config import paper_machine
from .common.errors import SimulationError
from .common.types import MissClass
from .obs.metrics import PHASES, Telemetry, aggregate_phases
from .obs.progress import SweepObserver, SweepProgress
from .obs.tracing import build_sweep_trace
from .sim.results import SimulationResult
from .sim.runner import check_length_warmup, run_sweep, sweep_warmup
from .sim.store import RunStore
from .sim.sweep import run_workload
from .traces.cache import TraceCache, default_cache_root
from .traces.workloads import SPEC2000, get_workload

#: Named configurations accepted by ``compare --configs`` (re-exported
#: from :mod:`repro.sim.sweep`).
from .sim.sweep import CONFIG_PRESETS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Timekeeping in the Memory System (ISCA 2002) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the SPEC2000 stand-in workloads")
    sub.add_parser("describe", help="print the Table-1 machine configuration")

    run = sub.add_parser("run", help="simulate one workload in one configuration")
    _add_workload_args(run)
    run.add_argument("--prefetcher", choices=["timekeeping", "dbcp"])
    run.add_argument("--victim-filter",
                     choices=["unfiltered", "collins", "timekeeping", "adaptive"])
    run.add_argument("--perfect", action="store_true",
                     help="zero-cost non-cold misses (Figure 1 bound)")
    run.add_argument("--decay-interval", type=int,
                     help="enable cache decay with this idle threshold (cycles)")

    compare = sub.add_parser("compare",
                             help="run one workload under several preset configs")
    _add_workload_args(compare)
    compare.add_argument(
        "--configs", default="base,victim_tk,pf_tk",
        help=f"comma-separated presets from: {', '.join(CONFIG_PRESETS)}",
    )

    metrics = sub.add_parser("metrics",
                             help="print the timekeeping metric summary of a workload")
    _add_workload_args(metrics)

    sweep = sub.add_parser(
        "sweep",
        help="fault-tolerant workload x config sweep with checkpoint/resume")
    sweep.add_argument("--workloads", default="all",
                       help="'all' or comma-separated names (see `list`)")
    sweep.add_argument(
        "--configs", default="base,victim_tk,pf_tk",
        help=f"comma-separated presets from: {', '.join(CONFIG_PRESETS)}",
    )
    sweep.add_argument("--length", type=int, default=60_000,
                       help="measured accesses per cell (default 60000)")
    sweep.add_argument("--warmup", type=int, default=None,
                       help="warm-up accesses (default: length/3)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial in-process)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-cell wall-clock budget in seconds")
    sweep.add_argument("--retries", type=int, default=0,
                       help="retry transiently-failed cells this many times")
    sweep.add_argument("--hang-grace", type=float, default=None,
                       help="recycle a worker that stops heartbeating for this "
                            "many seconds (detects wedged workers, not just "
                            "slow ones)")
    sweep.add_argument("--store", default=None,
                       help="JSONL checkpoint file (appended per finished cell)")
    sweep.add_argument("--resume", action="store_true",
                       help="replay completed cells from --store, run the rest")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress on stderr")
    sweep.add_argument("--progress", action="store_true",
                       help="live progress line on stderr (cells done/failed/"
                            "retried, ETA, trace-cache hit rate)")
    sweep.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write a Chrome trace-event JSON of the sweep "
                            "(open in chrome://tracing or Perfetto)")
    sweep.add_argument("--log-json", default=None, metavar="FILE",
                       help="append structured JSONL events (cell starts/"
                            "finishes, retries, cache events) to FILE")
    _add_cache_args(sweep)

    paper = sub.add_parser(
        "paper",
        help="reproduce the paper's full evaluation (Table 1 + Figures 1-22) "
             "as one resumable sweep and generate docs/REPRODUCTION.md")
    paper.add_argument("--only", default=None, metavar="IDS",
                       help="comma-separated figure handles (e.g. fig13,fig19); "
                            "default: every registered figure")
    paper.add_argument("--list", action="store_true", dest="list_figures",
                       help="list the registered figures and exit")
    paper.add_argument("--out", default="docs", metavar="DIR",
                       help="output directory for REPRODUCTION.md and the "
                            "default checkpoint store (default: docs)")
    paper.add_argument("--store", default=None,
                       help="checkpoint store path (default: <out>/paper_store.jsonl)")
    paper.add_argument("--resume", action="store_true",
                       help="replay completed cells from the store, run the rest")
    paper.add_argument("--smoke", action="store_true",
                       help="reduced trace length for CI smoke runs")
    paper.add_argument("--strict", action="store_true",
                       help="exit 1 when any shape check fails (default: only "
                            "failed cells are fatal)")
    paper.add_argument("--length", type=int, default=None,
                       help="measured accesses per cell (default: 60000, "
                            "or 4000 with --smoke)")
    paper.add_argument("--warmup", type=int, default=None,
                       help="warm-up accesses (default: length/2)")
    paper.add_argument("--seed", type=int, default=0)
    paper.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial in-process)")
    paper.add_argument("--timeout", type=float, default=None,
                       help="per-cell wall-clock budget in seconds")
    paper.add_argument("--retries", type=int, default=0,
                       help="retry transiently-failed cells this many times")
    paper.add_argument("--workloads", default=None,
                       help="restrict to these workloads (smoke subsets; "
                            "checks on absent workloads are skipped)")
    paper.add_argument("--progress", action="store_true",
                       help="live progress line on stderr")
    _add_cache_args(paper)

    report = sub.add_parser(
        "report",
        help="summarize a sweep checkpoint store (--timing: phase breakdown)")
    report.add_argument("store", help="JSONL checkpoint file written by `sweep --store`")
    report.add_argument("--timing", action="store_true",
                        help="per-cell spawn/synthesis/simulate/serialize "
                             "breakdown from the stored telemetry")
    report.add_argument("--repair", action="store_true",
                        help="quarantine corrupt/superseded lines to the "
                             ".quarantine sidecar and compact the store "
                             "before reporting")

    trace = sub.add_parser(
        "trace",
        help="manage the content-addressed trace cache")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    build = trace_sub.add_parser(
        "build", help="materialize one workload trace into the cache")
    _add_workload_args(build, warmup_help=_TRACE_WARMUP_HELP)
    _add_cache_root_arg(build)

    inspect = trace_sub.add_parser(
        "inspect", help="list cache entries (or stats for one workload)")
    inspect.add_argument("workload", nargs="?", default=None,
                         help="only show entries for this workload")
    _add_cache_root_arg(inspect)

    prewarm = trace_sub.add_parser(
        "prewarm", help="materialize traces for a coming sweep")
    prewarm.add_argument("--workloads", default="all",
                         help="'all' or comma-separated names (see `list`)")
    prewarm.add_argument("--length", type=int, default=60_000,
                         help="measured accesses per cell (default 60000)")
    prewarm.add_argument("--warmup", type=int, default=None,
                         help=_TRACE_WARMUP_HELP)
    prewarm.add_argument("--seed", type=int, default=0)
    _add_cache_root_arg(prewarm)

    clear = trace_sub.add_parser("clear", help="delete every cache entry")
    _add_cache_root_arg(clear)
    return parser


def _add_cache_root_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache-root", default=None, metavar="DIR",
        help="trace-cache directory (default: $REPRO_TRACE_CACHE or "
             "~/.cache/repro/traces)")


def _add_cache_args(sub: argparse.ArgumentParser) -> None:
    _add_cache_root_arg(sub)
    sub.add_argument(
        "--no-trace-cache", action="store_true",
        help="disable the trace cache (synthesize each workload's trace "
             "in memory, once per sweep or pool worker)")


#: ``--warmup`` help of ``trace build`` / ``trace prewarm``: a trace is
#: cached at length plus warm-up, and ``repro paper`` warms up for half
#: its length where sweeps take a third.
_TRACE_WARMUP_HELP = (
    "warm-up accesses (default: length/3, as `repro sweep`; to prewarm "
    "for `repro paper`, pass length/2)"
)


def _add_workload_args(sub: argparse.ArgumentParser,
                       warmup_help: str = "warm-up accesses (default: length/3)",
                       ) -> None:
    sub.add_argument("workload", help="SPEC2000 stand-in name (see `list`)")
    sub.add_argument("--length", type=int, default=60_000,
                     help="measured accesses (default 60000)")
    sub.add_argument("--warmup", type=int, default=None, help=warmup_help)
    sub.add_argument("--seed", type=int, default=0)


def _cmd_list(out) -> int:
    rows = [
        [name, spec.category, f"{spec.ipa:g}", spec.description]
        for name, spec in SPEC2000.items()
    ]
    print(format_table(["workload", "category", "instr/access", "models"], rows),
          file=out)
    return 0


def _cmd_describe(out) -> int:
    print(paper_machine().describe(), file=out)
    return 0


def _single_config(args) -> dict:
    config: dict = {"collect_metrics": True}
    if args.prefetcher:
        config["prefetcher"] = args.prefetcher
    if args.victim_filter:
        config["victim_filter"] = args.victim_filter
    if args.perfect:
        config["perfect_non_cold"] = True
        config.pop("collect_metrics")
    if args.decay_interval is not None:
        config["decay_interval"] = args.decay_interval
    return config


def _cmd_run(args, out) -> int:
    results = run_workload(
        args.workload, {"run": _single_config(args)},
        length=args.length, warmup=args.warmup, seed=args.seed,
    )
    result = results["run"]
    print(result.summary(), file=out)
    if result.decay is not None:
        d = result.decay
        print(
            f"  decay: {percent(d.off_fraction)} line-cycles off, "
            f"{d.induced_misses} induced misses",
            file=out,
        )
    return 0


def _cmd_compare(args, out) -> int:
    names = [c.strip() for c in args.configs.split(",") if c.strip()]
    unknown = [c for c in names if c not in CONFIG_PRESETS]
    if unknown:
        print(f"unknown configs: {', '.join(unknown)}", file=sys.stderr)
        return 1
    configs = {name: dict(CONFIG_PRESETS[name]) for name in names}
    configs.setdefault("base", {})
    results = run_workload(args.workload, configs, length=args.length,
                           warmup=args.warmup, seed=args.seed)
    base = results["base"]
    rows = []
    for name in names:
        r = results[name]
        rows.append([name, f"{r.ipc:.3f}", f"{r.speedup_over(base):+.2%}",
                     f"{r.l1_miss_rate:.2%}"])
    print(format_table(["config", "IPC", "vs base", "L1 miss rate"], rows,
                       title=f"{args.workload} ({args.length} accesses)"), file=out)
    return 0


def _cmd_metrics(args, out) -> int:
    spec = get_workload(args.workload)
    results = run_workload(
        args.workload, {"base": {"collect_metrics": True}},
        length=args.length, warmup=args.warmup, seed=args.seed,
    )
    result = results["base"]
    m = result.metrics
    mc = result.miss_counts
    print(f"{args.workload}: {spec.description}", file=out)
    print(result.summary(), file=out)
    rows = [
        ["live time < 100 cycles", percent(m.fraction_live_below(100))],
        ["dead time < 100 cycles", percent(m.fraction_dead_below(100))],
        ["zero-live-time generations", percent(m.zero_live_fraction())],
        ["access intervals < 1000 cycles",
         percent(m.access_interval.fraction_below(1000))],
        ["reload intervals < 16K cycles",
         percent(m.reload_interval.fraction_below(16_000))],
        ["conflict miss share", percent(mc.fraction(MissClass.CONFLICT))],
        ["capacity miss share", percent(mc.fraction(MissClass.CAPACITY))],
    ]
    print(format_table(["timekeeping metric", "value"], rows), file=out)
    return 0


class _CellStartLines(SweepObserver):
    """``repro sweep``'s default stderr output: one line per cell attempt."""

    def on_cell_start(self, workload: str, config: str, attempt: int) -> None:
        print(f"running {workload}:{config}", file=sys.stderr)


def _cmd_sweep(args, out) -> int:
    config_names = [c.strip() for c in args.configs.split(",") if c.strip()]
    unknown = [c for c in config_names if c not in CONFIG_PRESETS]
    if unknown:
        print(f"unknown configs: {', '.join(unknown)}", file=sys.stderr)
        return 1
    configs = {name: dict(CONFIG_PRESETS[name]) for name in config_names}
    if args.workloads.strip() == "all":
        workloads = list(SPEC2000)
    else:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    observer: Optional[SweepObserver] = None
    if args.progress:
        observer = SweepProgress(stream=sys.stderr)
    elif not args.quiet:
        observer = _CellStartLines()
    trace_cache: object = True
    if args.no_trace_cache:
        trace_cache = False
    elif args.cache_root:
        trace_cache = args.cache_root
    # The log opens here, before the sweep: a bad path leaves no store.
    with Telemetry(log=args.log_json or None):
        report = run_sweep(
            configs,
            workloads=workloads,
            length=args.length,
            warmup=args.warmup,
            seed=args.seed,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            hang_grace=args.hang_grace,
            store=args.store,
            resume=args.resume,
            trace_cache=trace_cache,
            observer=observer,
        )
    if args.trace_out:
        build_sweep_trace(report).write(args.trace_out)
        print(f"wrote Chrome trace to {args.trace_out} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)",
              file=sys.stderr)
    rows = []
    for workload in workloads:
        results = report.results.get(workload, {})
        rows.append(
            [workload]
            + [f"{results[c].ipc:.3f}" if c in results else "-" for c in config_names]
        )
    print(
        format_table(
            ["workload"] + [f"{c} IPC" for c in config_names],
            rows,
            title=f"sweep: {len(workloads)} workloads x {len(config_names)} configs "
                  f"({args.length} accesses)",
        ),
        file=out,
    )
    print(report.summary(), file=out)
    for failure in report.failures:
        print(f"FAILED {failure}", file=out)
    return 1 if report.failures else 0


def _cmd_paper(args, out) -> int:
    from .figures import REGISTRY, run_paper

    if args.list_figures:
        rows = [
            [spec.fig_id, spec.title, ",".join(spec.configs) or "-",
             "all" if spec.workloads is None else str(len(spec.workloads))]
            for spec in REGISTRY.values()
        ]
        print(format_table(["id", "title", "configs", "workloads"], rows,
                           title="registered figures (repro paper --only <id,...>)"),
              file=out)
        return 0

    only = None
    if args.only:
        only = [f.strip() for f in args.only.split(",") if f.strip()]
    workloads = None
    if args.workloads:
        workloads = _resolve_workload_list(args.workloads)
    trace_cache: object = True
    if args.no_trace_cache:
        trace_cache = False
    elif args.cache_root:
        trace_cache = args.cache_root
    observer = SweepProgress(stream=sys.stderr) if args.progress else None

    run = run_paper(
        only=only,
        out_dir=args.out,
        store_path=args.store,
        length=args.length,
        seed=args.seed,
        warmup=args.warmup,
        smoke=args.smoke,
        resume=args.resume,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        workloads=workloads,
        trace_cache=trace_cache,
        observer=observer,
    )
    for artifact in run.artifacts:
        done = [c for c in artifact.checks if c.passed is not None]
        passed = sum(1 for c in done if c.passed)
        verdict = "PASS" if artifact.passed else "FAIL"
        print(f"{verdict} {artifact.fig_id}: {passed}/{len(done)} checks", file=out)
        for check in artifact.failures():
            detail = f" ({check.detail})" if check.detail else ""
            print(f"  FAIL {check.name}{detail}", file=out)
    print(f"{run.executed} cells executed, {run.replayed} replayed, "
          f"{run.failures} failed", file=out)
    print(f"wrote {run.report_path} (store: {run.store_path})", file=out)
    if run.failures:
        return 1
    if args.strict and not run.passed:
        return 1
    return 0


def _format_seconds(seconds) -> str:
    return f"{seconds:.3f}s" if seconds is not None else "-"


def _cell_wall(record) -> Optional[float]:
    """A stored cell's wall: its ``elapsed``, which ends at the cell's
    outcome, plus the ``serialize`` phase of its store write after that."""
    wall = record.get("elapsed")
    phases = (record.get("telemetry") or {}).get("phases", {})
    if wall is not None and "serialize" in phases:
        wall += phases["serialize"][1]
    return wall


#: Manifest keys naming the build and host that wrote a store's run.
_PROVENANCE_KEYS = ("git_rev", "host", "python")


def _print_provenance(manifest, out) -> None:
    """One line naming the build and host of the store's latest run.

    Silent for stores written before manifests carried provenance.
    """
    if not any(key in manifest for key in _PROVENANCE_KEYS):
        return
    print("provenance: " + ", ".join(
        f"{key} {manifest.get(key, '?')}" for key in _PROVENANCE_KEYS), file=out)


def _print_quarantine_summary(load, store, out) -> None:
    """One line on unusable store lines, and how to clean them up."""
    issues = len(load.quarantined) + (1 if load.torn_tail is not None else 0)
    if issues:
        print(f"WARNING: {issues} unusable line(s) detected "
              f"(run `repro report --repair` to quarantine them to "
              f"{store.quarantine_path})", file=out)
    if os.path.exists(store.quarantine_path):
        with open(store.quarantine_path, "r", encoding="utf-8") as fh:
            count = sum(1 for line in fh if line.strip())
        print(f"quarantine sidecar: {count} line(s) in {store.quarantine_path}",
              file=out)


def _decoded_status(record) -> str:
    """A cell record's stored status, or ``undecodable`` for an ok record
    whose result does not decode (``load_suite`` counts it as failed)."""
    status = record.get("status", "?")
    if status == "ok":
        try:
            SimulationResult.from_dict(record.get("result"))
        except SimulationError:
            return "undecodable"
    return status


def _cmd_report(args, out) -> int:
    if not os.path.exists(args.store):
        print(f"error: store not found: {args.store}", file=sys.stderr)
        return 1
    store = RunStore(args.store)
    if args.repair:
        pre = store.repair()
        moved = (
            len(pre.quarantined) + len(pre.superseded)
            + (1 if pre.torn_tail is not None else 0)
        )
        if moved:
            print(f"repaired {args.store}: {moved} line(s) moved to "
                  f"{store.quarantine_path}", file=sys.stderr)
        else:
            print(f"{args.store} was already clean", file=sys.stderr)
    load = store.load_report()
    manifest, cells = load.manifest, load.cells
    if manifest is None:
        print(f"error: {args.store} contains no sweep run", file=sys.stderr)
        return 1
    if not args.timing:
        status = {key: _decoded_status(rec) for key, rec in cells.items()}
        ok = sum(1 for s in status.values() if s == "ok")
        retried = sum(1 for rec in cells.values() if rec.get("attempts", 1) > 1)
        rows = [
            [w, c, status[w, c], str(rec.get("attempts", 1)),
             _format_seconds(_cell_wall(rec))]
            for (w, c), rec in sorted(cells.items())
        ]
        print(format_table(["workload", "config", "status", "attempts", "wall"],
                           rows, title=f"store: {args.store}"), file=out)
        failed = len(cells) - ok
        print(f"{len(cells)} cells: {ok} ok, {failed} failed, {retried} retried",
              file=out)
        if failed:
            # A resume replays the ok cells only.
            print(f"{failed} failed cell(s) will re-run on --resume", file=out)
        _print_provenance(manifest, out)
        _print_quarantine_summary(load, store, out)
        return 0

    # --timing: rebuild the sweep's phase breakdown from the persisted
    # per-cell telemetry (the same numbers `sweep --trace-out` plots),
    # out of the one scan above.  An ok cell carries it at the record
    # top level, a failed cell inside its failure record.
    telemetries = {
        key: rec.get("telemetry") or (rec.get("failure") or {}).get("telemetry")
        for key, rec in sorted(cells.items())
    }
    totals = aggregate_phases(telemetries.values())
    if not totals:
        # An all-dashes table would read as "every phase took no time";
        # say what actually happened instead.
        print("no telemetry in this store (it was written before sweeps "
              "recorded every cell's phases, or no cell was executed into "
              "it)", file=out)
        return 0
    rows = []
    for (w, c), tele in telemetries.items():
        phases = (tele or {}).get("phases", {})
        rows.append(
            [w, c]
            + [_format_seconds(phases[p][1]) if p in phases else "-" for p in PHASES]
            + [_format_seconds(_cell_wall(cells[(w, c)]))]
        )
    print(
        format_table(
            ["workload", "config", *PHASES, "wall"],
            rows,
            title=f"time breakdown: {args.store}",
        ),
        file=out,
    )
    grand = sum(totals.values())
    share = ", ".join(
        f"{name} {dur:.3f}s ({dur / grand:.0%})" for name, dur in totals.items()
    )
    print(f"phase totals: {share}", file=out)
    return 0


def _trace_cache_from(args) -> TraceCache:
    root = args.cache_root if args.cache_root else default_cache_root()
    return TraceCache(root=root)


def _resolve_workload_list(spec: str) -> List[str]:
    if spec.strip() == "all":
        return list(SPEC2000)
    return [w.strip() for w in spec.split(",") if w.strip()]


def _cmd_trace(args, out) -> int:
    if args.trace_command in ("build", "prewarm"):
        # Before the cache is touched: a bad value must leave no lock
        # file or entry behind.
        check_length_warmup(args.length, args.warmup)
        total = args.length + sweep_warmup(args.length, args.warmup)
    cache = _trace_cache_from(args)
    if args.trace_command == "build":
        get_workload(args.workload)  # fail fast with a clean error
        built = cache.prewarm(args.workload, total, args.seed)
        trace = cache.get(args.workload, total, args.seed)
        state = "built" if built else "already cached"
        print(f"{args.workload}: {state} ({len(trace)} accesses, "
              f"{trace.footprint_blocks(64)} 64B blocks) in {cache.root}", file=out)
        return 0
    if args.trace_command == "inspect":
        rows = []
        for key, meta in cache.entries():
            workload = meta.get("workload", "?")
            if args.workload and workload != args.workload:
                continue
            rows.append([
                key,
                workload,
                str(meta.get("length", "?")),
                str(meta.get("seed", "?")),
                str(meta.get("generator_version", "?")),
            ])
        if not rows:
            print(f"no cache entries in {cache.root}", file=out)
            return 0
        print(format_table(["key", "workload", "length", "seed", "gen"], rows,
                           title=f"trace cache: {cache.root}"), file=out)
        return 0
    if args.trace_command == "prewarm":
        workloads = _resolve_workload_list(args.workloads)
        for name in workloads:
            get_workload(name)
        built = 0
        for name in workloads:
            if cache.prewarm(name, total, args.seed):
                built += 1
                print(f"built {name}", file=sys.stderr)
        print(f"{built} built, {len(workloads) - built} already cached "
              f"in {cache.root}", file=out)
        return 0
    if args.trace_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}", file=out)
        return 0
    return 2  # pragma: no cover — argparse enforces the choices


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "describe":
        return _cmd_describe(out)
    try:
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "compare":
            return _cmd_compare(args, out)
        if args.command == "metrics":
            return _cmd_metrics(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "paper":
            return _cmd_paper(args, out)
        if args.command == "report":
            return _cmd_report(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover — argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())

"""Set-up, measurement loop and reporting for ``perfbench/run.py``.

One run measures one workload.  Set-up synthesizes every stand-in's
trace cold into an empty private trace cache and, for ``resume``, runs
one ``paper`` campaign to write the store it replays.  The measured
phase then repeats the workload until the time budget is spent; every
repetition gets a fresh store directory, and its outputs are checked
outside the timed region.  Further set-up samples (an import in a fresh
interpreter, a cold synthesis into another empty cache) are taken at
intervals during the run.

Every timing is taken by a :class:`hostspeed.Timer`, which samples the
host's speed all through the timed block and scales the block's seconds
to a reference host speed, and is reported as the median of its
samples.  The host this benchmark was built on runs the same code up to
2x slower for stretches of under a second to minutes; the fastest
sample of a run then depends on whether the run caught a fast stretch,
and even the median follows how much of the run was slow.  The raw
median is reported too, as ``host.wall_s``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy

import repro
from repro.figures.pipeline import load_suite, run_paper
from repro.figures.registry import CONFIGS, get_spec
from repro.sim.runner import run_sweep
from repro.sim.store import RunStore
from repro.sim.sweep import CONFIG_PRESETS
from repro.traces.cache import TraceCache
from repro.traces.workloads import SPEC2000

import hostspeed
import layers
import outputs

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.realpath(repro.__file__).startswith(SRC + os.sep):
    raise ImportError(f"imported repro from {repro.__file__}, not from {SRC}")

#: Measured accesses per stand-in: the scale of ``repro paper --smoke``,
#: so that one campaign takes seconds and a run can repeat it.
LENGTH = 4_000
#: Warm-up accesses simulated before statistics start (the paper's
#: skip-then-measure ratio, as ``repro paper`` uses).
WARMUP = LENGTH // 2
#: Set-up samples per run, spread over the run: each is one import in a
#: fresh interpreter and one cold synthesis into an empty trace cache.
SETUP_REPEATS = 5
#: ``repro sweep --configs base,perfect``: batch engine, no mechanism.
PLAIN_CONFIGS = ("base", "perfect")
#: Figures a base+perfect sweep without metric banks can derive.
PLAIN_FIGURES = ("table1", "fig01", "fig02")

#: A metric as printed: ``(value, unit)``.
Metric = Tuple[float, str]


@dataclass
class Iteration:
    """One workload call and what checking its outputs found."""

    #: Seconds of wall clock, as timed.
    wall: float
    #: Seconds at the reference host speed (see :class:`hostspeed.Timer`).
    seconds: float
    #: The host's mean slowdown against the reference during the call.
    slowdown: float
    peak_rss: float
    expected: int
    #: ``{"workload:config": [problem, ...]}`` for every failed or unsound cell.
    bad_cells: Dict[str, List[str]]
    #: Checks on the call as a whole: cell counts, report and digest.
    problems: List[str]
    digest: str
    checks_passed: int
    err_fig01: float
    store_bytes: int
    #: Simulated event counts and campaign-only reproduction gaps.
    counts: Dict[str, float]
    errors: Dict[str, float]
    span_metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Cells that failed or broke an output check."""
        return len(self.bad_cells)


class Bench:
    """One workload's set-up state, shared by all its iterations."""

    def __init__(self, workload: str, seed: int, work: str, import_s: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.names = list(SPEC2000)
        configs = PLAIN_CONFIGS if workload == "plain" else tuple(CONFIGS)
        self.expected = tuple((w, c) for w in self.names for c in configs)
        self.cache: Optional[TraceCache] = None
        self.import_s = [import_s]
        self.synth_s: List[float] = []
        self.trace_bytes = 0
        self.campaign_dir = ""
        self.campaign_report = ""
        self.campaign_digest = ""

    def set_up(self) -> None:
        """Synthesize every trace cold into the private cache the iterations use.

        For ``resume``, also run the campaign whose store it replays.
        """
        self.cache = TraceCache(root=os.path.join(self.work, "traces"))
        self.synth_s.append(_synthesize(self.cache, self.names, self.seed))
        self.trace_bytes = _tree_bytes(str(self.cache.root))
        if self.workload == "resume":
            self.campaign_dir = os.path.join(self.work, "campaign")
            run = self._paper(self.campaign_dir, resume=False)
            self.campaign_report = run.report_text
            self.campaign_digest = outputs.result_digest(_store_suite(run.store_path))

    def repeat_set_up(self) -> None:
        """Take one more set-up sample; the iterations keep the first cache."""
        self.import_s.append(_time_import())
        cache = TraceCache(root=tempfile.mkdtemp(prefix="traces", dir=self.work))
        self.synth_s.append(_synthesize(cache, self.names, self.seed))
        shutil.rmtree(cache.root)

    def setup_s(self) -> float:
        """Median import plus median cold synthesis, at the reference host speed."""
        return statistics.median(self.import_s) + statistics.median(self.synth_s)

    def _paper(self, out_dir: str, resume: bool, observer: Any = None) -> Any:
        return run_paper(out_dir=out_dir, length=LENGTH, warmup=WARMUP, seed=self.seed,
                         resume=resume, workers=1, trace_cache=self.cache,
                         observer=observer, obs_history=False)

    def _plain(self, store: str, observer: Any = None) -> Any:
        return run_sweep({name: CONFIG_PRESETS[name] for name in PLAIN_CONFIGS},
                         workloads=self.names, length=LENGTH, warmup=WARMUP,
                         seed=self.seed, workers=1, store=store,
                         trace_cache=self.cache, observer=observer, obs_history=False)

    def iterate(self, tracer: Optional[layers.Tracer] = None,
                profiler: Optional[cProfile.Profile] = None) -> Iteration:
        """Run the workload once (timed), then check its outputs (untimed)."""
        if self.workload == "resume":
            out_dir = self.campaign_dir
        else:
            out_dir = tempfile.mkdtemp(prefix=self.workload, dir=self.work)
        observer = layers.CellSpans(tracer) if tracer is not None else None

        def call() -> Any:
            if self.workload == "plain":
                store = os.path.join(out_dir, "store.jsonl")
                if tracer is None:
                    return self._plain(store)
                with tracer.span("run_sweep"):
                    return self._plain(store, observer)
            return self._paper(out_dir, self.workload == "resume", observer)

        gc.collect()
        reset = _reset_peak_rss()
        root: Dict[str, Any] = {}
        # Under cProfile the timer's kernel samples are charged to the code
        # they interrupt; they land evenly in time, so shares keep.
        with hostspeed.Timer() as timer:
            if tracer is not None:
                with layers.layer_spans(tracer), tracer.span("workload") as root:
                    result = call()
            elif profiler is not None:
                profiler.enable()
                try:
                    result = call()
                finally:
                    profiler.disable()
            else:
                result = call()
        peak = _peak_rss_bytes(reset)
        it = self._check(result, out_dir, timer, peak)
        if tracer is not None:
            # Spans hold kernel samples and host slowness as the call does,
            # so they are scaled as its seconds are.
            scale = it.seconds / it.wall
            for key, value in layers.span_metrics(tracer, root, LENGTH + WARMUP).items():
                unit = _unit(key)
                if unit == "s":
                    value *= scale
                elif unit == "accesses/s":
                    value /= scale
                it.span_metrics[key] = value
        if self.workload != "resume":
            shutil.rmtree(out_dir)
        return it

    def _check(self, result: Any, out_dir: str, timer: hostspeed.Timer,
               peak: float) -> Iteration:
        problems: List[str] = []
        if self.workload == "plain":
            store = os.path.join(out_dir, "store.jsonl")
            suite = result.results
            passed = 0
            for fig in PLAIN_FIGURES:
                spec = get_spec(fig)
                passed += sum(c.passed is True for c in spec.build(spec.subset(suite)).checks)
        else:
            store = result.store_path
            suite = _store_suite(store)
            passed = sum(c.passed is True for a in result.artifacts for c in a.checks)
            if self.workload == "resume" and result.report_text != self.campaign_report:
                problems.append("regenerated report differs from the one set-up wrote")
        # A failed cell has no result, so check_cells reports it too.
        bad_cells = outputs.check_cells(suite, self.expected)
        counts = (result.executed, result.replayed)
        want = (0, len(self.expected)) if self.workload == "resume" else (len(self.expected), 0)
        if counts != want:
            problems.append(f"executed, replayed = {counts}; expected {want}")
        digest = outputs.result_digest(suite)
        if self.workload == "resume" and digest != self.campaign_digest:
            problems.append("replayed results differ from the stored campaign")
        return Iteration(wall=timer.wall, seconds=timer.seconds, slowdown=timer.slowdown,
                         peak_rss=peak, expected=len(self.expected),
                         bad_cells=bad_cells, problems=problems, digest=digest,
                         checks_passed=passed,
                         err_fig01=outputs.err_fig01(suite),
                         store_bytes=os.path.getsize(store),
                         counts=outputs.component_counts(suite),
                         errors=({} if self.workload == "plain"
                                 else outputs.campaign_errors(suite)))


def _synthesize(cache: TraceCache, names: List[str], seed: int) -> float:
    """Seconds to synthesize every stand-in's trace into *cache*."""
    with hostspeed.Timer() as timer:
        for name in names:
            cache.prewarm(name, LENGTH + WARMUP, seed)
    return timer.seconds


#: Times ``run.py``'s import of the program, in a fresh interpreter.
_IMPORT_PROBE = """\
import sys
sys.path[:0] = [{src!r}, {here!r}]
import hostspeed
with hostspeed.Timer() as timer:
    import harness
print(timer.seconds)
"""


def _time_import() -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(src=SRC, here=HERE)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def _store_suite(path: str) -> Any:
    return load_suite(RunStore(path))[0]


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark for this process (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_bytes(was_reset: bool) -> float:
    """Peak RSS since the last reset, or over the process lifetime without one."""
    if was_reset:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) * 1024
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


# -- fingerprint ---------------------------------------------------------------


def fingerprint(args: argparse.Namespace) -> Dict[str, Any]:
    """What a row depends on, so that only like rows are compared."""
    return {
        "git_rev": _git_rev(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "length": LENGTH, "warmup": WARMUP, "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
    }


def _git_rev() -> Optional[str]:
    """HEAD's commit, or None outside a git checkout (``src_sha256`` still applies)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[len("ref: "):])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest() -> str:
    """sha256 over the program's Python sources, path by path."""
    h = hashlib.sha256()
    for d, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- metrics -------------------------------------------------------------------


def end_to_end(bench: Bench, runs: List[Iteration]) -> Dict[str, Metric]:
    """The metrics a user of ``repro paper``/``repro sweep`` sees, over *runs*."""
    wall = statistics.median(r.seconds for r in _timed(runs))
    return {
        "wall_s": (wall, "s"),
        "setup_s": (bench.setup_s(), "s"),
        "accesses_per_s": (len(bench.expected) * (LENGTH + WARMUP) / wall, "accesses/s"),
        "peak_rss_mb": (statistics.median(r.peak_rss for r in runs) / 2**20, "MiB"),
        "ok_frac": (1 - sum(r.failed for r in runs) / sum(r.expected for r in runs),
                    "fraction"),
        "checks_passed": (runs[0].checks_passed, "count"),
        "err_fig01": (runs[0].err_fig01, "gain"),
    }


def per_layer(bench: Bench, untraced: List[Iteration], traced: List[Iteration],
              shares: Dict[str, float]) -> Dict[str, Metric]:
    """Layer metrics: the median traced call's spans, cProfile *shares*, counts.

    Span metrics all come from one call, so that its layer seconds and
    throughputs stay consistent with each other.
    """
    timed = _timed(traced)
    chosen = sorted(timed, key=lambda r: r.seconds)[(len(timed) - 1) // 2]
    out: Dict[str, Metric] = {
        "traces.synth_s": (statistics.median(bench.synth_s), "s"),
        "traces.bytes": (bench.trace_bytes, "bytes"),
    }
    for key, value in chosen.span_metrics.items():
        out[key] = (value, _unit(key))
    out["store.bytes"] = (chosen.store_bytes, "bytes")
    for name, value in shares.items():
        out[name] = (value, "fraction")
    for name, value in chosen.counts.items():
        out[name] = (value, "ratio" if name.endswith(("ratio", "accuracy")) else "count")
    # A plain sweep has no victim, prefetch or metric-bank cells to compare.
    for name in outputs.CAMPAIGN_ERRORS:
        out[name] = (chosen.errors.get(name, 0.0),
                     "gain" if name == "err_pf_gain" else "share")
    out["trace.overhead_frac"] = (
        statistics.median(r.seconds for r in timed)
        / statistics.median(r.seconds for r in _timed(untraced)) - 1, "fraction")
    out["host.wall_s"] = (statistics.median(r.wall for r in _timed(untraced)), "s")
    out["host.slowdown"] = (statistics.median(r.slowdown for r in _timed(untraced)), "ratio")
    return out


def _timed(runs: List[Iteration]) -> List[Iteration]:
    """The iterations whose times count: all but the first, which warms up."""
    return runs[1:] or runs


def _unit(key: str) -> str:
    if key.endswith("accesses_per_s"):
        return "accesses/s"
    if key.endswith("_frac"):
        return "fraction"
    if key.endswith(("_s", ".s")):
        return "s"
    return "count"


def _disagreements(runs: List[Iteration]) -> List[str]:
    """Outputs that must repeat exactly across every iteration of a run."""
    return [f"{label} differs across iterations"
            for label in ("digest", "checks_passed", "err_fig01", "errors")
            if len({json.dumps(getattr(r, label), sort_keys=True) for r in runs}) != 1]


def print_config_table(metrics: Dict[str, Metric]) -> None:
    """Per-config time and throughput, one column per paper configuration."""
    names = layers.CONFIG_NAMES
    print(f"  {'config':<14}" + "".join(f" {n:>14}" for n in names))
    print(f"  {'-' * 14}" + f" {'-' * 14}" * len(names))
    for label, suffix, fmt in (("seconds", "s", "{:.4f}"),
                               ("accesses/s", "accesses_per_s", "{:,.0f}")):
        row = [fmt.format(metrics[f"cfg.{n}.{suffix}"][0]) for n in names]
        print(f"  {label:<14}" + "".join(f" {cell:>14}" for cell in row))


def write_spans(path: str, stamp: Dict[str, Any], tracers: List[layers.Tracer]) -> None:
    """Write every span once, after measuring, one JSON object per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"fingerprint": stamp}) + "\n")
        for tracer in tracers:
            for span in tracer.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def run(args: argparse.Namespace, import_s: float) -> int:
    """Set up, measure for ``args.seconds``, check, and print the result line."""
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    untraced: List[Iteration] = []
    traced: List[Iteration] = []
    tracers: List[layers.Tracer] = []
    shares: Dict[str, float] = {}
    try:
        bench = Bench(args.workload, args.seed, work, import_s)
        bench.set_up()
        started = time.perf_counter()
        while not untraced or time.perf_counter() - started < args.seconds:
            # Set-up samples are spread over the run like the iterations.
            due = len(bench.synth_s) * args.seconds / SETUP_REPEATS
            if len(bench.synth_s) < SETUP_REPEATS and time.perf_counter() - started >= due:
                bench.repeat_set_up()
            untraced.append(bench.iterate())
            if args.trace:
                tracers.append(layers.Tracer(f"{args.workload}/seed{args.seed}/{len(tracers)}"))
                traced.append(bench.iterate(tracer=tracers[-1]))
        while len(bench.synth_s) < SETUP_REPEATS:
            bench.repeat_set_up()
        runs = untraced + traced
        if args.trace:
            profiler = cProfile.Profile()
            runs.append(bench.iterate(profiler=profiler))
            shares = layers.profile_shares(pstats.Stats(profiler), SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad_cells = {key: text for r in runs for key, text in r.bad_cells.items()}
    problems = sorted({text for r in runs for text in r.problems}) + _disagreements(runs)
    stamp = fingerprint(args)
    print(f"perfbench {args.workload}: seed {args.seed}, {LENGTH:,} accesses + "
          f"{WARMUP:,} warm-up per stand-in, {len(untraced)} untraced"
          + (f" + {len(traced)} traced + 1 profiled" if args.trace else "")
          + " iteration(s)")
    print("fingerprint: " + json.dumps(stamp, sort_keys=True))
    print(f"result digest: {runs[0].digest}")
    timed = _timed(untraced)
    print("wall / host slowdown samples"
          + (f" after a {untraced[0].wall:.4f} s warm-up" if timed is not untraced else "")
          + ": " + " ".join(f"{r.wall:.4f}/{r.slowdown:.3f}" for r in timed))
    for key, text in sorted(bad_cells.items()):
        print(f"CHECK FAILED {key}: {'; '.join(text)}")
    for text in problems:
        print(f"CHECK FAILED {text}")

    if args.trace:
        metrics = per_layer(bench, untraced, traced, shares)
        print_config_table(metrics)
        spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        write_spans(spans_path, stamp, tracers)
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end(bench, untraced)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": not bad_cells and not problems,
        "attempted": sum(r.expected for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0

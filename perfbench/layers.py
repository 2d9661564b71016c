"""Per-layer measurement for the traced run: spans and a cProfile split.

Spans are recorded by the benchmark around calls into the pipeline's
public layers; the program itself carries no instrumentation.  While
:func:`layer_spans` is active, the layer functions that ``run_paper``
looks up at call time (``plan_cells``, ``execute_plan``, ``load_suite``,
``render_report``, ``RunStore.load`` and each ``FigureSpec.build``) are
wrapped so that every call opens a span, and :class:`CellSpans` turns the
runner's ``SweepObserver`` callbacks into one span per cell.

The cProfile pass attributes self time to ``repro`` modules; time in
builtins, numpy and the standard library is charged to the ``repro``
code that called it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pstats
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import repro.figures.pipeline as pipeline
from repro.obs.progress import SweepObserver
from repro.sim.store import RunStore

#: The paper configurations the per-config metrics are named after.
CONFIG_NAMES = ("base", "perfect", "victim", "victim_collins", "victim_tk",
                "pf_tk", "pf_dbcp")

#: cProfile share groups: ``(metric suffix, repro module prefixes)``.
#: A module outside every group lands in ``share.other``.
SHARE_GROUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.simulator", ("repro.sim.simulator",)),
    ("sim.batch", ("repro.sim.batch",)),
    ("cache.cache", ("repro.cache.cache", "repro.cache.block", "repro.cache.replacement")),
    ("cache.hierarchy", ("repro.cache.hierarchy", "repro.cache.bus", "repro.cache.mshr")),
    ("cache.victim", ("repro.cache.victim",)),
    ("core.victim", ("repro.core.victim",)),
    ("core.prefetch", ("repro.core.prefetch",)),
    ("core.generations", ("repro.core.generations", "repro.core.metrics", "repro.core.tick")),
    ("classify", ("repro.classify",)),
    ("timing", ("repro.timing",)),
    ("traces", ("repro.traces",)),
    ("sim.store", ("repro.sim.store", "repro.common.jsonl")),
    ("sim.results", ("repro.sim.results",)),
    # Only figure derivation calls the predictors and report helpers.
    ("figures", ("repro.figures", "repro.core.predictors", "repro.analysis.report",
                 "repro.analysis.venn")),
    ("obs", ("repro.obs",)),
)
SHARE_NAMES = tuple("share." + name for name, _ in SHARE_GROUPS) + ("share.other",)


class Tracer:
    """Spans kept in memory: name, start, end, parent, run id, attributes."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record the enclosed block as one span under the innermost open one."""
        record = self.add(name, time.perf_counter(), None, **attrs)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: Optional[float], **attrs: Any) -> Dict[str, Any]:
        """Append a span measured elsewhere, parented to the innermost open span."""
        record = {
            "id": len(self.spans), "name": name, "start": start, "end": end,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id, "attrs": attrs,
        }
        self.spans.append(record)
        return record


class CellSpans(SweepObserver):
    """One span per executed cell, from the runner's observer callbacks.

    The span starts when the runner announces the attempt and lasts the
    ``elapsed`` the runner measured for the cell, so the store append
    that follows each cell stays outside it.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._started: Dict[Tuple[str, str], float] = {}

    def on_cell_start(self, workload: str, config: str, attempt: int) -> None:
        self._started.setdefault((workload, config), time.perf_counter())

    def on_cell_done(self, workload: str, config: str, ok: bool, attempts: int,
                     elapsed: float, counters: Optional[Mapping[str, float]] = None) -> None:
        start = self._started.pop((workload, config))
        engine = "unknown"
        for name in counters or {}:
            if name.startswith("sim.engine_used."):
                engine = name.rsplit(".", 1)[1]
        self.tracer.add("cell", start, start + elapsed, workload=workload,
                        config=config, engine=engine, ok=ok, attempts=attempts)


def _spanned(tracer: Tracer, name: str, fn: Any, **attrs: Any) -> Any:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def layer_spans(tracer: Tracer) -> Iterator[None]:
    """Wrap the pipeline's public layers in spans for the enclosed block."""
    select_specs = pipeline.select_specs

    def traced_specs(*args: Any, **kwargs: Any) -> List[Any]:
        return [dataclasses.replace(spec, build=_spanned(
                    tracer, "FigureSpec.build", spec.build, figure=spec.fig_id))
                for spec in select_specs(*args, **kwargs)]

    replacements = [
        (pipeline, name, _spanned(tracer, name, getattr(pipeline, name)))
        for name in ("plan_cells", "execute_plan", "load_suite", "render_report")
    ]
    replacements.append((pipeline, "select_specs", traced_specs))
    replacements.append((RunStore, "load", _spanned(tracer, "RunStore.load", RunStore.load)))
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, wrapped in replacements:
            setattr(owner, name, wrapped)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def span_metrics(tracer: Tracer, root: Dict[str, Any], accesses_per_cell: int) -> Dict[str, float]:
    """Per-layer seconds and throughputs from one traced workload call.

    *tracer* holds the spans of that call alone, under *root*.
    """
    spans = tracer.spans

    def total(names: Sequence[str]) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    cells = [s for s in spans if s["name"] == "cell"]
    out: Dict[str, float] = {}
    for engine in ("batch", "scalar"):
        chosen = [s for s in cells if s["attrs"]["engine"] == engine]
        seconds = sum(s["end"] - s["start"] for s in chosen)
        out[f"sim.{engine}.cells"] = len(chosen)
        out[f"sim.{engine}.accesses_per_s"] = (
            len(chosen) * accesses_per_cell / seconds if seconds else 0.0)
    for config in CONFIG_NAMES:
        chosen = [s for s in cells if s["attrs"]["config"] == config]
        seconds = sum(s["end"] - s["start"] for s in chosen)
        out[f"cfg.{config}.s"] = seconds
        out[f"cfg.{config}.accesses_per_s"] = (
            len(chosen) * accesses_per_cell / seconds if seconds else 0.0)
    execute = total(("execute_plan", "run_sweep"))
    out["runner.execute_s"] = execute
    out["runner.overhead_s"] = execute - total(("cell",))
    out["runner.retries"] = sum(s["attrs"]["attempts"] - 1 for s in cells)
    suite_loads = {s["id"] for s in spans if s["name"] == "load_suite"}
    out["store.load_s"] = total(("RunStore.load",))
    out["results.from_dict_s"] = total(("load_suite",)) - sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "RunStore.load" and s["parent"] in suite_loads)
    out["figures.build_s"] = total(("FigureSpec.build",))
    out["figures.render_s"] = total(("render_report",))
    wall = root["end"] - root["start"]
    attributed = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    out["trace.unattributed_frac"] = (wall - attributed) / wall
    return out


def _share_group(filename: str, src_root: str) -> Optional[str]:
    """The share group of a profiled function's file, None outside ``repro``."""
    if not filename.startswith(src_root):
        return None
    module = os.path.splitext(os.path.relpath(filename, src_root))[0].replace(os.sep, ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    for name, prefixes in SHARE_GROUPS:
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return "share." + name
    return "share.other"


def profile_shares(stats: pstats.Stats, src_root: str) -> Dict[str, float]:
    """Self time per share group, as fractions of all profiled self time.

    A function outside ``repro`` hands its self time to its callers in
    proportion to the time it spent on behalf of each, recursively, so
    ``json.dumps`` under ``RunStore`` counts as store time and numpy
    kernels count toward the ``repro`` module that launched them.
    """
    table = stats.stats  # type: ignore[attr-defined]
    src_root = os.path.join(os.path.realpath(src_root), "")
    owners: Dict[Any, Dict[str, float]] = {}
    visiting: set = set()

    def spread(func: Any, column: int) -> Dict[str, float]:
        # Blend the owners of *func*'s callers (recursion aside), weighted
        # by one column of each call edge: 2 = self time, 3 = inclusive.
        weights = {caller: edge[column] for caller, edge in table[func][4].items()
                   if caller != func}
        if not weights:
            return {"share.other": 1.0}
        grand = sum(weights.values())
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            share = weight / grand if grand else 1.0 / len(weights)
            for name, frac in owner(caller).items():
                out[name] = out.get(name, 0.0) + share * frac
        return out

    def owner(func: Any) -> Dict[str, float]:
        # Where *func*'s inclusive time belongs, as {group: fraction}.
        group = _share_group(func[0], src_root)
        if group is not None:
            return {group: 1.0}
        if func not in owners:
            if func not in table or func in visiting:
                return {"share.other": 1.0}
            visiting.add(func)
            owners[func] = spread(func, 3)
            visiting.discard(func)
        return owners[func]

    shares = dict.fromkeys(SHARE_NAMES, 0.0)
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        group = _share_group(func[0], src_root)
        for name, frac in ({group: 1.0} if group else spread(func, 2)).items():
            shares[name] += tottime * frac
    grand = sum(shares.values())
    return {name: value / grand if grand else 0.0 for name, value in shares.items()}

"""The ``repro paper`` orchestrator: specs -> sweep -> report.

:func:`run_paper` turns the figure registry into one campaign:

1. **Expand** the selected :class:`~repro.figures.spec.FigureSpec`
   entries into a deduplicated workload×config cell matrix (figures
   sharing a cell — every speedup figure's ``base``, for example — get
   it simulated exactly once).
2. **Execute** the matrix through :func:`repro.sim.runner.run_sweep`:
   checkpoint/resume via :class:`~repro.sim.store.RunStore`, the shared
   trace cache, optional worker processes, and per-cell telemetry; full
   metric banks are persisted (``store_metrics=True``).
3. **Build** every figure's dataset from the results the sweeps return
   — cells executed this run as simulated, cells replayed from the
   store as ``run_sweep`` decoded them — and render
   ``docs/REPRODUCTION.md``: paper-target vs measured tables, ASCII
   figures and pass/fail shape verdicts.  Wall-clock phase times stay
   out of the report (``repro report --timing`` shows them).

The report covers exactly the cells the campaign planned, arranged in
one fixed order (SPEC2000 workloads, then registry configs) whatever
order they finished in, and a stored result decodes to the result that
was stored, so a warm re-run over a complete store regenerates the
report byte-identically — the property CI checks.  :func:`load_suite`
rebuilds the same suite from a store alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..common.config import MachineConfig
from ..common.errors import StoreError
from ..sim.results import SimulationResult
from ..sim.runner import (
    FaultHook, check_length_warmup, check_obs_history, check_sweep_options, run_sweep,
)
from ..sim.store import RunStore
from ..traces.workloads import SPEC2000, get_workload
from .registry import CONFIGS, select_specs
from .spec import CheckResult, FigureArtifact, FigureSpec

#: Campaign defaults: the full scale of docs/REPRODUCTION.md ...
FULL_LENGTH = 60_000
#: ... and the reduced scale used by ``repro paper --smoke`` and CI.
SMOKE_LENGTH = 4_000

#: Default report/store location (``--out`` overrides the directory).
REPORT_NAME = "REPRODUCTION.md"
STORE_NAME = "paper_store.jsonl"


@dataclass
class PaperRun:
    """Everything one ``repro paper`` invocation produced."""

    artifacts: List[FigureArtifact]
    report_path: str
    store_path: str
    #: cells executed / replayed from the store this invocation.
    executed: int
    replayed: int
    failures: int
    report_text: str = ""

    @property
    def passed(self) -> bool:
        """True when every figure's shape checks held and no cell failed."""
        return self.failures == 0 and all(a.passed for a in self.artifacts)


def plan_cells(
    specs: Sequence[FigureSpec],
) -> List[Tuple[Tuple[str, ...], Dict[str, Dict[str, Any]]]]:
    """Group the specs' cells into per-workload-set sweep calls.

    Returns ``[(workloads, {config_name: config}), ...]``: each group is
    one ``run_sweep`` invocation (a full cross product), and distinct
    groups arise only when configs need different workload sets (e.g.
    the best-performer prefetch figures vs the full-suite ones).  The
    union of the groups' cross products is exactly the union of every
    spec's needed cells — nothing runs twice, nothing extra runs.
    """
    config_workloads: Dict[str, set] = {}
    for spec in specs:
        names = spec.workloads if spec.workloads is not None else tuple(SPEC2000)
        for config in spec.configs:
            config_workloads.setdefault(config, set()).update(names)
    groups: Dict[Tuple[str, ...], Dict[str, Dict[str, Any]]] = {}
    for config in CONFIGS:  # deterministic config order
        if config not in config_workloads:
            continue
        workloads = tuple(w for w in SPEC2000 if w in config_workloads[config])
        groups.setdefault(workloads, {})[config] = dict(CONFIGS[config])
    return list(groups.items())


def _ordered_suite(
    ok: Mapping[Tuple[str, str], SimulationResult],
) -> Dict[str, Dict[str, SimulationResult]]:
    """Arrange ``{(workload, config): result}`` as ``{workload: {config: result}}``.

    The order is SPEC2000 workload order, then registry config order,
    regardless of the order cells happened to finish in (one of the
    properties that make report regeneration byte-identical).
    Workloads without a result are left out.
    """
    suite: Dict[str, Dict[str, SimulationResult]] = {}
    for workload in SPEC2000:
        row = {c: ok[(workload, c)] for c in CONFIGS if (workload, c) in ok}
        if row:
            suite[workload] = row
    return suite


def load_suite(
    store: RunStore,
) -> Tuple[Dict[str, Dict[str, SimulationResult]], int]:
    """Rebuild a campaign's result suite from its checkpoint store alone.

    Returns ``({workload: {config: result}}, failed_cell_count)`` in the
    order :func:`run_paper` builds its figures from, over every cell
    the store holds.
    """
    _, cells = store.load()
    ok: Dict[Tuple[str, str], SimulationResult] = {}
    failed = 0
    for key, record in cells.items():
        if record.get("status") == "ok":
            ok[key] = SimulationResult.from_dict(record["result"])
        else:
            failed += 1
    return _ordered_suite(ok), failed


def _build_artifact(spec: FigureSpec, suite: Mapping) -> FigureArtifact:
    """Evaluate one spec, degrading missing data to a failed check."""
    try:
        return spec.build(spec.subset(suite))
    except Exception as exc:  # incomplete campaign (failed cells)
        return FigureArtifact(
            spec.fig_id,
            spec.title,
            f"(not derivable from this campaign: {exc})",
            [CheckResult("figure derivable from its cells", False, str(exc))],
        )


def execute_plan(
    groups: Sequence[Tuple[Tuple[str, ...], Dict[str, Dict[str, Any]]]],
    store: RunStore,
    *,
    length: int,
    seed: int = 0,
    warmup: Optional[int] = None,
    machine: Optional[MachineConfig] = None,
    resume: bool = False,
    retry_poisoned: bool = False,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    hang_grace: Optional[float] = None,
    trace_cache: Any = True,
    observer: Any = None,
    fault_hook: Optional[FaultHook] = None,
) -> List["Any"]:
    """Execute a :func:`plan_cells` plan into *store*, one sweep per group.

    This is the middle layer of the pipeline — no registry lookups, no
    CLI parsing, no report rendering.  *store* must be an open-able
    :class:`RunStore`; later groups always resume into it (they share
    the campaign).  Returns the per-group
    :class:`~repro.sim.runner.SweepReport` list.
    """
    resolved_warmup = warmup if warmup is not None else length // 2
    reports: List[Any] = []
    first = True
    for names, configs in groups:
        report = run_sweep(
            configs,
            workloads=list(names),
            length=length,
            seed=seed,
            machine=machine,
            warmup=resolved_warmup,
            workers=workers,
            timeout=timeout,
            retries=retries,
            hang_grace=hang_grace,
            store=store,
            # Later groups always resume into the store they share.
            resume=resume if first else True,
            retry_poisoned=retry_poisoned,
            trace_cache=trace_cache,
            observer=observer,
            fault_hook=fault_hook,
            telemetry=True,
            store_metrics=True,
        )
        reports.append(report)
        first = False
    return reports


def run_paper(
    *,
    only: Optional[Sequence[str]] = None,
    out_dir: str = "docs",
    store_path: Optional[str] = None,
    length: Optional[int] = None,
    seed: int = 0,
    warmup: Optional[int] = None,
    machine: Optional[MachineConfig] = None,
    smoke: bool = False,
    resume: bool = False,
    retry_poisoned: bool = False,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    hang_grace: Optional[float] = None,
    workloads: Optional[Sequence[str]] = None,
    trace_cache: Any = True,
    observer: Any = None,
    fault_hook: Optional[FaultHook] = None,
    write_report: bool = True,
    obs_history: Optional[bool] = None,
) -> PaperRun:
    """Reproduce the paper's evaluation end to end.

    Args:
        only: figure handles (``fig01`` ... ``table1``) to restrict the
            campaign to; default is every registered figure.
        out_dir: directory receiving ``REPRODUCTION.md`` (created if
            missing); also the default home of the checkpoint store.
        store_path: checkpoint store path (default
            ``<out_dir>/paper_store.jsonl``); its directory must exist.
        length: measured accesses per workload; defaults to
            :data:`FULL_LENGTH`, or :data:`SMOKE_LENGTH` with
            ``smoke=True``.
        seed, machine: as for :func:`repro.sim.runner.run_sweep`.
        warmup: warm-up accesses (default ``length // 2``, as the
            ablation benchmarks use).
        smoke: use the reduced CI scale when *length* is not given.
        resume: continue a previously interrupted campaign from the
            store instead of refusing to reuse it.
        retry_poisoned: re-execute cells whose stored record is a
            failure instead of quarantining them (see ``run_sweep``).
        workers, timeout, retries, hang_grace: fault-tolerance knobs
            passed through to ``run_sweep``; a value it would refuse
            is refused before *out_dir* is made.
        workloads: restrict every spec to these workloads (testing and
            smoke subsets; shape checks on absent workloads SKIP).  An
            unknown name raises :class:`~repro.common.errors.TraceError`
            before *out_dir* is made.
        trace_cache: as for ``run_sweep`` (default: shared cache on).
        observer: as for ``run_sweep``.
        fault_hook: test/chaos hook run in the worker before each cell.
        write_report: set False to skip writing ``REPRODUCTION.md``
            (the rendered text is still returned).
        obs_history: inert, kept only because perfbench passes
            ``False``; it goes with the benchmark change that drops
            that argument (see
            :func:`repro.sim.runner.check_obs_history`).

    Returns:
        A :class:`PaperRun` with per-figure artifacts and verdicts over
        exactly the cells this campaign planned, even when the store
        holds others.
    """
    check_obs_history(obs_history)
    specs = select_specs(only)
    resolved_length = length if length is not None else (
        SMOKE_LENGTH if smoke else FULL_LENGTH
    )
    # Every refusal below comes before out_dir is made, so a refused
    # campaign leaves nothing behind.
    check_length_warmup(resolved_length, warmup)
    check_sweep_options(workers=workers, retries=retries, timeout=timeout,
                        hang_grace=hang_grace)
    for name in workloads or ():
        get_workload(name)
    resolved_warmup = warmup if warmup is not None else resolved_length // 2
    if store_path:
        # RunStore does not create its directory.
        store_dir = os.path.dirname(os.path.abspath(store_path))
        if not os.path.isdir(store_dir):
            raise StoreError(f"store directory {store_dir} does not exist")
    resolved_store = store_path or os.path.join(out_dir, STORE_NAME)
    os.makedirs(out_dir, exist_ok=True)

    groups = plan_cells(specs)
    if workloads is not None:
        allowed = set(workloads)
        groups = [
            (tuple(w for w in names if w in allowed), configs)
            for names, configs in groups
        ]
        groups = [(names, configs) for names, configs in groups if names]

    store = RunStore(resolved_store)
    with store:
        group_reports = execute_plan(
            groups,
            store,
            length=resolved_length,
            seed=seed,
            warmup=resolved_warmup,
            machine=machine,
            resume=resume,
            retry_poisoned=retry_poisoned,
            workers=workers,
            timeout=timeout,
            retries=retries,
            hang_grace=hang_grace,
            trace_cache=trace_cache,
            observer=observer,
            fault_hook=fault_hook,
        )
    failures = sum(len(r.failures) for r in group_reports)
    suite = _ordered_suite({
        (workload, config): result
        for report in group_reports
        for workload, row in report.results.items()
        for config, result in row.items()
    })
    artifacts = [_build_artifact(spec, suite) for spec in specs]
    report_text = render_report(
        specs=specs,
        artifacts=artifacts,
        suite=suite,
        length=resolved_length,
        seed=seed,
        warmup=resolved_warmup,
        failed_cells=failures,
    )

    report_path = os.path.join(out_dir, REPORT_NAME)
    if write_report:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report_text)

    return PaperRun(
        artifacts=artifacts,
        report_path=report_path,
        store_path=resolved_store,
        executed=sum(r.executed for r in group_reports),
        replayed=sum(r.replayed for r in group_reports),
        failures=failures,
        report_text=report_text,
    )


def render_report(
    *,
    specs: Sequence[FigureSpec],
    artifacts: Sequence[FigureArtifact],
    suite: Mapping[str, Mapping[str, SimulationResult]],
    length: int,
    seed: int,
    warmup: int,
    failed_cells: int,
) -> str:
    """Render ``REPRODUCTION.md`` from a campaign's suite and artifacts.

    Deliberately excludes wall-clock time of any kind (timestamps, the
    per-cell phase timings the store also holds): the report is a pure
    function of the results and the registry, so a warm re-run or
    another machine regenerates it byte-identically.
    """
    lines: List[str] = []
    lines.append("# Paper Reproduction Report")
    lines.append("")
    lines.append(
        "> Generated by `repro paper` — do not edit by hand; re-run the "
        "pipeline to refresh. Built from the campaign's cells, simulated "
        "or replayed from the checkpoint store, so a warm re-run over the "
        "same store reproduces this file byte-identically."
    )
    lines.append("")
    lines.append(
        "Reproduction of the evaluation in *Timekeeping in the Memory "
        "System: Predicting and Optimizing Memory Behavior* "
        "(Hu, Kaxiras, Martonosi — ISCA 2002) on synthetic SPEC2000 "
        "stand-in traces (see DESIGN.md for the substitutions)."
    )
    lines.append("")

    cell_count = sum(len(cfgs) for cfgs in suite.values())
    lines.append("## Campaign")
    lines.append("")
    lines.append(f"- measured accesses per workload: {length:,} "
                 f"(+{warmup:,} warm-up), seed {seed}")
    lines.append(f"- workloads: {len(suite)} ({', '.join(suite)})")
    configs = sorted({c for cfgs in suite.values() for c in cfgs},
                     key=list(CONFIGS).index)
    lines.append(f"- configurations: {', '.join(configs) if configs else '(none)'}")
    lines.append(f"- cells: {cell_count} ok, {failed_cells} failed")
    lines.append("")

    lines.append("## Verdicts")
    lines.append("")
    lines.append("| figure | title | checks | verdict |")
    lines.append("|---|---|---|---|")
    for artifact in artifacts:
        done = [c for c in artifact.checks if c.passed is not None]
        passed = sum(1 for c in done if c.passed)
        skipped = len(artifact.checks) - len(done)
        counts = f"{passed}/{len(done)}" + (f" (+{skipped} skipped)" if skipped else "")
        verdict = "PASS" if artifact.passed else "FAIL"
        lines.append(f"| {artifact.fig_id} | {artifact.title} | {counts} | {verdict} |")
    lines.append("")

    for spec, artifact in zip(specs, artifacts):
        lines.append(f"## {artifact.title}")
        lines.append("")
        lines.append(f"*Paper shape:* {spec.paper_shape}.")
        lines.append("")
        lines.append("```text")
        lines.append(artifact.text)
        lines.append("```")
        lines.append("")
        lines.append("Shape checks:")
        lines.append("")
        for check in artifact.checks:
            detail = f" — {check.detail}" if check.detail else ""
            lines.append(f"- **{check.verdict()}** {check.name}{detail}")
        lines.append("")

    return "\n".join(lines)

"""Regression sentinel over the run history, plus its render surfaces.

The paper's methodology is all about watching durations drift; this
module applies the same discipline to the repo itself.  Given the
append-only history (:mod:`repro.obs.history`), :func:`check_history`
compares the **newest** record against a rolling baseline window of
prior comparable runs (same source and manifest digest) using robust
statistics — per-metric median and MAD — and flags a metric only when
it is worse than the median by **both** a relative tolerance and a
MAD-scaled deviation.  The double gate keeps the sentinel quiet on
noisy-but-stable metrics (wide MAD absorbs jitter) while still firing
on a clean 30% throughput drop against a tight baseline.

Render surfaces:

- :func:`render_dashboard` — the markdown observatory
  (``docs/OBSERVATORY.md``) with unicode sparkline trajectories;
- :func:`to_prometheus` / :func:`validate_prometheus` — the
  textfile-collector export for scraping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_WINDOW", "DEFAULT_TOLERANCE_PCT", "DEFAULT_MAD_K",
    "DEFAULT_MIN_ABS",
    "metric_direction", "Finding", "SentinelReport", "check_records",
    "check_history", "sparkline", "render_dashboard", "to_prometheus",
    "validate_prometheus",
]

#: Rolling baseline window: how many prior comparable runs to pool.
DEFAULT_WINDOW = 8

#: Relative worsening (percent vs the baseline median) below which a
#: metric is never flagged.
DEFAULT_TOLERANCE_PCT = 25.0

#: MAD multiplier: the deviation must also exceed k·MAD, so metrics
#: with genuinely noisy baselines do not fire on routine jitter.
DEFAULT_MAD_K = 3.0

#: Absolute floor: a worsening smaller than this is noise regardless of
#: its relative size.  Sub-millisecond phase timings routinely jitter
#: 30%+ between identical runs; a 27µs "regression" must not page.
DEFAULT_MIN_ABS = 1e-3

#: Wall-clock metrics (seconds) get a wider floor: smoke-scale sweeps
#: finish phases in single-digit milliseconds, where scheduler noise
#: alone exceeds any relative tolerance.
_WALL_FLOOR_S = 0.05


def _noise_floor(metric: str, min_abs: float) -> float:
    """Absolute worsening below which *metric* is considered noise."""
    if metric == "wall_time_s" or metric.startswith("phase_"):
        return max(min_abs, _WALL_FLOOR_S)
    return min_abs

#: Metrics where larger is better (exact names).
_HIGHER_BETTER = frozenset({"throughput_aps", "trace_cache_hit_rate"})

#: Metrics where smaller is better (exact names).
_LOWER_BETTER = frozenset({"wall_time_s", "cells_failed", "retries"})

#: Prefix families where smaller is better: phases must not slow down.
_LOWER_BETTER_PREFIXES = ("phase_",)


def metric_direction(name: str) -> Optional[str]:
    """``"higher"``/``"lower"`` = which way is *better*; None = unmonitored.

    Bookkeeping tallies (cell counts, engine splits) have no better
    direction, so the sentinel skips them.
    """
    if name in _HIGHER_BETTER:
        return "higher"
    if name in _LOWER_BETTER:
        return "lower"
    if name.startswith(_LOWER_BETTER_PREFIXES):
        return "lower"
    return None


def _median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mad(values: Sequence[float], center: float) -> float:
    """Median absolute deviation around *center*."""
    return _median([abs(v - center) for v in values])


def _history(metric: str, baseline: Sequence[Mapping[str, Any]]) -> List[float]:
    """*metric*'s values across the baseline runs that recorded it."""
    return [r["metrics"][metric] for r in baseline
            if metric in r.get("metrics", {})]


def _phase_moved(phase: str, newest: Mapping[str, Any],
                 baseline: Sequence[Mapping[str, Any]], min_abs: float) -> bool:
    """Whether *phase* moved off its baseline median by more than its floor.

    True when either side lacks the phase: with no scale to judge a
    derived rate by, the rate's own gates decide alone.
    """
    value = newest.get("metrics", {}).get(phase)
    history = _history(phase, baseline)
    if value is None or not history:
        return True
    return abs(value - _median(history)) > _noise_floor(phase, min_abs)


@dataclass(frozen=True)
class Finding:
    """One metric the sentinel flagged as regressed."""

    metric: str
    value: float
    median: float
    mad: float
    delta_pct: float
    direction: str

    def message(self) -> str:
        """Human one-liner for CLI output and CI logs."""
        verb = "dropped" if self.direction == "higher" else "worsened"
        return (f"{self.metric} {verb} {self.delta_pct:.1f}% vs baseline "
                f"median {self.median:.6g} (now {self.value:.6g}, "
                f"MAD {self.mad:.3g})")


@dataclass
class SentinelReport:
    """Outcome of one sentinel pass: per-metric rows plus findings."""

    source: str
    manifest_digest: str
    baseline_runs: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no monitored metric regressed."""
        return not self.findings

    def summary(self) -> str:
        """One-line verdict for CLI output."""
        verdict = ("OK" if self.passed
                   else f"REGRESSED ({len(self.findings)} metric(s))")
        return (f"obs check [{self.source}/{self.manifest_digest}]: {verdict} "
                f"— {len(self.rows)} metric(s) vs {self.baseline_runs} "
                f"baseline run(s)")


def check_records(
    records: Sequence[Mapping[str, Any]],
    *,
    window: int = DEFAULT_WINDOW,
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
    mad_k: float = DEFAULT_MAD_K,
    min_abs: float = DEFAULT_MIN_ABS,
) -> SentinelReport:
    """Compare the last record in *records* against the window before it.

    *records* must already be filtered to comparable runs (same source
    and manifest digest, chronological order) — :func:`check_history`
    does that from a store.  With no baseline runs the check passes
    vacuously (a note records why): the first run of a new
    configuration cannot regress against anything.

    A metric is flagged only when it clears all three gates: the
    relative shift exceeds *tolerance_pct*, the absolute shift exceeds
    both ``mad_k`` baseline MADs and *min_abs*.  A rate derived from a
    timed phase (``throughput_aps``) must also see that phase move by
    more than the phase floor.
    """
    newest = records[-1]
    report = SentinelReport(
        source=str(newest.get("source", "?")),
        manifest_digest=str(newest.get("manifest_digest", "?")),
        baseline_runs=0,
    )
    baseline = list(records[max(0, len(records) - 1 - window):-1])
    report.baseline_runs = len(baseline)
    if not baseline:
        report.notes.append("no baseline runs yet; nothing to compare against")
        return report
    for metric, value in sorted(newest.get("metrics", {}).items()):
        direction = metric_direction(metric)
        if direction is None:
            continue
        history = _history(metric, baseline)
        if not history:
            report.notes.append(f"{metric}: new metric, no baseline")
            continue
        med = _median(history)
        mad = _mad(history, med)
        worse = (med - value) if direction == "higher" else (value - med)
        if med:
            delta_pct = worse / abs(med) * 100.0
        else:
            # Baseline median of zero (e.g. cells_failed): any
            # worsening is an infinite relative regression.
            delta_pct = float("inf") if worse > 0 else 0.0
        flagged = (delta_pct > tolerance_pct and worse > mad_k * mad
                   and worse > _noise_floor(metric, min_abs))
        if flagged and metric == "throughput_aps":
            # A rate has no absolute scale of its own — accesses/s over a
            # 1,600-access sweep swings 35% on a millisecond of jitter —
            # so it is judged by the phase it is derived from.
            flagged = _phase_moved("phase_simulate_s", newest, baseline,
                                   min_abs)
        report.rows.append({
            "metric": metric, "value": value, "median": med, "mad": mad,
            "delta_pct": delta_pct, "direction": direction,
            "status": "REGRESSED" if flagged else "ok",
        })
        if flagged:
            report.findings.append(Finding(
                metric=metric, value=value, median=med, mad=mad,
                delta_pct=delta_pct, direction=direction,
            ))
    return report


def check_history(
    store: "Any",
    *,
    source: Optional[str] = None,
    window: int = DEFAULT_WINDOW,
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
    mad_k: float = DEFAULT_MAD_K,
    min_abs: float = DEFAULT_MIN_ABS,
) -> SentinelReport:
    """Sentinel pass over an :class:`~repro.obs.history.ObsStore`.

    Picks the newest record (optionally restricted to *source*), then
    pools the baseline from prior records with the same source **and**
    manifest digest — different experiments never contaminate each
    other's baselines.  Raises :class:`ValueError` on an empty history
    so the CLI can turn it into a clean error.
    """
    records = store.runs(source=source)
    if not records:
        raise ValueError(
            f"history {store.path} has no records"
            + (f" from source {source!r}" if source else ""))
    newest = records[-1]
    comparable = [r for r in records
                  if r.get("source") == newest.get("source")
                  and r.get("manifest_digest") == newest.get("manifest_digest")]
    return check_records(comparable, window=window,
                         tolerance_pct=tolerance_pct, mad_k=mad_k,
                         min_abs=min_abs)


# -- dashboard ---------------------------------------------------------------

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of *values* (min–max normalized)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK[3] * len(values)
    span = hi - lo
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * len(_SPARK)))]
        for v in values)


def _group_records(
    records: Iterable[Mapping[str, Any]],
) -> Dict[Tuple[str, str], List[Mapping[str, Any]]]:
    """Bucket records by (source, manifest digest), append order kept."""
    groups: Dict[Tuple[str, str], List[Mapping[str, Any]]] = {}
    for record in records:
        key = (str(record.get("source", "?")),
               str(record.get("manifest_digest", "?")))
        groups.setdefault(key, []).append(record)
    return groups


def render_dashboard(
    records: Sequence[Mapping[str, Any]],
    *,
    window: int = 20,
    title: str = "Run-history observatory",
) -> str:
    """Markdown dashboard: one section per (source, manifest) group.

    Each monitored-or-not metric gets its latest value, the median of
    the trailing *window*, and a sparkline trajectory — the repo's own
    durations, watched the way the paper watches cache intervals.
    """
    lines = [f"# {title}", ""]
    lines.append(f"{len(records)} run record(s). Newest first per group; "
                 f"sparklines show the trailing {window} runs "
                 f"(oldest → newest).")
    if not records:
        lines += ["", "_No run records yet — arm a sweep with "
                  "`--obs-history` to start the trajectory._"]
        return "\n".join(lines) + "\n"
    groups = _group_records(records)
    ordered = sorted(groups.items(),
                     key=lambda kv: kv[1][-1].get("ts", 0), reverse=True)
    for (source, digest), group in ordered:
        tail = group[-window:]
        latest = tail[-1]
        lines += [
            "",
            f"## `{source}` · manifest `{digest}`",
            "",
            f"- runs: {len(group)} (showing {len(tail)})",
            f"- latest: {latest.get('utc', '?')} · git `"
            f"{latest.get('git_rev', '?')}` · host "
            f"`{latest.get('host', '?')}`",
            "",
            "| metric | latest | median | trend |",
            "| --- | ---: | ---: | --- |",
        ]
        metric_names = sorted({name for r in tail
                               for name in r.get("metrics", {})})
        for name in metric_names:
            series = [r["metrics"][name] for r in tail
                      if name in r.get("metrics", {})]
            latest_v = series[-1]
            med = _median(series)
            lines.append(f"| `{name}` | {latest_v:.6g} | {med:.6g} "
                         f"| {sparkline(series)} |")
    return "\n".join(lines) + "\n"


# -- Prometheus textfile export ----------------------------------------------

def _prom_name(metric: str) -> str:
    """Sanitize a metric name into a Prometheus identifier."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in metric)
    if not safe or not (safe[0].isalpha() or safe[0] == "_"):
        safe = "_" + safe
    return f"repro_{safe}"


def _prom_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def to_prometheus(records: Sequence[Mapping[str, Any]]) -> str:
    """Textfile-collector exposition of the latest record per group.

    Every metric becomes a ``repro_``-prefixed gauge labelled by
    source, manifest digest, git revision, and host; a companion
    ``repro_obs_last_run_timestamp_seconds`` gauge lets alerting catch
    a history that silently stopped updating.
    """
    latest = {key: group[-1]
              for key, group in _group_records(records).items()}
    by_name: Dict[str, List[str]] = {}
    for (source, digest), record in sorted(latest.items()):
        labels = (f'source="{_prom_label(source)}",'
                  f'manifest="{_prom_label(digest)}",'
                  f'git_rev="{_prom_label(str(record.get("git_rev", "?")))}",'
                  f'host="{_prom_label(str(record.get("host", "?")))}"')
        for metric, value in sorted(record.get("metrics", {}).items()):
            name = _prom_name(metric)
            by_name.setdefault(name, []).append(
                f"{name}{{{labels}}} {float(value):g}")
        ts_name = "repro_obs_last_run_timestamp_seconds"
        by_name.setdefault(ts_name, []).append(
            f"{ts_name}{{{labels}}} {float(record.get('ts', 0)):.3f}")
    lines: List[str] = []
    for name in sorted(by_name):
        lines.append(f"# HELP {name} repro run-history metric {name}")
        lines.append(f"# TYPE {name} gauge")
        lines.extend(by_name[name])
    return "\n".join(lines) + ("\n" if lines else "")


def validate_prometheus(text: str) -> List[str]:
    """Schema-check an exposition payload; returns problem strings.

    Dependency-free validation of what the textfile collector
    actually enforces: identifier syntax, one ``HELP``/``TYPE`` pair
    before a family's samples, parseable float values, balanced label
    braces.  An empty list means the payload is scrape-ready.
    """
    import re

    problems: List[str] = []
    name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(\{([a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*\})?"
        r" (?P<value>\S+)$")
    typed: Dict[str, str] = {}
    helped: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not name_re.fullmatch(parts[2]):
                problems.append(f"line {lineno}: malformed HELP line")
            else:
                helped[parts[2]] = parts[3]
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[3] not in (
                    "gauge", "counter", "histogram", "summary", "untyped"):
                problems.append(f"line {lineno}: malformed TYPE line")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = sample_re.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name = match.group(1)
        if name not in typed:
            problems.append(f"line {lineno}: sample for {name} before its "
                            f"TYPE line")
        if name not in helped:
            problems.append(f"line {lineno}: sample for {name} before its "
                            f"HELP line")
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric value {match.group('value')!r}")
    return problems

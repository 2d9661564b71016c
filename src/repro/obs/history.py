"""Cross-run observability history: the append-only ``ObsStore``.

PR 4's telemetry evaporates when the process exits; this module makes
it durable.  Every instrumented entry point — ``run_sweep`` and
``run_paper`` — appends **one record per run** to a shared history
file, keyed by (manifest digest, git rev, host fingerprint, UTC
timestamp), so trajectories across runs become first-class data: the
regression sentinel (:mod:`repro.obs.sentinel`) compares the newest
record against a rolling baseline window, and ``repro obs report``
renders the trajectory dashboard.

The file format is the same crash-safe JSONL discipline as the sweep
checkpoint store, built on :class:`~repro.common.jsonl.JsonlJournal`:
fsynced appends, an advisory writer lock, a quarantine sidecar for
corrupt interior lines, and tolerance for the torn final line a crash
mid-append leaves behind.  Unlike :class:`~repro.sim.store.RunStore`,
writers are **short-lived**: :meth:`ObsStore.append_run` takes the
lock, heals any damage, appends, and releases — many processes can
share one history file as long as their appends do not overlap, and a
briefly-held lock is retried rather than fatal.

Records are self-describing::

    {"kind": "obs_run", "version": 1, "source": "sweep",
     "ts": ..., "utc": "...", "git_rev": "...", "host": "...",
     "host_fingerprint": "...", "manifest_digest": "...",
     "metrics": {"throughput_aps": ..., "wall_time_s": ..., ...},
     "profile": {...}?}

``metrics`` is a flat name→number mapping — the unit the sentinel
and the exporters consume.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time as _time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from ..common.errors import StoreError, StoreLockedError
from ..common.jsonl import JsonlJournal, LineIssue, PathLike

__all__ = [
    "OBS_VERSION", "HISTORY_ENV", "ObsLoadReport", "ObsStore",
    "git_revision", "host_fingerprint", "build_run_record",
    "sweep_run_record", "paper_run_record", "resolve_history",
    "append_best_effort",
]

#: History format version written into every record.
OBS_VERSION = 1

#: Environment variable that arms history appends without CLI flags.
HISTORY_ENV = "REPRO_OBS_HISTORY"

#: Keys every usable record must carry.
_REQUIRED_KEYS = ("kind", "version", "source", "ts", "metrics")


@dataclass
class ObsLoadReport:
    """Everything one scan of a history file found."""

    path: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    quarantined: List[LineIssue] = field(default_factory=list)
    torn_tail: Optional[LineIssue] = None
    total_lines: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing needed quarantining and the tail is whole."""
        return not self.quarantined and self.torn_tail is None

    def summary(self) -> str:
        """One-line human digest, shared by the CLI and tests."""
        parts = [f"{self.total_lines} lines: {len(self.records)} run record(s)"]
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.torn_tail is not None:
            parts.append("torn trailing line")
        return "; ".join(parts)


class ObsStore(JsonlJournal):
    """Append-only, crash-safe run-history file.

    Writers are short-lived: each :meth:`append_run` acquires the
    advisory lock (retrying briefly on contention, because healthy
    concurrent runs only hold it for one append), repairs any torn
    tail or corrupt interior lines, appends one fsynced record, and
    releases.  Readers never need the lock.
    """

    lock_hint = ("history appends hold the lock only briefly; "
                 "retry, or use distinct history files")

    # -- reading -------------------------------------------------------------

    def load_report(self) -> ObsLoadReport:
        """Scan the history and classify every line; never raises on corruption.

        Raises :class:`StoreError` only for an unreadable file or a
        record whose format version is newer than this build reads.
        """
        report = ObsLoadReport(path=self.path)
        if not os.path.exists(self.path):
            return report
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise StoreError(f"cannot read store {self.path}: {exc}") from exc
        report.total_lines = len(lines)
        last = len(lines) - 1
        for lineno, line in enumerate(lines):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
                kind = record["kind"]
            except (ValueError, TypeError, KeyError) as exc:
                issue = LineIssue(lineno + 1, f"undecodable line ({exc!r})", text)
                if lineno == last:
                    # Crash mid-append: tolerated, the run record is
                    # simply lost (runs re-append, they never resume).
                    report.torn_tail = issue
                else:
                    report.quarantined.append(issue)
                continue
            if kind != "obs_run":
                report.quarantined.append(
                    LineIssue(lineno + 1, f"unknown record kind {kind!r}", text))
                continue
            version = record.get("version")
            if not isinstance(version, int) or version > OBS_VERSION:
                raise StoreError(
                    f"{self.path}:{lineno + 1}: unsupported history version "
                    f"{version!r} (this build reads <= {OBS_VERSION})"
                )
            missing = [k for k in _REQUIRED_KEYS if k not in record]
            if missing:
                report.quarantined.append(
                    LineIssue(lineno + 1,
                              f"run record missing {missing}", text))
                continue
            report.records.append(record)
        return report

    def runs(self, *, source: Optional[str] = None,
             manifest_digest: Optional[str] = None) -> List[Dict[str, Any]]:
        """Usable records in append (chronological) order, optionally filtered."""
        records = self.load_report().records
        if source is not None:
            records = [r for r in records if r.get("source") == source]
        if manifest_digest is not None:
            records = [r for r in records
                       if r.get("manifest_digest") == manifest_digest]
        return records

    # -- writing -------------------------------------------------------------

    def append_run(self, record: Mapping[str, Any], *,
                   lock_timeout: float = 10.0) -> None:
        """Append one run record: lock (with retry), heal, write, release.

        Contention is expected — two sweeps finishing at once — so
        :class:`StoreLockedError` is retried until *lock_timeout*
        seconds have elapsed, then re-raised.  Damage found under the
        lock is quarantined/compacted before the append so the new
        record never lands on a tear.
        """
        deadline = _time.monotonic() + lock_timeout
        while True:
            try:
                self._acquire_lock()
                break
            except StoreLockedError:
                if _time.monotonic() >= deadline:
                    raise
                _time.sleep(0.05)
        try:
            report = self.load_report()
            if not report.clean:
                issues = list(report.quarantined)
                if report.torn_tail is not None:
                    issues.append(report.torn_tail)
                self._quarantine_issues(issues)
                self._atomic_rewrite(report.records)
            self._open_append()
            data = (json.dumps(dict(record), separators=(",", ":"))
                    + "\n").encode("utf-8")
            self._append_bytes(data)
        finally:
            self.close()


# -- record construction -----------------------------------------------------

def git_revision(repo_dir: Optional[str] = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``.

    Honors ``REPRO_GIT_REV`` (useful in containers without git
    metadata); otherwise shells out to ``git rev-parse`` with a short
    timeout so history appends never hang on a wedged VCS.
    """
    env_rev = os.environ.get("REPRO_GIT_REV")
    if env_rev:
        return env_rev
    if repo_dir is None:
        repo_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=2.0,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def host_fingerprint() -> Dict[str, str]:
    """Stable identity of the measuring host: name plus a short hash.

    The hash folds in the machine architecture and Python version, so
    records from the same hostname after an interpreter upgrade stop
    comparing as baselines once a consumer groups by fingerprint.
    """
    node = platform.node() or "unknown-host"
    raw = "|".join((node, platform.machine(), platform.python_version()))
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]
    return {"host": node, "host_fingerprint": digest}


def build_run_record(
    *,
    source: str,
    metrics: Mapping[str, float],
    manifest_digest: str,
    profile: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one self-describing history record.

    *metrics* must be a flat name→number mapping; non-finite and
    non-numeric values are dropped rather than poisoning the sentinel
    statistics downstream.
    """
    now = _time.time()
    clean_metrics: Dict[str, float] = {}
    for name, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value != value or value in (float("inf"), float("-inf")):
            continue
        clean_metrics[name] = value
    record: Dict[str, Any] = {
        "kind": "obs_run",
        "version": OBS_VERSION,
        "source": source,
        "ts": round(now, 3),
        "utc": datetime.fromtimestamp(now, tz=timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "git_rev": git_revision(),
        **host_fingerprint(),
        "manifest_digest": manifest_digest,
        "metrics": clean_metrics,
    }
    if profile:
        record["profile"] = dict(profile)
    if extra:
        record.update(extra)
    return record


def _reports_metrics(reports: Iterable["Any"]) -> Dict[str, float]:
    """Fold one or more SweepReports into a flat metrics mapping.

    The trajectory-worthy signals: wall time, cell outcomes, mean
    per-cell simulator throughput, trace-cache hit rate, phase totals
    and the engine tally.
    """
    from .metrics import aggregate_phases

    metrics: Dict[str, float] = {
        "wall_time_s": 0.0, "cells_ok": 0.0, "cells_failed": 0.0,
        "cells_executed": 0.0, "cells_replayed": 0.0, "retries": 0.0,
    }
    hits = lookups = 0
    aps: List[float] = []
    all_cell_teles: List[Mapping[str, Any]] = []
    for report in reports:
        metrics["wall_time_s"] += float(report.wall_time)
        metrics["cells_ok"] += float(report.ok_cells)
        metrics["cells_failed"] += float(len(report.failures))
        metrics["cells_executed"] += float(report.executed)
        metrics["cells_replayed"] += float(report.replayed)
        metrics["retries"] += float(report.retried)
        tele = report.telemetry or {}
        counters = tele.get("counters", {})
        hits += counters.get("trace_cache.hit", 0)
        lookups += (counters.get("trace_cache.hit", 0)
                    + counters.get("trace_cache.miss", 0))
        cell_teles = [ct for ct in report.cell_telemetry.values() if ct]
        all_cell_teles.extend(cell_teles)
        aps.extend(a for a in (ct.get("gauges", {})
                               .get("simulator.accesses_per_sec")
                               for ct in cell_teles) if a)
        for name, value in counters.items():
            if name.startswith("sim.engine_used."):
                key = "engine_" + name.rsplit(".", 1)[1]
                metrics[key] = metrics.get(key, 0.0) + float(value)
    if lookups:
        metrics["trace_cache_hit_rate"] = hits / lookups
    if aps:
        metrics["throughput_aps"] = sum(aps) / len(aps)
    for phase, total in aggregate_phases(all_cell_teles).items():
        metrics[f"phase_{phase}_s"] = total
    return metrics


def sweep_run_record(
    report: "Any",
    *,
    manifest_digest: str,
    source: str = "sweep",
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Distill a :class:`~repro.sim.runner.SweepReport` into one record."""
    profile = (report.telemetry or {}).get("profile")
    return build_run_record(
        source=source, metrics=_reports_metrics([report]),
        manifest_digest=manifest_digest, profile=profile, extra=extra,
    )


def paper_run_record(
    reports: Iterable["Any"],
    *,
    manifest_digest: str,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Distill a whole ``repro paper`` campaign into one record.

    The campaign runs one sweep per figure group over a shared store;
    rather than one history record per group (whose composition shifts
    with ``--only``), the pipeline appends a single aggregated record
    under source ``"paper"``.
    """
    return build_run_record(
        source="paper", metrics=_reports_metrics(reports),
        manifest_digest=manifest_digest, extra=extra,
    )


HistoryLike = Union[None, bool, ObsStore, PathLike]


def resolve_history(value: HistoryLike) -> Optional[ObsStore]:
    """Resolve a caller's history argument to an :class:`ObsStore` or None.

    ``None`` consults the :data:`HISTORY_ENV` environment variable (so
    CI can arm every run without plumbing flags); ``False`` disables
    history even when the variable is set (how ``run_paper`` keeps its
    per-group sweeps from double-recording); a path or an existing
    store is used directly.
    """
    if value is False:
        return None
    if isinstance(value, ObsStore):
        return value
    if value is None or value is True:
        env = os.environ.get(HISTORY_ENV)
        if not env:
            return None
        return ObsStore(env)
    return ObsStore(value)


def append_best_effort(history: Optional[ObsStore],
                       record: Mapping[str, Any]) -> Optional[str]:
    """Append *record*, demoting failures to a returned warning string.

    Observability must never kill a completed run: a locked or
    unwritable history file costs the record, not the sweep.  Returns
    the warning to surface (``None`` on success or when *history* is
    None).
    """
    if history is None:
        return None
    try:
        history.append_run(record)
    except (StoreError, OSError) as exc:
        return f"warning: could not append run history to {history.path}: {exc}"
    return None

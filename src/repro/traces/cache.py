"""Content-addressed trace cache.

Synthesizing a workload trace is deterministic in (workload name,
length, seed, generator version) — so a sweep never needs to do it more
than once per workload, and repeated sweeps never need to do it at all.
This module persists materialized traces under a digest of exactly that
recipe and serves them back as mmap-backed arrays: workers across a
sweep (and across sweeps) share one on-disk materialization, loaded
zero-copy.

Layout of one entry (``<root>/<key>/``)::

    meta.json        recipe, column digests, length — the commit point
    addresses.npy    int64 column        (written before meta, mmapped
    pcs.npy          int64 column         read-only on load)
    kinds.npy        int8  column
    gaps.npy         int32 column

Integrity: ``meta.json`` records a sha256 digest of each column file.
On load, any defect — missing/truncated/corrupt column, digest
mismatch, stale generator version, recipe mismatch (a digest collision
or a hand-edited entry) — makes the entry a *miss*: it is discarded and
rebuilt, never silently served.  Writes go through a temp directory and
``os.replace`` per file with ``meta.json`` renamed last, so concurrent
writers of the same key are safe (they write identical bytes) and a
crashed writer leaves no visible entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..common.errors import TraceError
from ..faults.injector import current_injector
from ..obs.metrics import current as current_telemetry
from .trace import COLUMN_DTYPES, Trace
from .workloads import GENERATOR_VERSION, build_workload

try:  # build locking is POSIX-only; elsewhere concurrent builds just race
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "REPRO_TRACE_CACHE"

#: Bumped when the on-disk entry layout changes (distinct from
#: GENERATOR_VERSION, which tracks the synthesis pipelines).
CACHE_FORMAT = 1

_COLUMN_FILES = ("addresses.npy", "pcs.npy", "kinds.npy", "gaps.npy")


def default_cache_root() -> Path:
    """The cache directory: ``$REPRO_TRACE_CACHE`` or ``~/.cache/repro/traces``."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "traces"


def trace_key(workload: str, length: int, seed: int,
              generator_version: int = GENERATOR_VERSION) -> str:
    """Content address of a trace recipe.

    The key is a digest of everything that determines the trace's bytes:
    workload name, length, seed, and the synthesis-pipeline version.
    """
    recipe = f"{CACHE_FORMAT}:{workload}:{length}:{seed}:{generator_version}"
    return hashlib.sha256(recipe.encode()).hexdigest()[:24]


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class TraceCache:
    """A directory of content-addressed trace materializations.

    Args:
        root: Cache directory (created lazily on first write).
        verify: Check column digests on every load.  Costs one linear
            hash pass per load; turn off only for trusted local roots.

    The cache keeps no counters of its own; it records into the ambient
    :mod:`~repro.obs.metrics` telemetry.  Every :meth:`get` counts a
    ``trace_cache.hit`` or ``trace_cache.miss`` (every kind of
    validation failure is a miss).  Rarer occurrences are events,
    counted and written to the collector's log: a
    ``trace_cache.integrity_failure`` is a miss whose entry *existed on
    disk* but failed validation (digest mismatch, truncated column,
    stale generator version, recipe mismatch), a
    ``trace_cache.rebuild`` a trace synthesized by :meth:`get_or_build`.
    """

    root: Path = field(default_factory=default_cache_root)
    verify: bool = True
    #: Age in seconds past which a leftover ``.tmp`` write directory (a
    #: crashed writer's residue) is deleted on open; 0 deletes any.
    stale_after: float = 3600.0

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self._clean_stale_tmp()

    def _clean_stale_tmp(self) -> None:
        """Delete write-temp directories a crashed writer stranded.

        A writer that died mid-:meth:`put` (kill -9, OOM) leaves a
        dot-prefixed temp directory behind; it is invisible to lookups
        but leaks disk forever.  Anything older than ``stale_after`` is
        safe to remove — live writers finish in seconds.
        """
        if not self.root.is_dir():
            return
        cutoff = time.time() - self.stale_after
        removed = 0
        for child in self.root.iterdir():
            if not (child.name.startswith(".") and child.is_dir()):
                continue
            try:
                if child.stat().st_mtime <= cutoff:
                    _rmtree_quiet(child)
                    removed += 1
            except OSError:  # pragma: no cover — raced with another cleaner
                continue
        if removed:
            current_telemetry().event(
                "trace_cache.stale_tmp_removed", root=str(self.root), count=removed,
            )

    # -- lookup -------------------------------------------------------------

    def get(self, workload: str, length: int, seed: int) -> Optional[Trace]:
        """Load a cached trace, or None if absent/invalid (a miss)."""
        injector = current_injector()
        if injector.armed:
            injector.on_event("cache.read", workload=workload,
                              length=length, seed=seed)
        key = trace_key(workload, length, seed)
        entry = self.root / key
        trace, reason = self._load(entry, workload, length, seed)
        tele = current_telemetry()
        if trace is not None:
            tele.count("trace_cache.hit")
            return trace
        tele.count("trace_cache.miss")
        if reason is not None and (entry / "meta.json").exists():
            # The entry was present but unservable: corruption, a stale
            # generator, or a hand-edited/colliding recipe.
            tele.event(
                "trace_cache.integrity_failure",
                workload=workload, length=length, seed=seed, key=key, reason=reason,
            )
        return None

    def _load(
        self, entry: Path, workload: str, length: int, seed: int
    ) -> Tuple[Optional[Trace], Optional[str]]:
        """(trace, None) on success; (None, reason) on any failure."""
        meta = self._load_valid_meta(entry, workload, length, seed)
        if meta is None:
            return None, "missing or invalid meta.json"
        columns = []
        for fname, dtype, digest in zip(_COLUMN_FILES, COLUMN_DTYPES, meta["digests"]):
            path = entry / fname
            if self.verify:
                try:
                    if _file_digest(path) != digest:
                        return None, f"digest mismatch for {fname}"
                except OSError:
                    return None, f"unreadable column {fname}"
            try:
                col = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError):
                return None, f"unloadable column {fname}"
            if col.dtype != dtype or col.ndim != 1 or col.shape[0] != length:
                return None, f"malformed column {fname}"
            columns.append(col)
        try:
            trace = Trace(*columns, name=workload, total_gap=meta.get("total_gap"))
        except TraceError as exc:  # values no trace may hold
            return None, str(exc)
        return trace, None

    def _load_valid_meta(self, entry: Path, workload: str, length: int,
                         seed: int) -> Optional[dict]:
        try:
            with open(entry / "meta.json", "r", encoding="utf-8") as f:
                meta = json.load(f)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("format") != CACHE_FORMAT
            or meta.get("generator_version") != GENERATOR_VERSION
            or meta.get("workload") != workload
            or meta.get("length") != length
            or meta.get("seed") != seed
            or not isinstance(meta.get("digests"), list)
            or len(meta["digests"]) != len(_COLUMN_FILES)
        ):
            return None
        return meta

    # -- store --------------------------------------------------------------

    def put(self, trace: Trace, workload: str, length: int, seed: int) -> Path:
        """Persist a materialized trace; returns the entry directory."""
        if len(trace) != length:
            raise TraceError(
                f"trace length {len(trace)} does not match recipe length {length}"
            )
        key = trace_key(workload, length, seed)
        entry = self.root / key
        self.root.mkdir(parents=True, exist_ok=True)
        arrays = trace.to_arrays()
        tmpdir = Path(tempfile.mkdtemp(dir=self.root, prefix=f".{key}."))
        try:
            digests = []
            for fname, arr in zip(_COLUMN_FILES, arrays):
                path = tmpdir / fname
                with open(path, "wb") as f:
                    np.save(f, np.ascontiguousarray(arr))
                    f.flush()
                    os.fsync(f.fileno())
                digests.append(_file_digest(path))
            meta = {
                "format": CACHE_FORMAT,
                "generator_version": GENERATOR_VERSION,
                "workload": workload,
                "length": length,
                "seed": seed,
                "total_gap": trace.total_gap_cycles,
                "digests": digests,
            }
            payload = json.dumps(meta, indent=1).encode("utf-8")
            after = None
            injector = current_injector()
            if injector.armed:
                payload, after = injector.on_write(
                    "cache.write", payload, workload=workload,
                    length=length, seed=seed,
                )
            # fsync before the renames: os.replace orders the entry into
            # existence, but only a flushed meta.json makes the commit
            # point durable across power loss.
            with open(tmpdir / "meta.json", "wb") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            if after is not None:
                after()  # injected torn meta write: crash before the commit
            entry.mkdir(exist_ok=True)
            for fname in _COLUMN_FILES:  # meta.json last: it's the commit point
                os.replace(tmpdir / fname, entry / fname)
            os.replace(tmpdir / "meta.json", entry / "meta.json")
        finally:
            _rmtree_quiet(tmpdir)
        return entry

    def get_or_build(self, workload: str, length: int, seed: int) -> Trace:
        """The main entry point: cached trace, or build + persist + reload.

        The freshly built trace is persisted and then *re-loaded from
        the cache* so callers always get the same mmap-backed form warm
        and cold.  If the cache directory is unusable (read-only FS,
        quota), falls back to returning the built trace directly —
        caching degrades, correctness doesn't.

        Concurrent callers missing on the same key coordinate through a
        per-entry advisory lock: one builds, the rest block and then
        serve the freshly committed entry instead of redoing the
        synthesis (``trace_cache.build_lock_wait`` counts the waiters).
        """
        return self._get_or_build(workload, length, seed)[0]

    def prewarm(self, workload: str, length: int, seed: int) -> bool:
        """Ensure an entry exists; True if this call had to build it."""
        return self._get_or_build(workload, length, seed)[1]

    def _get_or_build(self, workload: str, length: int,
                      seed: int) -> Tuple[Trace, bool]:
        """:meth:`get_or_build`'s trace, and whether this call built it."""
        cached = self.get(workload, length, seed)
        if cached is not None:
            return cached, False
        with self._build_lock(trace_key(workload, length, seed)) as waited:
            if waited:
                # Another process held the build lock; its entry may have
                # landed while we blocked.
                cached = self.get(workload, length, seed)
                if cached is not None:
                    return cached, False
            trace = build_workload(workload, length=length, seed=seed)
            current_telemetry().event(
                "trace_cache.rebuild", workload=workload, length=length, seed=seed,
            )
            try:
                self.put(trace, workload, length, seed)
            except OSError:
                return trace, True
        reloaded = self.get(workload, length, seed)
        return (reloaded if reloaded is not None else trace), True

    def _build_lock(self, key: str) -> "_EntryLock":
        """Advisory per-entry lock serializing rebuilds of one key."""
        return _EntryLock(self.root / f".{key}.lock")

    # -- maintenance --------------------------------------------------------

    def entries(self) -> Iterator[Tuple[str, dict]]:
        """Yield (key, meta) for every readable entry under the root."""
        if not self.root.is_dir():
            return
        for child in sorted(self.root.iterdir()):
            if not child.is_dir() or child.name.startswith("."):
                continue
            try:
                with open(child / "meta.json", "r", encoding="utf-8") as f:
                    meta = json.load(f)
            except (OSError, ValueError):
                meta = {}
            yield child.name, meta

    def remove(self, workload: str, length: int, seed: int) -> bool:
        """Delete one entry; True if it existed."""
        entry = self.root / trace_key(workload, length, seed)
        if not entry.is_dir():
            return False
        _rmtree_quiet(entry)
        return True

    def clear(self) -> int:
        """Delete every entry under the root; returns the count removed."""
        count = 0
        if not self.root.is_dir():
            return count
        for child in list(self.root.iterdir()):
            if child.is_dir():
                _rmtree_quiet(child)
                count += 1
        return count


class _EntryLock:
    """Context manager flocking one cache entry's ``.lock`` sidecar.

    ``__enter__`` returns True when the lock was contended (we blocked
    behind another builder — re-check the cache before building).
    Degrades to a no-op when ``fcntl`` is unavailable or the lock file
    cannot be created (read-only root): builds then race, which is
    merely wasteful — writers commit identical bytes atomically.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fh = None

    def __enter__(self) -> bool:
        if fcntl is None:
            return False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a+", encoding="utf-8")
        except OSError:
            self._fh = None
            return False
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            return False
        except OSError:
            current_telemetry().count("trace_cache.build_lock_wait")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
            return True

    def __exit__(self, *exc: object) -> None:
        if self._fh is not None:
            try:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            finally:
                self._fh.close()
                self._fh = None


def _rmtree_quiet(path: Path) -> None:
    import shutil

    shutil.rmtree(path, ignore_errors=True)


def resolve_cache(cache: Union[bool, str, Path, TraceCache, None]) -> Optional[TraceCache]:
    """Coerce the user-facing ``trace_cache`` knob to a cache instance.

    True/None → default root; a path → cache at that root; False → no
    caching; an existing :class:`TraceCache` passes through.
    """
    if cache is False:
        return None
    if cache is True or cache is None:
        return TraceCache()
    if isinstance(cache, TraceCache):
        return cache
    return TraceCache(root=Path(cache))

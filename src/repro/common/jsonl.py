"""Crash-safe append-only JSONL journal machinery.

This is the substrate under the sweep checkpoint store
(:class:`repro.sim.store.RunStore`), the project's one durable
line-oriented store.  It owns the mechanics that make an append-only
JSONL file safe to trust after a crash:

- **the append handle** — opened in binary append mode; the store
  flushes and fsyncs every record through it, so a record that was
  reported written survives a later crash;
- **advisory writer locking** — an exclusive ``flock`` on a
  ``<path>.lock`` sidecar (the sidecar is never replaced, so flocks
  stay valid across compactions); a second writer gets
  :class:`~repro.common.errors.StoreLockedError` instead of
  interleaving records;
- **quarantine sidecar** — unusable lines are preserved (with line
  number and reason) in ``<path>.quarantine`` rather than silently
  dropped;
- **atomic compaction** — rewrites go through a temp file, fsync,
  ``os.replace``, and a directory fsync, so a crash mid-rewrite leaves
  either the old or the new file, never a hybrid.

Policy — what a valid line looks like, which damaged line is a
tolerated torn tail versus quarantinable corruption, when to compact —
stays in the subclass; this module is mechanism only.  It lives in
``repro.common`` because the dependency rules (docs/ARCHITECTURE.md)
keep ``common`` import-free of the layers above it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Union

from .errors import StoreError, StoreLockedError

try:  # advisory locking is POSIX-only; elsewhere the journal runs unlocked
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, "os.PathLike[str]"]


@dataclass(frozen=True)
class LineIssue:
    """One journal line that could not be used as-is."""

    lineno: int
    reason: str
    text: str

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-able form (what the quarantine sidecar stores)."""
        return {"lineno": self.lineno, "reason": self.reason, "raw": self.text}


class JsonlJournal:
    """Shared mechanics for a crash-safe append-only JSONL file.

    Subclasses bind the policy: what records mean, how a scan
    classifies damage, and when to lock, append, and compact.  The
    class attribute :attr:`lock_hint` customizes the advice appended
    to the :class:`StoreLockedError` message.
    """

    #: Appended to the lock-contention error so the message can tell
    #: the operator what *this* kind of journal expects them to do.
    lock_hint = "concurrent writers must use distinct files"

    def __init__(self, path: PathLike) -> None:
        """Bind to *path*; the file is opened lazily on first append."""
        self.path = os.fspath(path)
        self._fh = None
        self._lock_fh = None

    @property
    def lock_path(self) -> str:
        """The advisory-lock sidecar (never replaced, so flocks stay valid)."""
        return self.path + ".lock"

    @property
    def quarantine_path(self) -> str:
        """The sidecar where repairs preserve unusable lines."""
        return self.path + ".quarantine"

    # -- locking -------------------------------------------------------------

    def _acquire_lock(self) -> None:
        """Take the advisory writer lock, or raise :class:`StoreLockedError`.

        Re-entrant per instance (one journal serving several writing
        phases keeps its lock between them).  A no-op on platforms
        without ``fcntl``.
        """
        if fcntl is None or self._lock_fh is not None:  # pragma: no branch
            return
        try:
            fh = open(self.lock_path, "a+", encoding="utf-8")
        except OSError as exc:
            raise StoreError(
                f"cannot open store lock {self.lock_path}: {exc}"
            ) from exc
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            fh.close()
            raise StoreLockedError(
                f"store {self.path} is held by another writer "
                f"(advisory lock {self.lock_path}); {self.lock_hint}"
            ) from exc
        self._lock_fh = fh

    def _release_lock(self) -> None:
        """Drop the advisory lock if this instance holds it."""
        if self._lock_fh is not None:
            try:
                if fcntl is not None:
                    fcntl.flock(self._lock_fh.fileno(), fcntl.LOCK_UN)
            finally:
                self._lock_fh.close()
                self._lock_fh = None

    # -- durability ----------------------------------------------------------

    def _fsync_dir(self) -> None:
        """Best-effort fsync of the containing directory (rename durability)."""
        dirname = os.path.dirname(os.path.abspath(self.path))
        try:
            dir_fd = os.open(dirname, os.O_RDONLY)
        except OSError:  # pragma: no cover — e.g. permissions
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover — not supported on this FS
            pass
        finally:
            os.close(dir_fd)

    def _quarantine_issues(self, issues: Iterable[LineIssue]) -> None:
        """Append unusable lines to the ``.quarantine`` sidecar, fsynced."""
        issues = sorted(issues, key=lambda i: i.lineno)
        if not issues:
            return
        try:
            with open(self.quarantine_path, "a", encoding="utf-8") as fh:
                for issue in issues:
                    fh.write(json.dumps({**issue.to_dict(),
                                         "quarantined_at": time.time()},
                                        separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StoreError(
                f"cannot write quarantine sidecar {self.quarantine_path}: {exc}"
            ) from exc

    def _atomic_rewrite(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Atomically replace the journal with exactly *records*."""
        tmp_path = f"{self.path}.compact.{os.getpid()}.tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.path)
            self._fsync_dir()
        except OSError as exc:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise StoreError(f"cannot compact store {self.path}: {exc}") from exc

    # -- writing -------------------------------------------------------------

    def _open_append(self) -> None:
        """Open (or reopen) the append handle in binary append mode."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        try:
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise StoreError(f"cannot open store {self.path}: {exc}") from exc

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the append handle and release the writer lock."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._release_lock()

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r})"

"""Trace persistence.

Two formats:

- **binary** (``.npz``): numpy-compressed columns, compact and fast —
  the format to use for large traces.
- **text** (``.trc``): one access per line, ``address pc kind gap`` in
  hex/decimal, with ``#`` comments — easy to diff and to hand-write in
  tests, and the shape most published trace formats (e.g. Dinero) take.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from ..common.errors import TraceError
from .trace import Trace, TraceBuilder

PathLike = Union[str, "os.PathLike[str]"]

_FORMAT_VERSION = 1


def _binary_path(path: PathLike) -> str:
    """Normalize a binary-trace path to carry the ``.npz`` suffix.

    ``np.savez_compressed`` silently appends ``.npz`` to a bare path, so
    without normalization ``save_binary(t, "x")`` would write ``x.npz``
    while ``load_binary("x")`` looked for ``x``.  Both directions
    normalize through this helper, so suffixed and unsuffixed spellings
    of the same path refer to the same file.
    """
    p = os.fspath(path)
    return p if p.endswith(".npz") else p + ".npz"


def save_binary(trace: Trace, path: PathLike) -> None:
    """Write *trace* to *path* as compressed npz.

    A missing ``.npz`` suffix is added (matching numpy's own behavior,
    but explicitly — see :func:`_binary_path`).
    """
    addresses, pcs, kinds, gaps = trace.to_arrays()
    with open(_binary_path(path), "wb") as fh:
        np.savez_compressed(
            fh,
            version=np.int64(_FORMAT_VERSION),
            name=np.bytes_(trace.name.encode("utf-8")),
            addresses=addresses,
            pcs=pcs,
            kinds=kinds,
            gaps=gaps,
        )


def load_binary(path: PathLike) -> Trace:
    """Load a trace previously written by :func:`save_binary`.

    Accepts the path with or without its ``.npz`` suffix.  The stored
    columns go through the :class:`Trace` constructor's bounds check,
    so a crafted or corrupt file whose values a column cannot hold
    raises :class:`TraceError` instead of loading wrapped.
    """
    try:
        with np.load(_binary_path(path), allow_pickle=False) as data:
            version = int(data["version"])
            if version != _FORMAT_VERSION:
                raise TraceError(f"unsupported trace format version {version}")
            columns = {
                name: data[name] for name in ("addresses", "pcs", "kinds", "gaps")
            }
            lengths = {name: len(col) for name, col in columns.items()}
            if len(set(lengths.values())) != 1:
                detail = ", ".join(f"{name}={n}" for name, n in lengths.items())
                raise TraceError(
                    f"corrupt trace {os.fspath(path)}: column lengths differ ({detail})"
                )
            return Trace(
                columns["addresses"],
                columns["pcs"],
                columns["kinds"],
                columns["gaps"],
                name=bytes(data["name"]).decode("utf-8"),
            )
    except (OSError, KeyError, ValueError) as exc:
        raise TraceError(f"cannot load trace from {path}: {exc}") from exc


def save_text(trace: Trace, path: PathLike) -> None:
    """Write *trace* as a human-readable ``.trc`` file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# repro trace v{_FORMAT_VERSION}\n")
        fh.write(f"# name: {trace.name}\n")
        fh.write("# columns: address(hex) pc(hex) kind gap\n")
        for addr, pc, kind, gap in trace.rows():
            fh.write(f"{addr:x} {pc:x} {kind} {gap}\n")


def load_text(path: PathLike) -> Trace:
    """Load a ``.trc`` file written by :func:`save_text` (or by hand)."""
    name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    builder = TraceBuilder(name=name)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith("# name:"):
                        builder.name = line.split(":", 1)[1].strip()
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise TraceError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
                try:
                    address = int(parts[0], 16)
                    pc = int(parts[1], 16)
                    kind = int(parts[2])
                    gap = int(parts[3])
                except ValueError as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}") from exc
                try:
                    builder.add(address, pc=pc, kind=kind, gap=gap)
                except TraceError as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise TraceError(f"cannot load trace from {path}: {exc}") from exc
    return builder.build()


def save(trace: Trace, path: PathLike) -> None:
    """Save by extension: ``.npz`` -> binary, anything else -> text."""
    if os.fspath(path).endswith(".npz"):
        save_binary(trace, path)
    else:
        save_text(trace, path)


def load(path: PathLike) -> Trace:
    """Load by extension: ``.npz`` -> binary, anything else -> text."""
    if os.fspath(path).endswith(".npz"):
        return load_binary(path)
    return load_text(path)

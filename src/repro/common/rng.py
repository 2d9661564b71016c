"""Deterministic random-number helpers.

Every stochastic component in the package (the trace kernels) draws
from a seeded ``random.Random`` created through
:func:`make_rng`, so full simulations are reproducible run-to-run.
Seeds are derived by hashing a label with the parent seed, which keeps
independent components decorrelated while remaining deterministic.
"""

from __future__ import annotations

import random
import zlib


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from *parent_seed* and a component *label*.

    Uses crc32 (stable across processes and Python versions, unlike
    ``hash``) so the same (seed, label) pair always yields the same
    stream.
    """
    return (parent_seed * 1_000_003 + zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF


def make_rng(seed: int, label: str = "") -> random.Random:
    """Return a ``random.Random`` seeded deterministically.

    Args:
        seed: Parent seed (e.g. the workload seed).
        label: Component label, e.g. the kernel name; different labels
            under the same seed produce independent streams.
    """
    return random.Random(derive_seed(seed, label) if label else seed)

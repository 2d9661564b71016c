"""Shared settings for the ablation benchmarks.

The paper's tables and figures are reproduced by ``repro paper``
(``python -m repro paper --strict`` fails on any failed shape check);
this directory holds the six ablations the paper calls out in its text
and the performance microbenchmarks.

Environment knob:

- ``REPRO_BENCH_LENGTH``: measured accesses per workload (default 60000;
  the warm-up adds half of this again).
"""

from __future__ import annotations

import os
from pathlib import Path

LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", "60000"))
WARMUP = LENGTH // 2

OUT_DIR = Path(__file__).parent / "out"


def write_figure(name: str, text: str) -> None:
    """Print a rendered figure and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)

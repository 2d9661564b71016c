"""Declarative paper-figure registry and the ``repro paper`` pipeline.

- :mod:`repro.figures.spec` — :class:`FigureSpec` and the shape-check
  machinery (verdicts as data, so reports can print them).
- :mod:`repro.figures.registry` — one spec per paper figure/table, plus
  the unified simulator-configuration table the specs share.
- :mod:`repro.figures.pipeline` — :func:`run_paper`, which expands the
  specs into one deduplicated sweep, executes it with checkpoint/resume,
  and renders ``docs/REPRODUCTION.md`` from the results the sweep
  returns (the only path from cells to figures).
"""

from .pipeline import PaperRun, run_paper
from .registry import CONFIGS, REGISTRY, get_spec, select_specs
from .spec import CheckResult, Checks, FigureArtifact, FigureSpec, Suite

__all__ = [
    "CONFIGS",
    "REGISTRY",
    "CheckResult",
    "Checks",
    "FigureArtifact",
    "FigureSpec",
    "PaperRun",
    "Suite",
    "get_spec",
    "run_paper",
    "select_specs",
]

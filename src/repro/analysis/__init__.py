"""Reporting, figure-assembly, and reuse-distance helpers."""

from . import paper_targets
from .report import bar_chart, distribution_rows, format_table, percent, stacked_bars
from .reuse import stack_distances
from .venn import VennSummary, classify_benchmarks

__all__ = [
    "paper_targets",
    "bar_chart",
    "distribution_rows",
    "format_table",
    "percent",
    "stacked_bars",
    "stack_distances",
    "VennSummary",
    "classify_benchmarks",
]

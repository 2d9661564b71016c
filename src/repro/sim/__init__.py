"""Simulation driver: the memory simulator, results, and suite sweeps."""

from .results import PrefetchStats, SimulationResult, VictimStats
from .runner import CellFailure, CellSpec, SweepReport, run_sweep
from .simulator import MemorySimulator, make_prefetch_policy, simulate
from .store import RunStore
from .sweep import run_workload, speedups

__all__ = [
    "PrefetchStats",
    "SimulationResult",
    "VictimStats",
    "CellFailure",
    "CellSpec",
    "SweepReport",
    "run_sweep",
    "MemorySimulator",
    "make_prefetch_policy",
    "simulate",
    "RunStore",
    "run_workload",
    "speedups",
]

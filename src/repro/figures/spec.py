"""Declarative figure specifications for the paper-reproduction pipeline.

Every table and figure of the paper's evaluation is described by one
:class:`FigureSpec`: which workloads and simulator configurations it
needs, how to derive its dataset and text rendering from a finished
suite, and which shape assertions ("the paper's qualitative claims")
must hold for the reproduction to count.

Specs separate *what an experiment needs* from *how it runs*: the
``repro paper`` orchestrator (:mod:`repro.figures.pipeline`) unions the
needs of all selected specs into one deduplicated workload×config cell
matrix, executes it once through the fault-tolerant sweep runner, and
then evaluates every spec against the shared result suite.  That is
the only path from cells to figures.

Shape assertions are **data**, not ``assert`` statements: a spec's
builder returns :class:`CheckResult` records so the generated
``docs/REPRODUCTION.md`` can print pass/fail verdicts, and
``repro paper --strict`` exits 1 on any failed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.results import SimulationResult

#: A finished suite: ``{workload: {config_name: result}}``.
Suite = Mapping[str, Mapping[str, SimulationResult]]


@dataclass(frozen=True)
class CheckResult:
    """One shape assertion's verdict.

    ``passed=None`` marks a check that could not run (its workloads are
    absent from the suite, e.g. in a subset or smoke run) — reported as
    "skipped" rather than failed.
    """

    name: str
    passed: Optional[bool]
    detail: str = ""

    def verdict(self) -> str:
        """Render the verdict word: PASS, FAIL, or SKIP."""
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


@dataclass
class FigureArtifact:
    """Everything one spec produced from a suite: rendering + verdicts."""

    fig_id: str
    title: str
    text: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no check failed (skipped checks do not count)."""
        return all(c.passed is not False for c in self.checks)

    def failures(self) -> List[CheckResult]:
        """The failed checks, for error messages."""
        return [c for c in self.checks if c.passed is False]


class Checks:
    """Accumulator for a builder's shape assertions.

    ``require`` records a hard verdict; ``guarded`` records a verdict
    only when *present* (typically "the workload is in this run"), and a
    SKIP otherwise, so subset runs (``repro paper --workloads``) stay
    meaningful.
    """

    def __init__(self) -> None:
        """Start with an empty list of recorded verdicts."""
        self.results: List[CheckResult] = []

    def require(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one unconditional check."""
        self.results.append(CheckResult(name, bool(passed), detail))

    def guarded(self, name: str, present: bool, passed: Callable[[], bool],
                detail: str = "") -> None:
        """Record a check only evaluable when *present* (else SKIP)."""
        if present:
            self.results.append(CheckResult(name, bool(passed()), detail))
        else:
            self.results.append(CheckResult(name, None, "workload(s) not in run"))


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure or table, declaratively.

    Attributes:
        fig_id: short handle (``fig01`` ... ``fig22``, ``table1``) used
            by ``repro paper --only`` and the report anchors.
        title: the figure's caption-style title.
        paper_shape: one-line statement of the paper's qualitative
            claim this spec verifies.
        workloads: workload names the spec needs, or ``None`` for the
            full SPEC2000 stand-in set.
        configs: names from :data:`repro.figures.registry.CONFIGS` the
            spec reads; the orchestrator guarantees those cells exist.
        build: derives the artifact (text + checks) from a suite.
    """

    fig_id: str
    title: str
    paper_shape: str
    workloads: Optional[Tuple[str, ...]]
    configs: Tuple[str, ...]
    build: Callable[[Suite], FigureArtifact]

    def subset(self, suite: Suite) -> Dict[str, Dict[str, SimulationResult]]:
        """Restrict *suite* to this spec's workloads (order-preserving)."""
        if self.workloads is None:
            return {w: dict(cfgs) for w, cfgs in suite.items()}
        return {w: dict(suite[w]) for w in self.workloads if w in suite}

    def cells(self, all_workloads: Sequence[str]) -> List[Tuple[str, str]]:
        """The (workload, config) cells this spec needs."""
        names = list(self.workloads) if self.workloads is not None else list(all_workloads)
        return [(w, c) for w in names for c in self.configs]

"""Simulation result containers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..classify.three_c import MissCounts
from ..common.errors import SimulationError
from ..common.types import AccessOutcome, PrefetchTimeliness
from ..core.decay import DecayStats
from ..core.metrics import TimekeepingMetrics
from ..core.prefetch.timeliness import TimelinessCounts
from ..timing.processor import TimingResult

#: Serialization schema version written by :meth:`SimulationResult.to_dict`;
#: 3 keeps a metric bank's tables and access intervals, not its histograms.
RESULT_SCHEMA_VERSION = 3


@dataclass
class VictimStats:
    """Victim cache behavior for one run."""

    entries: int = 0
    probes: int = 0
    hits: int = 0
    fills: int = 0
    rejected: int = 0
    lru_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of victim-cache probes that hit."""
        return self.hits / self.probes if self.probes else 0.0

    def fill_traffic_per_cycle(self, cycles: int) -> float:
        """Entries inserted per cycle (Figure 13, bottom)."""
        return self.fills / cycles if cycles else 0.0


@dataclass
class PrefetchStats:
    """Prefetch engine behavior for one run."""

    scheduled: int = 0
    fired: int = 0
    issued: int = 0
    arrived: int = 0
    #: Demand hits on prefetched blocks (useful prefetches).
    useful: int = 0
    discarded: int = 0
    cancelled: int = 0
    superseded: int = 0
    mshr_rejections: int = 0
    #: Predictor coverage: lookup hit rate of the correlation table.
    predictor_lookups: int = 0
    predictor_hits: int = 0
    table_bytes: int = 0
    timeliness: TimelinessCounts = field(default_factory=TimelinessCounts)

    @property
    def coverage(self) -> float:
        """Fraction of lookups that produced a prediction (Figure 20)."""
        if self.predictor_lookups == 0:
            return 0.0
        return self.predictor_hits / self.predictor_lookups

    @property
    def address_accuracy(self) -> float:
        """Fraction of resolved predictions with the right address."""
        return self.timeliness.address_accuracy()


@dataclass
class SimulationResult:
    """Everything one simulator run produced."""

    name: str
    accesses: int
    l1_hits: int
    l1_misses: int
    outcomes: Dict[AccessOutcome, int]
    timing: TimingResult
    miss_counts: Optional[MissCounts] = None
    victim: Optional[VictimStats] = None
    prefetch: Optional[PrefetchStats] = None
    metrics: Optional[TimekeepingMetrics] = None
    l2_hits: int = 0
    l2_misses: int = 0
    memory_accesses: int = 0
    decay: Optional[DecayStats] = None
    writebacks: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle from the timing model."""
        return self.timing.ipc

    @property
    def cycles(self) -> int:
        """Total simulated cycles."""
        return self.timing.cycles

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses as a fraction of all accesses."""
        return self.l1_misses / self.accesses if self.accesses else 0.0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Relative IPC improvement over *baseline* (0.11 = +11%)."""
        return self.timing.speedup_over(baseline.timing)

    def outcome_fraction(self, outcome: AccessOutcome) -> float:
        """Share of accesses resolving as *outcome*."""
        if self.accesses == 0:
            return 0.0
        return self.outcomes.get(outcome, 0) / self.accesses

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"{self.name}: {self.accesses} accesses, IPC {self.ipc:.3f}, "
            f"L1 miss rate {self.l1_miss_rate:.2%}",
        ]
        if self.miss_counts is not None and self.miss_counts.total:
            mc = self.miss_counts
            lines.append(
                f"  misses: {mc.total} (cold {mc.cold}, conflict {mc.conflict}, "
                f"capacity {mc.capacity})"
            )
        if self.victim is not None:
            lines.append(
                f"  victim cache: {self.victim.fills} fills, {self.victim.hits} hits, "
                f"{self.victim.rejected} rejected"
            )
        if self.prefetch is not None:
            pf = self.prefetch
            lines.append(
                f"  prefetch: {pf.issued} issued, {pf.useful} useful, "
                f"addr accuracy {pf.address_accuracy:.2%}, coverage {pf.coverage:.2%}"
            )
        return "\n".join(lines)

    # -- serialization (checkpoint store) ------------------------------------

    def to_dict(self, *, include_metrics: bool = False) -> Dict[str, Any]:
        """Serialize into a JSON-able dict (see :meth:`from_dict`).

        By default everything except :attr:`metrics` round-trips: the
        generational :class:`TimekeepingMetrics` object holds
        per-generation and per-miss columns, so it is left out
        (``from_dict`` yields ``metrics=None``).
        ``include_metrics=True`` serializes the full collector state as
        well — the checkpoint store writes every record this way, so
        every characterization figure can be rebuilt from the store
        alone, byte-identically to the in-memory run.
        """
        out = {
            "version": RESULT_SCHEMA_VERSION,
            "name": self.name,
            "accesses": self.accesses,
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "memory_accesses": self.memory_accesses,
            "writebacks": self.writebacks,
            "outcomes": {outcome.name: count for outcome, count in self.outcomes.items()},
            "timing": {
                "instructions": self.timing.instructions,
                "cycles": self.timing.cycles,
                "compute_cycles": self.timing.compute_cycles,
                "stall_cycles": self.timing.stall_cycles,
                "stall_breakdown": dict(self.timing.stall_breakdown),
                "ipc": self.timing.ipc,
            },
            "miss_counts": None if self.miss_counts is None else asdict(self.miss_counts),
            "victim": None if self.victim is None else asdict(self.victim),
            "prefetch": None if self.prefetch is None else _prefetch_to_dict(self.prefetch),
            "decay": None if self.decay is None else asdict(self.decay),
        }
        if include_metrics and self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild a result serialized by :meth:`to_dict`.

        Raises :class:`SimulationError` for missing fields, an
        unsupported schema version, or a result an earlier build's
        sampled or analytical tier extrapolated (a ``fidelity`` other
        than ``"exact"``).  ``metrics`` round-trips only when
        the result was serialized with ``include_metrics=True``;
        otherwise it is ``None`` on the way back (see :meth:`to_dict`).
        """
        try:
            version = data["version"]
            if version != RESULT_SCHEMA_VERSION:
                raise SimulationError(
                    f"unsupported result schema version {version!r} "
                    f"(this build reads version {RESULT_SCHEMA_VERSION})"
                )
            fidelity = data.get("fidelity", "exact")
            if fidelity != "exact":
                raise SimulationError(
                    f"result was extrapolated at fidelity {fidelity!r}; "
                    f"this build reads only exact results"
                )
            timing = data["timing"]
            return cls(
                name=data["name"],
                accesses=data["accesses"],
                l1_hits=data["l1_hits"],
                l1_misses=data["l1_misses"],
                outcomes={AccessOutcome[k]: v for k, v in data["outcomes"].items()},
                timing=TimingResult(
                    instructions=timing["instructions"],
                    cycles=timing["cycles"],
                    compute_cycles=timing["compute_cycles"],
                    stall_cycles=timing["stall_cycles"],
                    stall_breakdown=dict(timing["stall_breakdown"]),
                    ipc=timing["ipc"],
                ),
                miss_counts=_optional(MissCounts, data.get("miss_counts")),
                victim=_optional(VictimStats, data.get("victim")),
                prefetch=_prefetch_from_dict(data.get("prefetch")),
                metrics=(
                    TimekeepingMetrics.from_dict(data["metrics"])
                    if data.get("metrics") is not None
                    else None
                ),
                l2_hits=data["l2_hits"],
                l2_misses=data["l2_misses"],
                memory_accesses=data["memory_accesses"],
                decay=_optional(DecayStats, data.get("decay")),
                writebacks=data["writebacks"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed serialized result: {exc!r}") from exc


def _optional(cls, data):
    """Instantiate dataclass *cls* from a field dict, passing None through."""
    return None if data is None else cls(**data)


def _prefetch_to_dict(prefetch: PrefetchStats) -> Dict[str, Any]:
    out = asdict(prefetch)
    out["timeliness"] = {
        "correct": {t.name: n for t, n in prefetch.timeliness.correct.items()},
        "wrong": {t.name: n for t, n in prefetch.timeliness.wrong.items()},
    }
    return out


def _prefetch_from_dict(data: Optional[Mapping[str, Any]]) -> Optional[PrefetchStats]:
    if data is None:
        return None
    fields = dict(data)
    timeliness = fields.pop("timeliness")
    return PrefetchStats(
        **fields,
        timeliness=TimelinessCounts(
            correct={PrefetchTimeliness[k]: v for k, v in timeliness["correct"].items()},
            wrong={PrefetchTimeliness[k]: v for k, v in timeliness["wrong"].items()},
        ),
    )

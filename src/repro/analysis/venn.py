"""Figure 22: which mechanism helps which benchmark.

The paper's closing Venn diagram partitions SPEC2000 into programs
with few memory stalls, programs helped by the timekeeping victim
filter, and programs helped by timekeeping prefetch (with overlaps).
:func:`classify_benchmarks` reproduces that partition from measured
speedups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set


@dataclass
class VennSummary:
    """The three (overlapping) sets of Figure 22."""

    few_stalls: Set[str] = field(default_factory=set)
    victim_helped: Set[str] = field(default_factory=set)
    prefetch_helped: Set[str] = field(default_factory=set)
    #: benchmark -> max improvement across the two mechanisms.
    improvement: Dict[str, float] = field(default_factory=dict)

    @property
    def both_helped(self) -> Set[str]:
        return self.victim_helped & self.prefetch_helped

    def render(self) -> str:
        """Text rendering of the diagram's content."""
        def fmt(names: Set[str]) -> str:
            # Ties go by name: set order follows the hash seed.
            ordered = sorted(names, key=lambda n: (-self.improvement.get(n, 0.0), n))
            return ", ".join(
                f"{n} [{self.improvement.get(n, 0.0) * 100:.0f}%]" for n in ordered
            ) or "(none)"

        only_victim = self.victim_helped - self.prefetch_helped
        only_prefetch = self.prefetch_helped - self.victim_helped
        neither = {
            n for n in self.improvement
            if n not in self.victim_helped
            and n not in self.prefetch_helped
            and n not in self.few_stalls
        }
        lines = [
            "Figure 22 — mechanism coverage of SPEC2000:",
            f"  few memory stalls          : {fmt(self.few_stalls)}",
            f"  victim filter only         : {fmt(only_victim)}",
            f"  prefetch only              : {fmt(only_prefetch)}",
            f"  helped by both             : {fmt(self.both_helped)}",
        ]
        if neither:
            lines.append(f"  helped by neither          : {fmt(neither)}")
        return "\n".join(lines)


def classify_benchmarks(
    potential: Mapping[str, float],
    victim_speedup: Mapping[str, float],
    prefetch_speedup: Mapping[str, float],
    *,
    stall_threshold: float = 0.05,
    help_threshold: float = 0.01,
) -> VennSummary:
    """Build the Figure-22 partition from measured numbers.

    Args:
        potential: Per-benchmark IPC gain with all non-cold misses
            removed (Figure 1); below *stall_threshold* => "few stalls".
        victim_speedup: Gain of the timekeeping victim filter over base.
        prefetch_speedup: Gain of timekeeping prefetch over base.
        help_threshold: Minimum gain to count as "helped".
    """
    summary = VennSummary()
    for name, head in potential.items():
        v = victim_speedup.get(name, 0.0)
        p = prefetch_speedup.get(name, 0.0)
        summary.improvement[name] = max(v, p)
        if head < stall_threshold:
            summary.few_stalls.add(name)
            continue
        if v >= help_threshold:
            summary.victim_helped.add(name)
        if p >= help_threshold:
            summary.prefetch_helped.add(name)
    return summary

"""Validate the sampled fidelity tier against the exact simulator.

Runs every SPEC2000 stand-in workload through ``exact`` (the full
simulator) and ``sampled`` (representative-interval extrapolation,
:mod:`repro.sim.sampling`) and reports the sampled tier's error
distribution and wall-clock speedup.

Gates (full runs; ``--smoke`` checks error only, timing on tiny traces
is all fixed overhead):

- ``sampled_error``: absolute L1 miss-rate error <= 0.02 on all but at
  most two workloads;
- ``sampled_speedup``: aggregate wall-clock speedup >= 10x over exact.

Usage::

    PYTHONPATH=src python tools/validate_fidelity.py            # full gate
    PYTHONPATH=src python tools/validate_fidelity.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.sampling import simulate_sampled
from repro.sim.simulator import simulate
from repro.traces.cache import TraceCache
from repro.traces.workloads import SPEC2000, get_workload

#: Full-scale validation: total trace accesses and warmup prefix.
#: Sampling's fixed reconstruction cost amortizes at this scale — it is
#: the tier's honest use case (interactive queries over *long* traces).
FULL_LENGTH = 1_920_000

#: --smoke scale: exercises both tiers end to end in seconds.
SMOKE_LENGTH = 60_000

#: Sampled-tier absolute L1 miss-rate error ceiling (full runs).
MISS_RATE_TOLERANCE = 0.02

#: Workloads allowed past the tolerance before the gate fails (22 - 2 = 20).
ALLOWED_OUTLIERS = 2

#: --smoke error ceiling: tiny traces sample only ~4k accesses, so the
#: bar is necessarily looser; this still catches a broken extrapolation.
SMOKE_TOLERANCE = 0.05

SAMPLED_SPEEDUP_GATE = 10.0


def _timed(fn) -> tuple:
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1e3


def validate_workload(
    name: str, length: int, warmup: int, seed: int, cache: TraceCache,
) -> Dict[str, Any]:
    """Run one workload through both tiers; returns the comparison row."""
    spec = get_workload(name)
    trace = cache.get_or_build(name, length, seed)
    ipa = spec.ipa

    exact, exact_ms = _timed(
        lambda: simulate(trace, ipa=ipa, warmup=warmup))
    sampled, sampled_ms = _timed(
        lambda: simulate_sampled(trace, ipa=ipa, warmup=warmup, seed=seed))

    return {
        "exact_ms": round(exact_ms, 2),
        "sampled_ms": round(sampled_ms, 2),
        "exact_miss_rate": round(exact.l1_miss_rate, 6),
        "sampled_miss_rate": round(sampled.l1_miss_rate, 6),
        "sampled_abs_err": round(abs(sampled.l1_miss_rate - exact.l1_miss_rate), 6),
        "sampled_ipc_rel_err": round(
            abs(sampled.ipc - exact.ipc) / exact.ipc if exact.ipc else 0.0, 4),
        "sampled_speedup": round(exact_ms / sampled_ms, 1) if sampled_ms else 0.0,
        "sampled_ci95_miss_rate": round(
            (sampled.error_bars or {}).get("l1_miss_rate", {}).get("ci95", 0.0), 6),
    }


def run_validation(
    *,
    workloads: Optional[Sequence[str]] = None,
    length: int = FULL_LENGTH,
    warmup: Optional[int] = None,
    seed: int = 0,
    smoke: bool = False,
    cache_root: Optional[str] = None,
    progress=None,
) -> Dict[str, Any]:
    """Run the whole comparison; returns the report dict (gates included)."""
    names = list(workloads) if workloads is not None else list(SPEC2000)
    resolved_warmup = length // 2 if warmup is None else warmup
    if cache_root is None:
        tmp = tempfile.mkdtemp(prefix="fidelity_cache_")
        cache = TraceCache(root=Path(tmp))
    else:
        cache = TraceCache(root=Path(cache_root))

    rows: Dict[str, Dict[str, Any]] = {}
    for name in names:
        if progress is not None:
            progress(name)
        rows[name] = validate_workload(name, length, resolved_warmup, seed, cache)

    exact_total = sum(r["exact_ms"] for r in rows.values())
    sampled_total = sum(r["sampled_ms"] for r in rows.values())
    tolerance = SMOKE_TOLERANCE if smoke else MISS_RATE_TOLERANCE
    within = [n for n, r in rows.items() if r["sampled_abs_err"] <= tolerance]
    outliers = [n for n in rows if n not in within]

    aggregate = {
        "workloads": len(rows),
        "sampled_speedup": round(exact_total / sampled_total, 1)
        if sampled_total else 0.0,
        "sampled_within_tolerance": len(within),
        "sampled_tolerance": tolerance,
        "sampled_outliers": sorted(outliers),
        "sampled_worst_abs_err": max(
            (r["sampled_abs_err"] for r in rows.values()), default=0.0),
    }

    gates: Dict[str, bool] = {
        "sampled_error": len(outliers) <= ALLOWED_OUTLIERS,
    }
    if not smoke:
        gates["sampled_speedup"] = (
            aggregate["sampled_speedup"] >= SAMPLED_SPEEDUP_GATE)

    return {
        "name": "fidelity-tiers",
        "length": length,
        "warmup": resolved_warmup,
        "seed": seed,
        "smoke": smoke,
        "workloads": rows,
        "aggregate": aggregate,
        "gates": gates,
        "passed": all(gates.values()),
    }


def render(report: Dict[str, Any], out=sys.stdout) -> None:
    rows = report["workloads"]
    width = max((len(n) for n in rows), default=8)
    print(f"{'workload':<{width}}  {'exact':>9}  {'sampled':>9}  "
          f"{'s-err':>7}  {'s-spd':>6}", file=out)
    for name, r in rows.items():
        print(f"{name:<{width}}  {r['exact_ms']:>7.0f}ms  {r['sampled_ms']:>7.0f}ms  "
              f"{r['sampled_abs_err']:>7.4f}  {r['sampled_speedup']:>5.1f}x",
              file=out)
    agg = report["aggregate"]
    print(f"\naggregate: sampled {agg['sampled_speedup']:g}x; "
          f"{agg['sampled_within_tolerance']}/{agg['workloads']} workloads within "
          f"{agg['sampled_tolerance']:g} abs miss-rate error "
          f"(worst {agg['sampled_worst_abs_err']:g})", file=out)
    if agg["sampled_outliers"]:
        print(f"outliers: {', '.join(agg['sampled_outliers'])}", file=out)
    for gate, ok in report["gates"].items():
        print(f"gate {gate}: {'PASS' if ok else 'FAIL'}", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="validate the sampled tier against exact")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all 22)")
    parser.add_argument("--length", type=int, default=None,
                        help=f"total trace accesses (default {FULL_LENGTH}, "
                             f"{SMOKE_LENGTH} with --smoke)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup prefix (default: length/2)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: small traces, error gate only")
    parser.add_argument("--cache-root", default=None,
                        help="trace-cache root (default: fresh temp dir)")
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="write the full report as JSON")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    workloads = None
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    length = args.length if args.length is not None else (
        SMOKE_LENGTH if args.smoke else FULL_LENGTH)

    progress = None
    if not args.quiet:
        def progress(name: str) -> None:
            print(f"validating {name}", file=sys.stderr)

    report = run_validation(
        workloads=workloads, length=length, warmup=args.warmup,
        seed=args.seed, smoke=args.smoke, cache_root=args.cache_root,
        progress=progress,
    )
    render(report)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())

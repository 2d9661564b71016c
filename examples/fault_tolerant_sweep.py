#!/usr/bin/env python3
"""Fault-tolerant campaign: parallel sweep, injected failures, resume.

The paper's headline comparisons are all N-workload x M-config
campaigns.  This example runs one on worker processes with a fault
injected into one cell, shows that the rest of the campaign survives,
then resumes from the JSONL checkpoint store: stored results replay,
and the failed cell, like any cell without a stored result, runs again.

`python -m repro paper` builds on exactly this runner: the whole
figure campaign is one checkpointed sweep, resumable the same way.

Run:  python examples/fault_tolerant_sweep.py
"""

import os
import tempfile

from repro.sim.runner import run_sweep
from repro.sim.sweep import speedups

WORKLOADS = ["gzip", "vpr", "mcf", "swim"]
CONFIGS = {
    "base": {},
    "victim_tk": {"victim_filter": "timekeeping"},
    "pf_tk": {"prefetcher": "timekeeping"},
}


def flaky_hook(workload, config, attempt):
    """Chaos: vpr's prefetch cell fails on its first attempt only."""
    if (workload, config) == ("vpr", "pf_tk") and attempt == 1:
        raise RuntimeError("injected transient fault (simulated OOM)")


def crash_hook(workload, config, attempt):
    """Chaos: mcf's victim cell always dies (a deterministic bug)."""
    if (workload, config) == ("mcf", "victim_tk"):
        raise RuntimeError("injected persistent fault")


def chaos_hook(workload, config, attempt):
    # Module-level so it pickles by reference into pool workers.
    flaky_hook(workload, config, attempt)
    crash_hook(workload, config, attempt)


def main() -> None:
    store = os.path.join(tempfile.mkdtemp(prefix="repro_sweep_"), "campaign.jsonl")

    # 1. First pass: 4 workloads x 3 configs on 2 workers.  One cell
    #    flakes once (retried, succeeds), one fails every attempt
    #    (recorded, campaign continues).
    report = run_sweep(
        CONFIGS,
        workloads=WORKLOADS,
        length=20_000,
        workers=2,
        retries=1,
        backoff=0.05,
        store=store,
        fault_hook=chaos_hook,
    )
    print(f"first pass: {report.ok_cells} cells ok, {len(report.failures)} failed")
    print(f"  vpr:pf_tk took {report.attempts[('vpr', 'pf_tk')]} attempts (flake retried)")
    for failure in report.failures:
        print(f"  FAILED {failure}")

    # 2. Resume: completed cells replay from the store, and the failed
    #    cell runs again.  The "bug" is fixed now (no crash hook):
    resumed = run_sweep(
        CONFIGS,
        workloads=WORKLOADS,
        length=20_000,
        workers=2,
        store=store,
        resume=True,
    )
    print(f"\nresume: executed {resumed.executed} cell(s), "
          f"replayed {resumed.replayed} from {store}")

    # 3. Partial results were usable all along; now they are complete.
    for config in ("victim_tk", "pf_tk"):
        gains = speedups(resumed.results, config)
        best = max(gains, key=gains.get)
        print(f"  {config}: best gain {gains[best]:+.1%} on {best}")


if __name__ == "__main__":
    main()

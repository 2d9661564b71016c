#!/usr/bin/env python3
"""One-command paper reproduction through the `repro paper` pipeline.

The CLI equivalent is `python -m repro paper`; this example drives the
same library entry point (:func:`repro.figures.run_paper`) to show
what the pipeline does and how to consume its results in code:

1. expand the figure registry into one deduplicated workload x config
   campaign (figures share cells — every speedup figure's `base` is
   simulated exactly once);
2. execute it through the fault-tolerant sweep runner with a
   checkpoint store, so an interrupted campaign resumes where it died;
3. build every figure from the campaign's results and render a
   REPRODUCTION report with paper-vs-measured renderings and
   shape-check verdicts.

A small subset keeps this example quick; drop `only=`/`workloads=`
(or run `python -m repro paper`) for the full evaluation.

Run:  python examples/reproduce_paper.py
"""

import os
import tempfile

from repro.figures import REGISTRY, run_paper


def main() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        print(f"figure registry: {', '.join(REGISTRY)}")
        print()

        # Two figures sharing their `base` cells, three workloads, and
        # a reduced trace length — a miniature of the full campaign.
        run = run_paper(
            only=["fig02", "fig13"],
            workloads=["gzip", "vpr", "swim"],
            length=8_000,
            out_dir=out_dir,
        )

        print(f"cells executed: {run.executed}, replayed: {run.replayed}, "
              f"failed: {run.failures}")
        for artifact in run.artifacts:
            verdict = "PASS" if artifact.passed else "FAIL"
            print(f"  {artifact.fig_id}: {verdict} "
                  f"({len(artifact.checks)} shape checks)")
        # A FAIL here is expected: at this miniature scale some paper
        # shapes genuinely don't hold (short traces are cold-miss
        # dominated).  The committed docs/REPRODUCTION.md comes from the
        # full-scale run, where every figure passes.

        # Interrupt-and-resume is free: the same call with resume=True
        # replays every finished cell from the checkpoint store and
        # regenerates the report byte-identically.
        again = run_paper(
            only=["fig02", "fig13"],
            workloads=["gzip", "vpr", "swim"],
            length=8_000,
            out_dir=out_dir,
            resume=True,
        )
        print()
        print(f"warm re-run: {again.executed} executed, "
              f"{again.replayed} replayed; report byte-identical: "
              f"{again.report_text == run.report_text}")

        report_kb = os.path.getsize(run.report_path) / 1024
        print(f"report: {run.report_path} ({report_kb:.1f}KB)")
        print()

        # The report itself — rendered figures, verdicts, and the
        # sweep's phase/time breakdown — is plain markdown.
        head = "\n".join(run.report_text.splitlines()[:14])
        print(head)


if __name__ == "__main__":
    main()

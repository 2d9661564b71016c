"""Benchmark of the paper reproduction: ``paper``, ``plain`` and ``resume``.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Each invocation measures one workload in this one process (one worker,
no extra threads), checks the program's outputs, prints every metric by
name with its unit, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a
span-traced run and a cProfile pass.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("paper", "plain", "resume")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="trace-synthesis seed, the only input it changes (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run and a cProfile pass")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # Importing the program is part of set-up, so it is timed here.
    import hostspeed
    with hostspeed.Timer() as timer:
        sys.path.insert(0, SRC)
        import harness
    return harness.run(args, timer.seconds)


if __name__ == "__main__":
    sys.exit(main())

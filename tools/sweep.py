"""Time a layer kernel in process at doubling sizes and fit its growth rate.

Run from anywhere, with the ``src`` directory of the tree to measure:

    python3 tools/sweep.py [--src DIR] [--cap SECONDS]

The kernel is ``prefab.check_algebra_laws`` at seed ``SEED``, its size the
sample count.  It imports ``cobweb`` from ``--src`` (default: this tree's
``src``), so the parent's tree, written out by ``git archive``, is measured
by pointing the sweep at its ``src``.  After one warm-up call (the imports, the sample pool)
it runs the kernel at ``START`` samples and doubles the count while the
next point, at twice the last point's time, stays within ``--cap`` seconds
(default 2).  Each point's time is the least of ``REPEAT`` untraced runs;
one more run under ``tracemalloc`` gives its peak traced bytes.  One JSON
line is printed per point, then one with the log-log slope of time against
size over the last two doublings (null with fewer than three points).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Untraced runs a point is timed over: the least of them is its time, the
# one least disturbed by other work on the machine.
REPEAT = 3
# The first sample count, and the seed every call draws its samples from.
START = 625
SEED = 1


def point(kernel, size: int) -> tuple[float, int]:
    """The kernel's least wall seconds at one size over ``REPEAT`` untraced
    runs, and its peak traced bytes in one more run."""
    seconds = math.inf
    for _ in range(REPEAT):
        start = time.perf_counter()
        kernel(size)
        seconds = min(seconds, time.perf_counter() - start)
    tracemalloc.start()
    try:
        kernel(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, peak


def sweep(kernel, start: int, cap: float) -> list[tuple[int, float, int]]:
    """(size, seconds, peak bytes) at start, 2 * start, ..., while the next
    point is expected to take no more than cap seconds."""
    points = []
    size = start
    while True:
        points.append((size, *point(kernel, size)))
        if 2 * points[-1][1] > cap:
            return points
        size *= 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory whose cobweb is measured")
    parser.add_argument("--cap", type=float, default=2.0, help="seconds a point may take")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from cobweb.prefab import check_algebra_laws

    def kernel(samples: int) -> None:
        check_algebra_laws(samples, SEED)

    kernel(1)
    points = sweep(kernel, START, args.cap)
    for size, seconds, peak in points:
        print(json.dumps({"kernel": "check_algebra_laws", "size": size,
                          "seconds": round(seconds, 6), "peak_bytes": peak}))
    slope = None
    if len(points) >= 3:
        (first, first_s, _), (last, last_s, _) = points[-3], points[-1]
        slope = round(math.log(last_s / first_s) / math.log(last / first), 3)
    print(json.dumps({"kernel": "check_algebra_laws", "slope": slope}))


if __name__ == "__main__":
    main()

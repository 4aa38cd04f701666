"""Compare the command-line output of the working tree with a revision's.

Run from anywhere in the repository:

    python3 tools/compare_outputs.py REV [--seeds 1 2] [--calls FILE] [--repeat N]

This tree's files and REV's are written to two directories of one temporary
directory, removed again at the end, by ``pairs.write_trees`` (this tree's
``git ls-files``, REV's ``git archive``, at paths of one length).  Each call
runs as ``python3 -m cobweb.cli`` in this tree and in REV's, in the
environment ``pairs.src_env`` gives for that tree's ``src``, one call at a
time and for at most ``TIME_LIMIT_S`` seconds, through the benchmark's own
launcher, ``perfbench/procs.Launcher``, one per tree, started from the
temporary directory (``-m`` puts the working directory first on
``sys.path``).  The calls are those of the four benchmark workloads of
``perfbench/workloads.generate`` at each seed, then one JSON array of
arguments per nonblank line of FILE.  The exit code, the SHA-256 of standard
output and standard error are compared; the launcher keeps the last 4000
characters of standard error, more than the at most two lines a listed call
writes there.  Every mismatch is printed, and the script exits 1 if there is
any.  Each call of FILE is also measured in both trees: its wall
milliseconds and peak RSS (the child's own ``ru_maxrss``, read by
``os.wait4``).  With ``--repeat N`` it runs N times in each tree, in the
pairs' side order of ``pairs.sides``, and the script prints, per call and
for each of the two, each tree's quartiles, the pairs on which this tree
read lower and higher, and whether the change meets the gain rule of
``pairs.gain``: lower in at least 9 of 10 pairs, and a median gap larger
than REV's quartile spread.  ``tools/startup_calls.jsonl`` holds one cheap
call per command and one per refusal path, sized so that start-up, not the
computation, sets their time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pairs

sys.path.insert(0, str(pairs.ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)
from procs import Launcher, cli_argv  # noqa: E402

TIME_LIMIT_S = 120


def run_call(launcher: Launcher, argv: list[str]) -> tuple[tuple, float, float]:
    """(exit code, SHA-256 of standard output, standard error) of one call,
    its wall milliseconds and its peak RSS in MB; the exit code is
    "timeout" for a call past the time limit."""
    result = launcher.run(cli_argv(argv))
    code = "timeout" if result.code is None else result.code
    return (code, result.stdout_sha256, result.stderr), result.wall_s * 1e3, result.maxrss_kb / 1024


def calls(seeds: list[int], calls_file: str | None, workdir: str) -> list[tuple[str, list[str], bool]]:
    """(label, argv, measured) of every call: the workloads at each seed,
    then the file's, which are the measured ones."""
    listed = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for call in workloads.generate(workload, seed, workdir):
                listed.append((f"{workload}:{seed}#{call['id']}", call["argv"], False))
    if calls_file:
        lines = Path(calls_file).read_text(encoding="utf-8").splitlines()
        listed += [(f"{calls_file}:{i}", json.loads(line), True)
                   for i, line in enumerate(lines, 1) if line.strip()]
    return listed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1], help="workload seeds")
    parser.add_argument("--calls", help="file of JSON argv arrays, one call a line")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each call of FILE in each tree (default 1)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        trees = pairs.write_trees(args.rev, Path(scratch))
        workdir = os.path.join(scratch, "work")
        os.mkdir(workdir)
        listed = calls(args.seeds, args.calls, workdir)
        os.chdir(workdir)  # -m puts the working directory first on a child's sys.path
        mismatches = 0
        with contextlib.ExitStack() as stack:
            launchers = {side: stack.enter_context(Launcher(str(tree), pairs.src_env(tree / "src"),
                                                            TIME_LIMIT_S))
                         for side, tree in trees.items()}
            for label, argv, measured in listed:
                runs = [{side: run_call(launchers[side], argv) for side in pairs.sides(turn)}
                        for turn in range(args.repeat if measured else 1)]
                differing = [run for run in runs if run["parent"][0] != run["change"][0]]
                if differing:
                    mismatches += 1
                    print(f"mismatch {label} {json.dumps(argv)}")
                    there, here = differing[0]["parent"][0], differing[0]["change"][0]
                    for name, a, b in zip(("exit", "stdout", "stderr"), there, here):
                        if a != b:
                            print(f"  {name}: {args.rev} {a!r}\n  {name}: tree {b!r}")
                if measured:
                    print(f"{label} {json.dumps(argv)}: exit {runs[0]['change'][0][0]}")
                    for name, column, unit in (("wall", 1, "ms"), ("peak RSS", 2, "MB")):
                        metric = pairs.compared([run["parent"][column] for run in runs],
                                                [run["change"][column] for run in runs], unit)
                        met = pairs.gain(metric, True, len(runs))["met"]
                        print(f"  {name}: {pairs.described(metric, args.rev, len(runs))}"
                              + (f"; gain rule {'met' if met else 'not met'}"
                                 if len(runs) > 1 else ""))
    print(f"{len(listed)} calls, {mismatches} mismatches against {args.rev}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the command-line output of the working tree with a revision's.

Run from anywhere in the repository:

    python3 tools/compare_outputs.py REV [--seeds 1 2] [--calls FILE]

REV is checked out with ``git worktree add --detach`` in a temporary
directory, removed again at the end.  Each call runs as ``python3 -m
cobweb.cli`` in this tree and in REV's, with ``PYTHONPATH`` set to that
tree's ``src``, one call at a time and for at most ``TIME_LIMIT_S`` seconds.
The calls are those of the four benchmark workloads of
``perfbench/workloads.generate`` at each seed, then one JSON array of
arguments per nonblank line of FILE.  The exit code, the SHA-256 of standard
output and standard error are compared; every mismatch is printed, and the
script exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)

TIME_LIMIT_S = 120


def run_call(tree: Path, argv: list[str], workdir: str) -> tuple:
    """(exit code, SHA-256 of standard output, standard error) of one call;
    the exit code is "timeout" for a call past the time limit."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        try:
            code = subprocess.run(
                [sys.executable, "-m", "cobweb.cli", *argv], stdout=out, stderr=err,
                cwd=workdir, env=env, timeout=TIME_LIMIT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        digest = hashlib.sha256()
        out.seek(0)
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
        err.seek(0)
        return code, digest.hexdigest(), err.read().decode(errors="replace")


def calls(seeds: list[int], calls_file: str | None, workdir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every call: the workloads at each seed, then the file's."""
    listed = []
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for call in workloads.generate(workload, seed, workdir):
                listed.append((f"{workload}:{seed}#{call['id']}", call["argv"]))
    if calls_file:
        lines = Path(calls_file).read_text(encoding="utf-8").splitlines()
        listed += [(f"{calls_file}:{i}", json.loads(line))
                   for i, line in enumerate(lines, 1) if line.strip()]
    return listed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1], help="workload seeds")
    parser.add_argument("--calls", help="file of JSON argv arrays, one call a line")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        other = Path(scratch) / "tree"
        workdir = os.path.join(scratch, "work")
        os.mkdir(workdir)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(other), args.rev], check=True)
        try:
            listed = calls(args.seeds, args.calls, workdir)
            mismatches = 0
            for label, argv in listed:
                here, there = run_call(ROOT, argv, workdir), run_call(other, argv, workdir)
                if here != there:
                    mismatches += 1
                    print(f"mismatch {label} {json.dumps(argv)}")
                    for name, a, b in zip(("exit", "stdout", "stderr"), there, here):
                        if a != b:
                            print(f"  {name}: {args.rev} {a!r}\n  {name}: tree {b!r}")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(other)], check=True)
    print(f"{len(listed)} calls, {mismatches} mismatches against {args.rev}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

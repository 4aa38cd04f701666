"""Compare the command-line output of the working tree with a revision's.

Run from anywhere in the repository:

    python3 tools/compare_outputs.py REV [--seeds 1 2] [--calls FILE] [--repeat N]

REV's files are written by ``git archive`` to a temporary directory,
removed again at the end.  Each call runs as ``python3 -m cobweb.cli`` in
this tree and in REV's, with ``PYTHONPATH`` set to that tree's ``src``, one
call at a time and for at most ``TIME_LIMIT_S`` seconds, spawned by the
benchmark's launcher ``perfbench/spawn.py``.  The calls are those
of the four benchmark workloads of ``perfbench/workloads.generate`` at each
seed, then one JSON array of arguments per nonblank line of FILE.  The exit
code, the SHA-256 of standard output and standard error are compared; every
mismatch is printed, and the script exits 1 if there is any.  Each call of
FILE is also measured in both trees: its exit code, wall seconds and peak
RSS (the child's own ``ru_maxrss``, read by ``os.wait4``).  With
``--repeat N`` it runs N times in each tree, the two trees alternating and
taking turns to go first, and the script prints each tree's medians and the
paired medians (this tree's run minus REV's run next to it, and that as a
share of REV's), then the paired medians over every measured pair.
``tools/startup_calls.jsonl`` holds one cheap call per command and one per
refusal path, sized so that start-up, not the computation, sets their time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)

TIME_LIMIT_S = 120


def launcher(tree: Path, outdir: str, workdir: str) -> subprocess.Popen:
    """``perfbench/spawn.py`` for one tree: a bare interpreter that spawns
    each call, with standard output and error in files of ``outdir``, and
    reads the child's exit code and own ``ru_maxrss`` with ``os.wait4``.  A
    child spawned by this script would report this script's peak RSS (about
    20 MB) as its own floor; the launcher's is a bare interpreter's."""
    os.mkdir(outdir)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, "-I", "-S", str(ROOT / "perfbench" / "spawn.py"), outdir,
         str(TIME_LIMIT_S)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=workdir, env=env, text=True,
    )


def run_call(spawner: subprocess.Popen, outdir: str, argv: list[str]) -> tuple[tuple, float, float]:
    """(exit code, SHA-256 of standard output, standard error) of one call,
    its wall seconds and its peak RSS in MB; the exit code is "timeout" for
    a call past the time limit."""
    spawner.stdin.write(json.dumps([sys.executable, "-m", "cobweb.cli", *argv]) + "\n")
    spawner.stdin.flush()
    report = json.loads(spawner.stdout.readline())
    digest = hashlib.sha256()
    with open(os.path.join(outdir, "child.stdout"), "rb") as out:
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
    with open(os.path.join(outdir, "child.stderr"), encoding="utf-8", errors="replace") as err:
        stderr = err.read()
    code = "timeout" if report["code"] is None else report["code"]
    return (code, digest.hexdigest(), stderr), report["wall_s"], report["maxrss_kb"] / 1024


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


def paired(pairs: list[tuple[float, float, float, float]]) -> str:
    """The paired medians of (tree s, REV s, tree MB, REV MB) runs: wall
    milliseconds, as a share of REV's, and peak-RSS megabytes."""
    wall_ms = statistics.median((here - there) * 1e3 for here, there, _, _ in pairs)
    share = statistics.median((here - there) / there for here, there, _, _ in pairs)
    rss_mb = statistics.median(here - there for _, _, here, there in pairs)
    return f"{wall_ms:+.2f} ms ({share:+.1%}), {rss_mb:+.2f} MB over {len(pairs)} pairs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1], help="workload seeds")
    parser.add_argument("--calls", help="file of JSON argv arrays, one call a line")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each call of FILE in each tree (default 1)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        other = Path(scratch) / "tree"
        workdir = os.path.join(scratch, "work")
        os.mkdir(workdir)
        os.mkdir(other)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(other)], input=archive, check=True)
        listed = calls(args.seeds, args.calls, workdir)
        here_dir, there_dir = os.path.join(scratch, "here"), os.path.join(scratch, "there")
        mismatches = 0
        every_pair = []
        with launcher(ROOT, here_dir, workdir) as here_spawner, \
                launcher(other, there_dir, workdir) as there_spawner:
            for label, argv, measured in listed:
                pairs = []
                mismatched = False
                for turn in range(args.repeat if measured else 1):
                    if turn % 2:
                        here, here_s, here_mb = run_call(here_spawner, here_dir, argv)
                        there, there_s, there_mb = run_call(there_spawner, there_dir, argv)
                    else:
                        there, there_s, there_mb = run_call(there_spawner, there_dir, argv)
                        here, here_s, here_mb = run_call(here_spawner, here_dir, argv)
                    pairs.append((here_s, there_s, here_mb, there_mb))
                    if here != there and not mismatched:
                        mismatched = True
                        mismatches += 1
                        print(f"mismatch {label} {json.dumps(argv)}")
                        for name, a, b in zip(("exit", "stdout", "stderr"), there, here):
                            if a != b:
                                print(f"  {name}: {args.rev} {a!r}\n  {name}: tree {b!r}")
                if measured:
                    every_pair += pairs
                    medians = [statistics.median(column) for column in zip(*pairs)]
                    here_s, there_s, here_mb, there_mb = medians
                    print(f"{label} {json.dumps(argv)}\n"
                          f"  {args.rev}: exit {there[0]}, {there_s:.3f} s, {there_mb:.1f} MB\n"
                          f"  tree: exit {here[0]}, {here_s:.3f} s, {here_mb:.1f} MB")
                    if args.repeat > 1:
                        print(f"  paired: {paired(pairs)}")
    if every_pair and args.repeat > 1:
        print(f"all measured calls, paired: {paired(every_pair)}")
    print(f"{len(listed)} calls, {mismatches} mismatches against {args.rev}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

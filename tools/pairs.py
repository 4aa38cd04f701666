"""Run the benchmark on this tree and on a revision's, in alternating pairs.

Run from anywhere in the repository:

    python3 tools/pairs.py REV [--workload NAME ...] [--pairs N] [--seconds S]
                           [--first-seed S] [--claim WORKLOAD:METRIC]
                           [--change TEXT] [--out FILE]

This tree's files (tracked and untracked but not ignored, as ``git
ls-files`` lists them, uncommitted edits included) and REV's files (``git
archive``) are written to two directories whose paths have one length, under
one temporary directory removed at the end: a child's peak RSS moves by one
128 KB step with the length of its tree's path, and neither copy holds a
``__pycache__`` or a ``perfbench/.work`` left by an earlier run.  For each
workload (default: all four of ``BENCHMARK.json``), pair i runs

    python3 perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0

once in each tree, from that tree's root, both at seed ``--first-seed + i``:
REV's tree first in even pairs and this tree's first in odd ones.  The
children run with ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPATH`` of the
caller's, so neither tree gains a bytecode cache, and each run reads its
tree's ``src`` (``perfbench/procs.child_env``).  ``run.py`` stops at
``--seconds``, so a faster tree may make more passes than the other.

One line is printed per run.  Then, for each workload and each end-to-end
metric of ``BENCHMARK.json``: the quartiles of each side's runs, the pairs
on which this tree read lower and higher, the relative change of the
medians and the metric's bound, with a verdict: "worse past its bound"
where the change's median is worse than REV's by more than the bound,
"unresolved" where either side's quartile spread exceeds the bound, and
"within bound" otherwise.  ``--claim WORKLOAD:METRIC`` also judges one
claimed gain: better in at least 9 of 10 pairs, and a median gap larger
than REV's quartile spread.  ``--out`` writes all of it as one JSON object
with the fields of the committed ``BENCH_*.json`` files.  The script exits 1
if any run read ``correct: false`` or failed to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
RUN_FIELDS = ["seed", "side", "ran_first", "attempted", "failed", *METRICS]
# A claimed gain must show in this share of the pairs (9 of 10).
CLAIM_WINS = 0.9


def write_trees(rev: str, scratch: Path) -> dict[str, Path]:
    """This tree's files and REV's, each in a directory of ``scratch`` whose
    name has the other's length."""
    trees = {"change": scratch / "change", "parent": scratch / "parent"}
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, stdout=subprocess.PIPE,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a deleted file stays listed until it is staged
            target = trees["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    trees["parent"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    return trees


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``run.py --trace 0`` run in ``tree``: correct,
    attempted, failed and the metrics."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree.name}: {result.stderr.strip()[-500:]}")
    return json.loads(result.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3 (``statistics.quantiles``, inclusive), rounded."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summary(runs: list[list], name: str) -> dict:
    """One metric over a workload's runs: each side's quartiles, the pairs
    each side read lower on, the relative change of the medians and the
    bound."""
    column = RUN_FIELDS.index(name)
    values = {side: [run[column] for run in runs if run[1] == side] for side in ("parent", "change")}
    pairs = list(zip(values["parent"], values["change"]))
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    relative = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
    return {
        "unit": METRICS[name]["unit"],
        "parent": parent,
        "change": change,
        "change_lower_in_pairs": sum(c < p for p, c in pairs),
        "change_higher_in_pairs": sum(c > p for p, c in pairs),
        "relative_change": round(relative, 4),
        "bound": METRICS[name]["bound"],
    }


def verdict(name: str, metric: dict) -> str:
    """Whether the change is worse than REV past the metric's bound, or
    either side spreads past it."""
    sign = 1 if METRICS[name]["better"] == "lower" else -1
    if sign * metric["relative_change"] > metric["bound"]:
        return "worse past its bound"
    for side in ("parent", "change"):
        q = metric[side]
        if q["median"] and (q["q3"] - q["q1"]) / q["median"] > metric["bound"]:
            return "unresolved"
    return "within bound"


def claim(workload: str, name: str, metric: dict, pairs: int) -> dict:
    """The claimed gain's rule, whether it is met and the evidence."""
    lower = METRICS[name]["better"] == "lower"
    wins = metric["change_lower_in_pairs" if lower else "change_higher_in_pairs"]
    parent, change = metric["parent"], metric["change"]
    gap = (parent["median"] - change["median"]) * (1 if lower else -1)
    spread = parent["q3"] - parent["q1"]
    needed = math.ceil(CLAIM_WINS * pairs)
    return {
        "workload": workload,
        "metric": name,
        "rule": "change better in at least 9 of 10 pairs, and the medians differ by more "
                "than the parent's IQR",
        "met": wins >= needed and gap > spread,
        "evidence": f"better in {wins} of {pairs} pairs; median {parent['median']} -> "
                    f"{change['median']} {metric['unit']}, parent IQR {round(spread, 4)} "
                    f"{metric['unit']}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in BENCHMARK["workloads"]],
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help=f"run.py --seconds (default {BENCHMARK['run_seconds']})")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain to judge")
    parser.add_argument("--change", default="", help="what the change does, for --out")
    parser.add_argument("--out", help="write the runs and the summary to this JSON file")
    args = parser.parse_args()
    seeds = [args.first_seed + i for i in range(args.pairs)]
    report = {
        "change": args.change,
        "harness": f"python3 tools/pairs.py {args.rev} --pairs {args.pairs} --seconds "
                   f"{args.seconds:g} --first-seed {args.first_seed}: python3 perfbench/run.py "
                   f"--workload W --seed S --seconds {args.seconds:g} --trace 0 in copies of "
                   f"this tree and of {args.rev} (git archive) at paths of one length, no "
                   "bytecode cache, pairs alternating which side runs first, one seed per pair",
        "machine": f"{os.cpu_count()}-vCPU {platform.machine()}, Python "
                   f"{platform.python_version()}",
        "claimed": None,
        "quartiles": "statistics.quantiles(method='inclusive') over the runs of one side",
        "wins": "change_lower_in_pairs / change_higher_in_pairs count the pairs each side "
                "read lower on; ties count for neither",
        "run_fields": RUN_FIELDS,
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        trees = write_trees(args.rev, Path(scratch))
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = bench(trees[side], workload, seed, args.seconds)
                    ok &= result["correct"] is True
                    values = [result["metrics"][name]["value"] for name in METRICS]
                    runs.append([seed, side, side == order[0], result["attempted"],
                                 result["failed"], *(round(v, 4) for v in values)])
                    print(f"{workload} seed {seed} {side:6s} correct {result['correct']} "
                          + " ".join(f"{n} {v:.4g}" for n, v in zip(RUN_FIELDS[3:], runs[-1][3:])),
                          flush=True)
            metrics = {name: summary(runs, name) for name in METRICS}
            report["workloads"][workload] = {
                "pairs": args.pairs, "seeds": seeds,
                "failed_calls": sum(run[4] for run in runs),
                "metrics": metrics, "runs": runs,
            }
            for name, metric in metrics.items():
                p, c = metric["parent"], metric["change"]
                print(f"{workload} {name}: {args.rev} {p['median']} [{p['q1']}, {p['q3']}], "
                      f"tree {c['median']} [{c['q1']}, {c['q3']}] {metric['unit']}; tree "
                      f"lower in {metric['change_lower_in_pairs']}, higher in "
                      f"{metric['change_higher_in_pairs']} of {args.pairs} pairs; "
                      f"{metric['relative_change']:+.2%} against a bound of "
                      f"{metric['bound']:.0%}: {verdict(name, metric)}", flush=True)
    if args.claim:
        workload, name = args.claim.split(":")
        metric = report["workloads"][workload]["metrics"][name]
        report["claimed"] = claim(workload, name, metric, args.pairs)
        print(f"claim {args.claim}: {'met' if report['claimed']['met'] else 'not met'}; "
              f"{report['claimed']['evidence']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if not ok:
        print("a run read correct: false")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record payload digests for calls that have no independent checker.

Run from the root of a checkout, at the commit whose payloads are the
reference::

    python3 perfbench/record_digests.py

It runs every ``prefab laws`` instance and every finishing ``poset pack``
instance of the workload pools through the command line and writes the
exit code and SHA-256 of standard output to ``perfbench/digests.json``.
A packing instance that the checker can also verify by a closed form or the
brute-force oracle is recorded only if that verification passes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import procs  # noqa: E402
import workloads as w  # noqa: E402


def main() -> int:
    # Verify against the independent routes only, never against the digests
    # being replaced.
    check._digests = lambda: {}
    root = os.getcwd()
    env = procs.child_env(root)
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    calls = [w._laws(spec, samples, seed)
             for spec in w.LAW_SPECS for samples in w.LAW_SAMPLES for seed in w.LAW_SEEDS]
    calls += [w._pack(*inst) for inst in w.PACK_SOLVABLE + w.PACK_CHEAP]
    digests = {}
    with procs.Launcher(workdir, env, 60.0) as launcher:
        results = [launcher.run(procs.cli_argv(call["argv"])) for call in calls]
    for call, result in zip(calls, results):
        if result.code not in (0, 1) or not result.stdout_bytes:
            raise SystemExit(f"{call['argv']}: exit {result.code}: {result.stderr[-300:]}")
        if call["kind"] == "pack":
            try:
                exp = check.expected(call)
            except KeyError:
                exp = None
            verdict = exp and check.judge(
                exp, result.code, result.stdout_sha256, result.stdout_bytes, result.stderr
            )
            if exp is not None and not verdict.ok:
                raise SystemExit(f"{call['argv']}: payload disagrees with the checker")
        digests[check.digest_key(call["argv"])] = {"code": result.code, "sha256": result.stdout_sha256}
        print(f"{result.wall_s:6.2f}s exit {result.code} {' '.join(call['argv'])}")
    with open(check.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

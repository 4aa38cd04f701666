"""Benchmark of the ``cobweb`` command line on four seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload coefficients --seed 1 --seconds 20 --trace 0

One client runs the workload's call list in a closed loop: each call is a
fresh ``python -m cobweb.cli ...`` process, started only after the previous
one has exited (one child at a time).  Every call's exit code and standard
output are checked by ``check.py``; a call fails on a wrong exit code, a
wrong payload, a crash, or the per-call time limit.  Passes over the list
repeat while another pass still fits in ``--seconds``; there is always at
least one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
command-line pass, then the same calls in process through the library twice
(untraced, then traced with spans around every layer boundary), and reports
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 6.0
SETUP_EVERY = 20
REFERENCE_EVERY = 2
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s", "call_p50_ms": "ms", "call_p90_ms": "ms",
    "error_rate": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}


SETUP_ARGV = [sys.executable, "-c", "import cobweb.cli"]
REFERENCE_ARGV = [sys.executable, "-I", "-S", "-c", "pass"]
# Nominal bare interpreter start (REFERENCE_ARGV): scaled times read as if
# every reference start took this long.  On the 2-vCPU Intel Xeon virtual
# machine the baseline was measured on (Python 3.11.7) it took 12-20 ms.
REFERENCE_START_S = 0.018
REFERENCE_WINDOW = 3


def setup_probe(launcher: procs.Launcher) -> float:
    """Wall time of interpreter start plus ``import cobweb.cli``."""
    result = launcher.run(SETUP_ARGV)
    if result.code != 0:
        raise RuntimeError(f"importing cobweb.cli failed: {result.stderr.strip()[-300:]}")
    return result.wall_s


def expectations(calls: list[dict]) -> None:
    """Attach each call's expected outcome, as exit code plus payload digest."""
    cache: dict[str, dict] = {}
    for call in calls:
        key = json.dumps(call["argv"])
        if key not in cache:
            exp = check.expected(call)
            cache[key] = {"code": exp.code, "digest": exp.digest, "refusal": exp.refusal}
        call["expect"] = cache[key]


def scale_factors(references: list[float]) -> list[float]:
    """For reference start i: REFERENCE_START_S over the median of the
    reference starts nearest to it (REFERENCE_WINDOW on each side)."""
    return [
        REFERENCE_START_S / statistics.median(references[max(0, i - REFERENCE_WINDOW) : i + REFERENCE_WINDOW + 1])
        for i in range(len(references))
    ]


def cli_pass(calls: list[dict], launcher: procs.Launcher, setup_walls: list[float]) -> list[dict]:
    """Run the calls in order, each as its own process.

    Before every REFERENCE_EVERY-th call the launcher also times a bare
    interpreter start (REFERENCE_ARGV), which no change to this repository
    can affect, and before every SETUP_EVERY-th call a set-up probe.  Call and set-up times
    are reported scaled by the nearby reference starts (see ``scale_factors``):
    shared virtual machines run faster or slower for minutes at a time, and
    the scaling keeps that drift out of the comparison between two commits.
    A call stopped at the time limit keeps its unscaled time.
    """
    records, references, setups = [], [], []
    for i, call in enumerate(calls):
        if i % REFERENCE_EVERY == 0:
            references.append(launcher.run(REFERENCE_ARGV).wall_s)
        if i % SETUP_EVERY == 0:
            setups.append((i, setup_probe(launcher)))
        result = launcher.run(procs.cli_argv(call["argv"]))
        verdict = check.judge(
            check.Expected(**call["expect"]), result.code,
            result.stdout_sha256, result.stdout_bytes, result.stderr,
        )
        records.append({
            "id": call["id"], "wall_s": result.wall_s, "rss_kb": result.maxrss_kb,
            "timed_out": result.code is None, "reference_s": references[-1],
            "ok": verdict.ok, "wrong": verdict.wrong, "reason": verdict.reason,
        })
    factors = [f for f in scale_factors(references) for _ in range(REFERENCE_EVERY)]
    for record, factor in zip(records, factors):
        record["scaled_s"] = record["wall_s"] * (1.0 if record["timed_out"] else factor)
    setup_walls += [wall * factors[i] for i, wall in setups]
    return records


def run_inproc(calls_path: str, out_path: str, traced: bool, spans_path: str | None, env: dict) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "inproc.py"), calls_path, out_path,
        "--trace", str(int(traced)), "--time-limit", str(TIME_LIMIT_S),
    ]
    if spans_path:
        argv += ["--spans", spans_path]
    subprocess.run(argv, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of the order statistics.  It uses the samples around the
    quantile rather than the one or two nearest to it, so one noisy call
    moves it far less than it moves the plain interpolated percentile."""
    x = sorted(values)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    weights = []
    for i in range(n):
        total = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            total += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(total / (steps * n))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(pass_records: list[list[dict]], setup_s: float, key: str = "scaled_s") -> dict:
    records = [r for rs in pass_records for r in rs]
    walls = [r[key] for r in records]
    return {
        "wall_s": statistics.median(sum(r[key] for r in rs) for rs in pass_records),
        "call_p50_ms": percentile(walls, 0.5) * 1000,
        "call_p90_ms": percentile(walls, 0.9) * 1000,
        "error_rate": sum(not r["ok"] for r in records) / len(records),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        "setup_s": setup_s,
    }


def per_layer(cli_records: list[dict], untraced: dict, traced: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the traced in-process run."""
    ns = 1e-9
    layers = traced["layers"]
    out: dict[str, tuple[float, str]] = {}
    for layer in ("fseq", "fnomial", "poset", "incidence", "prefab", "series"):
        out[f"{layer}.self_s"] = (layers[layer]["self_ns"] * ns, "s")
        out[f"{layer}.calls"] = (layers[layer]["calls"], "count")
        out[f"{layer}.errors"] = (layers[layer]["errors"], "count")
    cli_self = layers["cli"]["self_ns"] + layers["serialize"]["self_ns"]
    out["cli.self_s"] = (cli_self * ns, "s")
    out["cli.calls"] = (layers["cli"]["calls"], "count")
    out["cli.errors"] = (layers["cli"]["errors"], "count")
    counters, maxima = traced["counters"], traced["maxima"]
    out["fnomial.coefficients"] = (counters.get("fnomial.coefficients", 0), "count")
    out["fnomial.max_bits"] = (maxima.get("fnomial.max_bits", 0), "bits")
    out["fseq.pairs_scanned"] = (counters.get("fseq.pairs_scanned", 0), "count")
    out["incidence.entries"] = (counters.get("incidence.entries", 0), "count")
    out["incidence.matrix_dim_max"] = (maxima.get("incidence.matrix_dim_max", 0), "count")
    out["poset.copies"] = (counters.get("poset.copies", 0), "count")
    packs = traced["packs"]
    out["poset.pack_solved_ratio"] = (traced["packs_solved"] / packs if packs else 0.0, "ratio")
    out["poset.refusal_s"] = (traced["refusal_ns"] * ns, "s")
    out["poset.vertices"] = (counters.get("poset.vertices", 0), "count")
    out["poset.chains_walked"] = (counters.get("poset.chains_walked", 0), "count")
    out["series.coefficients"] = (counters.get("series.coefficients", 0), "count")
    out["series.max_bits"] = (maxima.get("series.max_bits", 0), "bits")
    out["prefab.samples"] = (counters.get("prefab.samples", 0), "count")
    out["cli.serialize_s"] = (layers["serialize"]["self_ns"] * ns, "s")
    out["cli.payload_bytes"] = (traced["payload_bytes"], "bytes")
    untraced_s = sum(r["wall_s"] for r in untraced["records"])
    traced_s = sum(r["wall_s"] for r in traced["records"])
    out["cli.overhead_s"] = (sum(r["wall_s"] for r in cli_records) - untraced_s, "s")
    out["inproc.untraced_s"] = (untraced_s, "s")
    out["inproc.traced_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cobweb", "cli.py")):
        print("error: run from the root of a checkout that holds src/cobweb", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = procs.child_env(root)

    calls = workloads.generate(args.workload, args.seed, os.path.relpath(workdir, root))
    warmup = workloads.warmup_call(args.workload)
    expectations(calls + [warmup])
    with procs.Launcher(workdir, env, TIME_LIMIT_S) as launcher:
        launcher.run(procs.cli_argv(warmup["argv"]))
        setup_walls: list[float] = []
        passes: list[list[dict]] = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(cli_pass(calls, launcher, setup_walls))
            pass_time = time.perf_counter() - pass_start
            if args.trace or time.perf_counter() - start + pass_time > args.seconds:
                break
    records = [r for rs in passes for r in rs]
    with open(os.path.join(workdir, "records.json"), "w", encoding="utf-8") as handle:
        json.dump([dict(r, argv=c["argv"]) for r, c in zip(passes[0], calls)], handle)

    if args.trace:
        calls_path = os.path.join(workdir, "calls.json")
        with open(calls_path, "w", encoding="utf-8") as handle:
            json.dump({"calls": calls, "warmup": warmup}, handle)
        untraced = run_inproc(calls_path, os.path.join(workdir, "inproc-0.json"), False, None, env)
        traced = run_inproc(
            calls_path, os.path.join(workdir, "inproc-1.json"), True,
            os.path.join(workdir, f"spans-{args.workload}.csv"), env,
        )
        records += untraced["records"] + traced["records"]
        metrics = per_layer(passes[0], untraced, traced)
    else:
        figures = end_to_end(passes, statistics.median(setup_walls))
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in figures.items()}
        raw = end_to_end(passes, statistics.median(setup_walls), key="wall_s")
        reference = statistics.median(r["reference_s"] for r in records)
        print(
            f"unscaled: wall_s = {raw['wall_s']:.6g} s, call_p50_ms = {raw['call_p50_ms']:.6g} ms, "
            f"call_p90_ms = {raw['call_p90_ms']:.6g} ms; reference start {reference * 1000:.4g} ms"
        )

    failed = [r for r in records if not r["ok"]]
    by_id = {c["id"]: c for c in calls}
    for r in passes[0]:
        if not r["ok"]:
            print(f"failed call {r['id']}: {' '.join(by_id[r['id']]['argv'])}: {r['reason']}")
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es) of {len(calls)} calls")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-process run of a call list through ``cobweb.cli.main``, traced or not.

Run as a child of ``run.py`` from the root of a checkout::

    python3 perfbench/inproc.py CALLS.json OUT.json --trace 0|1 --time-limit S [--spans PATH]

Each call runs ``cobweb.cli.main(argv)`` with standard output and error
captured, under the same per-call time limit as the command-line run (a
SIGALRM timer that interrupts the call).  Every output is checked.  With
``--trace 1`` the package's public functions are wrapped (see ``tracing.py``)
and each call is a root span of layer ``cli``; per-layer totals go to
OUT.json and every span to the ``--spans`` file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracing  # noqa: E402


class CallTimeout(BaseException):
    """Raised by the timer; a BaseException so no handler in the program
    under test can swallow it."""


def _alarm(signum, frame):
    raise CallTimeout()


def run_one(cli, argv: list[str], time_limit_s: float) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, time_limit_s)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except CallTimeout:
        code = None
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


def layer_totals(tracer: tracing.Tracer) -> dict:
    """Self time, calls and errors per layer, from the recorded spans."""
    selfs = tracing.self_times(tracer.spans)
    totals = {layer: {"self_ns": 0, "calls": 0, "errors": 0} for layer in tracing.LAYERS + ("serialize",)}
    refusal_ns = packs = solved = 0
    for span, self_ns in zip(tracer.spans, selfs):
        name, layer, start, end, _parent, _call, error = span
        row = totals[layer]
        row["self_ns"] += self_ns
        row["calls"] += 1
        row["errors"] += error is not None
        if name == "poset.max_disjoint_packing" and end is not None:
            packs += 1
            solved += error is None
            if error in ("PackingCapError", "ValueError"):
                refusal_ns += end - start
    return {"layers": totals, "packs": packs, "packs_solved": solved, "refusal_ns": refusal_ns}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("calls")
    parser.add_argument("out")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans")
    parser.add_argument("--time-limit", type=float, required=True)
    args = parser.parse_args()
    with open(args.calls, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import cobweb.cli as cli

    signal.signal(signal.SIGALRM, _alarm)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    run_one(cli, spec["warmup"]["argv"], args.time_limit)
    tracer.spans.clear()
    tracer.counters.clear()
    tracer.maxima.clear()
    records = []
    payload_bytes = 0
    for call in spec["calls"]:
        exp = check.Expected(**call["expect"])
        tracer.call_id = call["id"]
        root = tracer.open("cli.main", "cli") if args.trace else None
        code, stdout, stderr, wall = run_one(cli, call["argv"], args.time_limit)
        if args.trace:
            tracer.reset_stack()
            tracer.stack.append(root)
            tracer.close(root)
        payload = stdout.encode()
        verdict = check.judge(exp, code, check.sha256(stdout), len(payload), stderr)
        if args.trace and not verdict.ok:
            tracer.spans[root][6] = "failed"
        payload_bytes += len(payload)
        records.append({"id": call["id"], "wall_s": wall, "ok": verdict.ok,
                        "wrong": verdict.wrong, "reason": verdict.reason})
    result = {"records": records, "payload_bytes": payload_bytes}
    if args.trace:
        result.update(layer_totals(tracer))
        result["counters"] = dict(tracer.counters)
        result["maxima"] = dict(tracer.maxima)
        if args.spans:
            tracing.write_spans(tracer, args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

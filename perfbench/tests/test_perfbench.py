"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import os
import signal
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STALL = ["poset", "pack", "--spec", "natural", "--root-level", "5", "--m", "2"]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def workdir(tmp_path):
    return os.path.relpath(tmp_path, ROOT)


def _files(calls):
    out = {}
    for call in calls:
        spec = call["params"].get("spec", "")
        if spec.startswith("file:"):
            with open(spec[5:], encoding="utf-8") as handle:
                out[spec] = handle.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_call_list(workload, workdir):
    first = workloads.generate(workload, 11, workdir)
    first_files = _files(first)
    second = workloads.generate(workload, 11, workdir)
    assert second == first
    assert _files(second) == first_files
    assert workloads.generate(workload, 12, workdir) != first
    assert len(first) == workloads.CALLS_PER_PASS


def test_known_defects_appear_once_in_every_pass(workdir):
    for seed in range(5):
        instances = [tuple(c["params"].values()) for c in workloads.generate("packing", seed, workdir)]
        assert sum(i in workloads.PACK_STALLS for i in instances) == 1
        assert sum(i in workloads.PACK_PRINT_CRASH for i in instances) == 1


def _point_call():
    return {"kind": "fnomial", "argv": ["fnomial", "--spec", "natural", "--n", "6", "--k", "2"],
            "params": {"spec": "natural", "n": 6, "k": 2}}


def test_tampered_payload_or_exit_code_fails(workdir):
    call = _point_call()
    exp = check.expected(call)
    env = procs.child_env(ROOT)
    with procs.Launcher(workdir, env, 30.0) as launcher:
        result = launcher.run(procs.cli_argv(call["argv"]))
    good = check.judge(exp, result.code, result.stdout_sha256, result.stdout_bytes, result.stderr)
    assert good.ok and not good.wrong
    tampered = '{"value": "16", "integral": true}\n'
    bad_payload = check.judge(exp, 0, check.sha256(tampered), len(tampered), "")
    assert not bad_payload.ok and bad_payload.wrong
    bad_code = check.judge(exp, 1, result.stdout_sha256, result.stdout_bytes, "")
    assert not bad_code.ok and bad_code.wrong
    crashed = check.judge(exp, 2, check.sha256(""), 0, "error: Exceeds the limit")
    assert not crashed.ok and not crashed.wrong


def test_refusal_must_name_the_cap():
    call = {"kind": "pack", "argv": ["poset", "pack", "--spec", "fibonacci", "--root-level", "3", "--m", "4"],
            "params": {"spec": "fibonacci", "root": 3, "m": 4}}
    exp = check.expected(call)
    assert exp.refusal
    empty = check.sha256("")
    assert check.judge(exp, 2, empty, 0, "error: instance has 120120 copies, above the cap of 5000").ok
    assert not check.judge(exp, 2, empty, 0, "error: Exceeds the limit (4300 digits)").ok


def test_timed_out_child_is_killed_and_counted_failed(workdir):
    env = procs.child_env(ROOT)
    with procs.Launcher(workdir, env, 0.5) as launcher:
        result = launcher.run(procs.cli_argv(STALL))
    assert result.code is None
    assert result.wall_s < 5
    with pytest.raises(ProcessLookupError):
        os.kill(result.pid, 0)
    exp = check.expected({"kind": "pack", "argv": STALL, "params": {"spec": "natural", "root": 5, "m": 2}})
    verdict = check.judge(exp, result.code, result.stdout_sha256, result.stdout_bytes, result.stderr)
    assert not verdict.ok and verdict.reason == "time limit"


def test_in_process_call_is_interrupted_at_the_time_limit():
    import inproc

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cobweb.cli as cli

    old = signal.signal(signal.SIGALRM, inproc._alarm)
    try:
        code, stdout, _, wall = inproc.run_one(cli, STALL, 0.3)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert code is None and stdout == "" and wall < 3


def test_span_self_times_never_exceed_their_span(tmp_path, workdir):
    calls = [c for c in workloads.generate("incidence", 3, workdir) if c["kind"] in ("build", "chains", "zeta")][:12]
    calls += [_point_call() | {"id": 1000}]
    warmup = workloads.warmup_call("incidence")
    run.expectations(calls + [warmup])
    calls_path, out_path, spans_path = (str(tmp_path / n) for n in ("calls.json", "out.json", "spans.csv"))
    with open(calls_path, "w", encoding="utf-8") as handle:
        json.dump({"calls": calls, "warmup": warmup}, handle)
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "inproc.py"), calls_path, out_path,
         "--trace", "1", "--spans", spans_path, "--time-limit", "30"],
        check=True, env=procs.child_env(ROOT), timeout=120,
    )
    with open(out_path, encoding="utf-8") as handle:
        result = json.load(handle)
    assert all(r["ok"] for r in result["records"])
    with open(spans_path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    spans = [[r["name"], None, int(r["start_ns"]), int(r["end_ns"]), int(r["parent"]), int(r["call_id"]), None]
             for r in rows]
    assert len(spans) > len(calls)
    for span, self_ns in zip(spans, tracing.self_times(spans)):
        assert 0 <= self_ns <= span[3] - span[2]
    roots = [s for s in spans if s[4] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * len(calls)
    assert {s[0].split(".")[0] for s in spans} >= {"cli", "fseq", "poset", "incidence"}


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    layers = {name: {"self_ns": 1, "calls": 1, "errors": 0} for name in tracing.LAYERS + ("serialize",)}
    traced = {"layers": layers, "counters": {}, "maxima": {}, "packs": 0, "packs_solved": 0,
              "refusal_ns": 0, "payload_bytes": 0, "records": [{"wall_s": 1.0}]}
    untraced = {"records": [{"wall_s": 1.0}]}
    reported = run.per_layer([{"wall_s": 2.0}], untraced, traced)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in reported.items()]

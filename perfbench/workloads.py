"""Seeded call lists for the four benchmark workloads.

A workload is a fixed recipe of call kinds.  Each kind names a command, how
many calls of it one pass makes, and the pool its parameters come from.  The
seed picks the instances: interior points of numeric ranges, random point
queries, the contents of ``file:`` sequences, and the call order.  Heavy
calls sit on an even grid over their range, both ends included and interior
points jittered slightly, so the costliest call, the peak memory and the
per-call time distribution of a pass hardly depend on the seed; the number
of calls that hit a known defect is the same in every pass.

The program under test only ever sees the generated argument lists and the
``file:`` JSON files written into the benchmark's work directory.
"""

from __future__ import annotations

import json
import os
import random

CALLS_PER_PASS = 100
WORKLOADS = ("coefficients", "incidence", "packing", "series")


def spread(rng: random.Random, lo: int, hi: int, k: int, jitter: float = 0.03) -> list[int]:
    """k integers on an even grid over [lo, hi].  Both ends are always
    included; interior points move by up to ``jitter`` of the range, so the
    seed varies the instances while the cost of a pass stays steady."""
    if k == 1:
        return [hi]
    out = [lo]
    for i in range(1, k - 1):
        point = lo + (hi - lo) * (i / (k - 1) + rng.uniform(-jitter, jitter))
        out.append(round(point))
    out.append(hi)
    return out


def _call(kind: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "argv": argv, "params": params}


def _triangle(spec: str, rows: int, fmt: str) -> dict:
    return _call(
        "triangle",
        ["fnomial", "triangle", "--spec", spec, "--rows", str(rows), "--format", fmt],
        spec=spec, rows=rows, format=fmt,
    )


def _point(spec: str, n: int, k: int) -> dict:
    return _call(
        "fnomial",
        ["fnomial", "--spec", spec, "--n", str(n), "--k", str(k)],
        spec=spec, n=n, k=k,
    )


def _seq_check(spec: str, upto: int, flag: str) -> dict:
    return _call(
        "seq_check",
        ["seq", "check", "--spec", spec, "--upto", str(upto), f"--{flag}"],
        spec=spec, upto=upto, flag=flag,
    )


def _matrix(which: str, spec: str, levels: int, fmt: str) -> dict:
    return _call(
        which,
        ["poset", which, "--spec", spec, "--levels", str(levels), "--format", fmt],
        spec=spec, levels=levels, format=fmt,
    )


def _chains(spec: str, levels: int, lo: int, hi: int, mode: str) -> dict:
    return _call(
        "chains",
        [
            "poset", "chains", "--spec", spec, "--levels", str(levels),
            "--from-level", str(lo), "--to-level", str(hi), "--mode", mode,
        ],
        spec=spec, levels=levels, from_level=lo, to_level=hi, mode=mode,
    )


def _levels_call(which: str, spec: str, levels: int) -> dict:
    return _call(
        which,
        ["poset", which, "--spec", spec, "--levels", str(levels)],
        spec=spec, levels=levels,
    )


def _pack(spec: str, root: int, m: int) -> dict:
    return _call(
        "pack",
        ["poset", "pack", "--spec", spec, "--root-level", str(root), "--m", str(m)],
        spec=spec, root=root, m=m,
    )


def _qbell(q: int, n: int, oracle: bool = False) -> dict:
    argv = ["series", "qbell", "--q", str(q), "--n", str(n)]
    return _call("qbell", argv + (["--oracle"] if oracle else []), q=q, n=n, oracle=oracle)


def _series(which: str, spec: str, order: int) -> dict:
    return _call(
        which,
        ["series", which, "--spec", spec, "--order", str(order)],
        spec=spec, order=order,
    )


def _bell(spec: str, n: int) -> dict:
    return _call(
        "bell",
        ["series", "bell", "--spec", spec, "--n", str(n), "--oracle"],
        spec=spec, n=n,
    )


def _laws(spec: str, samples: int, seed: int) -> dict:
    return _call(
        "laws",
        ["prefab", "laws", "--spec", spec, "--samples", str(samples), "--seed", str(seed)],
        spec=spec, samples=samples, seed=seed,
    )


def _compose(op: str, a: str, b: str, spec: str) -> dict:
    return _call(
        "compose",
        ["prefab", "compose", "--op", op, "--a", a, "--b", b, "--spec", spec],
        op=op, a=a, b=b, spec=spec,
    )


def _swept(make, spec: str, values: list[int], formats=("csv", "json")) -> list[dict]:
    """One call per value; formats alternate by rank so the largest instance
    always gets the same format."""
    return [make(spec, v, formats[i % len(formats)]) for i, v in enumerate(sorted(values))]


class _FileSpecs:
    """Seeded ``file:`` sequences, written under the work directory."""

    def __init__(self, rng: random.Random, workdir: str, tag: str):
        self.rng = rng
        self.workdir = workdir
        self.tag = tag
        self.count = 0

    def new(self, length: int, top: int) -> str:
        terms = [self.rng.randint(1, top) for _ in range(length)]
        path = os.path.join(self.workdir, f"{self.tag}-{self.count}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(terms, handle)
        return f"file:{path}"


# Sequences used for cheap point queries; sizes keep every value under the
# 4300-digit print limit (the limit is exercised by dedicated defect calls).
POINT_SPECS = ("fibonacci", "natural", "gauss:2", "gauss:3", "bg:2", "even", "mult:3", "const:2")


def _coefficients(rng: random.Random, files: _FileSpecs) -> list[dict]:
    calls = []
    calls += _swept(_triangle, "fibonacci", spread(rng, 60, 200, 3))
    calls += _swept(_triangle, "natural", spread(rng, 60, 100, 2))
    calls += _swept(_triangle, "gauss:2", spread(rng, 60, 100, 2))
    calls += _swept(_triangle, "gauss:3", spread(rng, 60, 80, 2))
    calls += _swept(_triangle, "bg:2", spread(rng, 60, 80, 2))
    for rows in spread(rng, 20, 40, 2):
        calls.append(_triangle(files.new(rows, 9), rows, rng.choice(("csv", "json"))))
    for spec, hi in (("fibonacci", 110), ("natural", 100), ("gauss:2", 90), ("bg:2", 80)):
        calls += [_seq_check(spec, upto, "admissible") for upto in spread(rng, 60, hi, 2)]
    for _ in range(2):
        calls.append(_seq_check(files.new(40, 9), 40, "admissible"))
    calls += [_seq_check("fibonacci", upto, "gcd-morphic") for upto in spread(rng, 500, 600, 2)]
    calls += [_seq_check("gauss:2", upto, "gcd-morphic") for upto in spread(rng, 500, 600, 2)]
    calls += [_seq_check("natural", upto, "gcd-morphic") for upto in spread(rng, 500, 1000, 2)]
    calls.append(_seq_check("bg:2", rng.randint(500, 2000), "gcd-morphic"))
    # Known defect: the coefficient is exact but has more than 4300 digits,
    # so printing it fails after the computation succeeded.
    n = rng.randint(180, 240)
    calls.append(_point("bg:2", n, n // 2 + rng.randint(-5, 5)))
    point_file = files.new(150, 9)
    while len(calls) < CALLS_PER_PASS:
        spec = rng.choice(POINT_SPECS + (point_file,))
        n = rng.randint(1, 150)
        calls.append(_point(spec, n, rng.randint(0, n)))
    return calls


def _incidence(rng: random.Random, files: _FileSpecs) -> list[dict]:
    fmt = ("json", "csv")
    calls = []
    calls += _swept(lambda s, L, f: _matrix("mobius", s, L, f), "fibonacci", [9, 10, 11, 12, 13], fmt)
    calls += _swept(lambda s, L, f: _matrix("mobius", s, L, f), "gauss:2", [6, 7, 8], fmt)
    calls += _swept(lambda s, L, f: _matrix("mobius", s, L, f), "natural", spread(rng, 10, 16, 2), fmt)
    calls += _swept(lambda s, L, f: _matrix("zeta", s, L, f), "fibonacci", spread(rng, 9, 13, 3), fmt)
    calls += _swept(lambda s, L, f: _matrix("zeta", s, L, f), "gauss:2", [6, 8], fmt)
    calls += _swept(lambda s, L, f: _matrix("zeta", s, L, f), "natural", spread(rng, 10, 16, 2), fmt)
    calls += [_levels_call("dim2", "fibonacci", L) for L in spread(rng, 9, 11, 3)]
    calls += [_levels_call("dot", "fibonacci", L) for L in spread(rng, 10, 12, 2)]
    calls.append(_levels_call("dot", "gauss:2", 8))
    calls.append(_chains("fibonacci", 11, 0, 11, "matrix"))
    calls.append(_chains("fibonacci", 10, rng.randint(1, 4), 10, "matrix"))
    calls.append(_chains("natural", 16, rng.randint(0, 3), rng.randint(12, 16), "matrix"))
    calls.append(_chains("gauss:2", 7, rng.randint(0, 2), 7, "matrix"))
    # Enumeration walks every chain; each instance stays at or under ~2.2M.
    calls.append(_chains("fibonacci", 9, 0, 9, "enumerate"))
    calls.append(_chains("natural", 10, 3, 10, "enumerate"))
    calls.append(_chains("natural", 9, rng.randint(0, 3), 9, "enumerate"))
    # Known defect: a product-formula chain count above 4300 digits.
    top = rng.randint(175, 220)
    calls.append(_chains("gauss:2", top, 0, top, "product"))
    while len(calls) < CALLS_PER_PASS:
        spec = rng.choice(("fibonacci", "natural", "gauss:2", "even", "const:2"))
        L = rng.randint(2, 5 if spec in ("gauss:2", "even") else 7)
        which = rng.choice(("zeta", "mobius", "build", "chains", "chains", "dim2"))
        if which in ("zeta", "mobius"):
            calls.append(_matrix(which, spec, L, rng.choice(fmt)))
        elif which == "chains":
            lo = rng.randint(0, L - 1)
            calls.append(_chains(spec, L, lo, rng.randint(lo + 1, L), rng.choice(("product", "matrix", "enumerate"))))
        else:
            calls.append(_levels_call(which, spec, L))
    return calls


# Instances that finish today, each in 0.1-1.5 s; every pass makes each once
# and one medium-cost instance six times more, so that more than ten calls
# of a pass are heavier than the cheap bulk and the 90th percentile falls
# among calls of one cost.
# (mult:c appears among the cheap instances; mult:2 coincides with even.)
PACK_SOLVABLE = (
    ("natural", 3, 2), ("even", 2, 2), ("gauss:2", 1, 2),
    ("fibonacci", 3, 3), ("const:3", 1, 4), ("custom:1,2,3,4", 1, 2),
    ("custom:1,2,3,5,8", 2, 2), ("custom:1,2,4,5", 2, 2), ("custom:1,3,9", 1, 2),
)
PACK_REPEATED = (("natural", 3, 2),) * 6
# Cheap instances that finish in well under a second.
PACK_CHEAP = (
    ("natural", 1, 2), ("natural", 2, 2), ("natural", 4, 2), ("natural", 6, 2),
    ("natural", 1, 3), ("even", 1, 2), ("mult:3", 1, 1), ("fibonacci", 1, 3),
    ("const:2", 1, 2), ("const:2", 2, 3), ("natural", 3, 1), ("gauss:2", 2, 1),
    ("custom:1,2,3,4", 2, 1),
)
# Above the default cap of 5000 copies: refused with exit code 2.
PACK_REFUSED = (
    ("fibonacci", 3, 4), ("fibonacci", 4, 4), ("gauss:2", 1, 3), ("natural", 6, 3),
    ("even", 3, 2), ("gauss:2", 4, 2),
)
# Known stalls: the search does not finish within the per-call time limit.
PACK_STALLS = (("natural", 5, 2), ("natural", 7, 2))
# Known defect: refused by the cap, but the refusal message prints the copy
# count, which has more than 4300 digits.
PACK_PRINT_CRASH = (("gauss:2", 20, 15), ("gauss:2", 19, 15))


def _packing(rng: random.Random, files: _FileSpecs) -> list[dict]:
    calls = [_pack(*inst) for inst in PACK_SOLVABLE + PACK_REPEATED]
    calls.append(_pack(*rng.choice(PACK_STALLS)))
    calls.append(_pack(*rng.choice(PACK_PRINT_CRASH)))
    calls += [_pack(*inst) for inst in PACK_REFUSED]
    while len(calls) < CALLS_PER_PASS:
        calls.append(_pack(*rng.choice(PACK_CHEAP)))
    return calls


LAW_SAMPLES = (5000, 12500, 20000)
LAW_SPECS = ("fibonacci", "natural")
LAW_SEEDS = tuple(range(10))


def _series_calls(rng: random.Random, files: _FileSpecs) -> list[dict]:
    calls = []
    calls += [_qbell(2, n) for n in spread(rng, 20, 120, 3)]
    calls += [_qbell(3, n) for n in spread(rng, 20, 85, 2)]
    calls += [_qbell(5, n) for n in spread(rng, 20, 75, 2)]
    calls += [_series("enumerator", "natural", o) for o in spread(rng, 40, 250, 2)]
    calls += [_series("enumerator", "fibonacci", o) for o in spread(rng, 40, 120, 2)]
    calls += [_series("enumerator", "gauss:2", o) for o in spread(rng, 40, 100, 2)]
    calls += [_series("expf", "natural", o) for o in spread(rng, 40, 300, 2)]
    calls += [_series("expf", "fibonacci", o) for o in spread(rng, 40, 180, 2)]
    calls += [_series("expf", "gauss:2", o) for o in spread(rng, 40, 160, 2)]
    calls += [_bell("natural", n) for n in spread(rng, 20, 32, 2)]
    calls += [_bell("fibonacci", n) for n in spread(rng, 20, 30, 2)]
    # Medium-cost law checks, several at one sample count, so that the 90th
    # percentile of a pass falls among calls of one cost.
    for samples in LAW_SAMPLES + (12500,) * 3:
        calls.append(_laws(rng.choice(LAW_SPECS), samples, rng.choice(LAW_SEEDS)))
    # Known defects: values above 4300 digits fail when printed.
    calls.append(_qbell(5, rng.randint(80, 83)))
    calls.append(_series("expf", "fibonacci", rng.randint(210, 300)))
    while len(calls) < CALLS_PER_PASS:
        roll = rng.random()
        if roll < 0.5:
            spec = rng.choice(("fibonacci", "natural", "gauss:2", "bg:2", "const:2"))
            a, b = (_random_layer(rng) for _ in range(2))
            calls.append(_compose(rng.choice(("odot", "circ")), a, b, spec))
        elif roll < 0.65:
            q = rng.choice((2, 3, 5))
            n = rng.randint(1, 4 if q == 2 else 3)
            calls.append(_qbell(q, n, oracle=True))
        elif roll < 0.8:
            calls.append(_qbell(rng.choice((2, 3, 5)), rng.randint(1, 19)))
        elif roll < 0.9:
            spec = rng.choice(("fibonacci", "natural", "gauss:2"))
            calls.append(_series(rng.choice(("expf", "enumerator")), spec, rng.randint(1, 39)))
        else:
            calls.append(_bell(rng.choice(("fibonacci", "natural")), rng.randint(1, 15)))
    return calls


def _random_layer(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return "i"
    k = rng.randint(0, 20)
    return f"{k},{k + rng.randint(1, 20)}"


_BUILDERS = {
    "coefficients": _coefficients,
    "incidence": _incidence,
    "packing": _packing,
    "series": _series_calls,
}


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """The call list of one pass; identical for identical (workload, seed).

    ``file:`` sequences are written into ``workdir``.  Each call gets an
    ``id`` that is its position in the returned list.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files = _FileSpecs(rng, workdir, f"{workload}-{seed}")
    calls = _BUILDERS[workload](rng, files)
    rng.shuffle(calls)
    for i, call in enumerate(calls):
        call["id"] = i
    return calls


def warmup_call(workload: str) -> dict:
    """One cheap, untimed call that fills the bytecode cache before timing."""
    call = {
        "coefficients": _point("natural", 10, 3),
        "incidence": _levels_call("build", "natural", 4),
        "packing": _pack("natural", 1, 2),
        "series": _compose("odot", "1,3", "0,2", "natural"),
    }[workload]
    call["id"] = -1
    return call

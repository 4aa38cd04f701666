"""Correctness checker for benchmark calls, independent of the code under test.

Expected payloads come from the checker's own arithmetic: sequence terms
from their defining formulas, coefficient triangles from the Fraction row
recurrence (n over k) = (n over k-1) * F_(n-k+1) / F_k, incidence matrices
from the closed forms zeta(x,y) = [s(x) < s(y)] and
mu(x,y) = (-1)^(t-s) * prod_{s<r<t} (F_r - 1), chain counts from products of
level sizes, and series coefficients from an integer recurrence over
F-nomials.  Packing maxima use closed forms where they exist (m = 1, and
m = 2 with F_1 = 1), the unpruned brute-force packing oracle from
``tests/oracles.py`` on small instances, and, for the rest and for the
sampled law reports, digests of the payloads recorded at the commit that
introduced the benchmark (``digests.json``).

A call *fails* when its exit code, payload or refusal does not match, when it
crashes, or when it hits the per-call time limit.  A failed call is also
*wrong* when it printed a payload, or claimed a verification result through
its exit code, that disagrees with the expected one: a wrong answer, as
opposed to a refusal, a crash or a timeout.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
PACK_CAP = 5000
# Brute-force packing is exponential; beyond this many copies it is not used.
BRUTE_PACK_MAX_COPIES = 40


@dataclass(frozen=True)
class Expected:
    """What a correct run of one call looks like: its exit code and the
    SHA-256 of its standard output.  ``refusal`` marks calls whose correct
    outcome is an exit-2 refusal with an empty payload and a reason that
    names the cap."""

    code: int
    digest: str
    refusal: bool = False


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool
    reason: str


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@contextmanager
def unlimited_int_digits():
    """Lift the 4300-digit str/int limit for the checker's own conversions."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ----------------------------------------------------------------- sequences


def terms(spec: str, upto: int) -> list[int]:
    """F_0..F_upto from the sequence's definition (F_0 is never used)."""
    head, _, tail = spec.partition(":")
    if spec == "fibonacci":
        out = [0, 1]
        while len(out) <= upto:
            out.append(out[-1] + out[-2])
        return out[: upto + 1]
    if head == "file":
        with open(tail, encoding="utf-8") as handle:
            values = json.load(handle)
        return [0] + values[:upto]
    if head == "custom":
        return [0] + [int(v) for v in tail.split(",")][:upto]
    rules = {
        "natural": lambda n: n,
        "even": lambda n: 2 * n,
        "mult": lambda n: int(tail) * n,
        "gauss": lambda n: (int(tail) ** n - 1) // (int(tail) - 1),
        "bg": lambda n: (int(tail) ** n - 1) * int(tail) ** (n - 1),
        "const": lambda n: int(tail),
    }
    rule = rules[head if head in rules else spec]
    return [0] + [rule(n) for n in range(1, upto + 1)]


def fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def triangle_rows(F: list[int], rows: int) -> list[list[Fraction]]:
    """Row recurrence: (n over k) = (n over k-1) * F_(n-k+1) / F_k."""
    out = []
    for n in range(rows):
        row = [Fraction(1)]
        for k in range(1, n + 1):
            row.append(row[-1] * F[n - k + 1] / F[k])
        out.append(row)
    return out


def fnomial(F: list[int], n: int, k: int) -> Fraction:
    return Fraction(math.prod(F[n - k + 1 : n + 1]), math.prod(F[1 : k + 1]))


def factorials(F: list[int], upto: int) -> list[int]:
    out = [1]
    for n in range(1, upto + 1):
        out.append(out[-1] * F[n])
    return out


def scaled_enumerator(F: list[int], upto: int) -> list[Fraction]:
    """D_n = F_n! [x^n] exp(exp_F(x) - 1), by the recurrence
    n D_n = sum_j j (n over j)_F D_(n-j) with integer F-nomials (F admissible)."""
    fac = factorials(F, upto)
    D = [Fraction(1)]
    for n in range(1, upto + 1):
        total = sum(j * (fac[n] // (fac[j] * fac[n - j])) * D[n - j] for j in range(1, n + 1))
        D.append(total / n)
    return D


def gl_order(q: int, n: int) -> int:
    return math.prod(q**n - q**i for i in range(n))


def q_bell(q: int, n: int) -> int:
    """Decompositions of GF(q)^n: the same recurrence over |GL_j(q)|."""
    g = [gl_order(q, j) for j in range(n + 1)]
    D = [1]
    for m in range(1, n + 1):
        total = sum(j * (g[m] // (g[j] * g[m - j])) * D[m - j] for j in range(1, m + 1))
        D.append(total // m)
    return D[n]


# ------------------------------------------------------------ expected values


def _dumps(payload) -> str:
    return json.dumps(payload) + "\n"


def _text(code: int, stdout: str) -> Expected:
    return Expected(code, sha256(stdout))


def _expect_triangle(p: dict) -> Expected:
    F = terms(p["spec"], max(p["rows"] - 1, 0))
    rows = [[fraction_text(v) for v in row] for row in triangle_rows(F, p["rows"])]
    if p["format"] == "csv":
        return _text(0, "\n".join(",".join(r) for r in rows) + "\n")
    return _text(0, _dumps(rows))


def _expect_point(p: dict) -> Expected:
    value = fnomial(terms(p["spec"], p["n"]), p["n"], p["k"])
    return _text(0, _dumps({"value": fraction_text(value), "integral": value.denominator == 1}))


GCD_MORPHIC_FAMILIES = ("fibonacci", "natural", "gauss:2", "gauss:3", "const:2")


def _expect_seq_check(p: dict) -> Expected:
    spec, upto = p["spec"], p["upto"]
    F = terms(spec, upto)
    payload: dict = {"spec": spec, "upto": upto}
    if p["flag"] == "admissible":
        body: dict = {"verdict": "admissible"}
        for n, row in enumerate(triangle_rows(F, upto + 1)):
            bad = next((k for k, v in enumerate(row) if v.denominator != 1 or v < 0), None)
            if bad is not None:
                body = {
                    "verdict": "violation",
                    "first_violation": {"n": n, "k": bad, "value": fraction_text(row[bad])},
                }
                break
        payload["admissible"] = body
        return _text(0 if body["verdict"] == "admissible" else 1, _dumps(payload))
    if spec in GCD_MORPHIC_FAMILIES:
        # gcd(F_n, F_m) = F_gcd(n,m) is a theorem for these families; scanning
        # every pair here would cost as much as the call under test.
        payload["gcd_morphic"] = {"gcd_morphic": True}
        return _text(0, _dumps(payload))
    for n in range(1, upto + 1):
        for m in range(1, n + 1):
            if math.gcd(F[n], F[m]) != F[math.gcd(n, m)]:
                payload["gcd_morphic"] = {"gcd_morphic": False, "first_violation": {"n": n, "m": m}}
                return _text(1, _dumps(payload))
    payload["gcd_morphic"] = {"gcd_morphic": True}
    return _text(0, _dumps(payload))


def _levels(spec: str, L: int) -> list[int]:
    F = terms(spec, L)
    return [1] + F[1 : L + 1]


def _labels(sizes: list[int]) -> list[tuple[int, int]]:
    return [(j, s) for s, size in enumerate(sizes) for j in range(1, size + 1)]


def _mobius_block(sizes: list[int], s: int, t: int) -> int:
    if t == s:
        return 1
    if t < s:
        return 0
    return (-1) ** (t - s) * math.prod(sizes[r] - 1 for r in range(s + 1, t))


def _expect_matrix(p: dict, which: str) -> Expected:
    sizes = _levels(p["spec"], p["levels"])
    labels = _labels(sizes)
    L = len(sizes) - 1
    if which == "zeta":
        block = {(s, t): ("1" if s < t else "0") for s in range(L + 1) for t in range(L + 1)}
    else:
        block = {(s, t): str(_mobius_block(sizes, s, t)) for s in range(L + 1) for t in range(L + 1)}
    rows = []
    for x in labels:
        row = []
        for y in labels:
            if x == y:
                row.append("1")
            elif x[1] == y[1]:
                row.append("0")
            else:
                row.append(block[(x[1], y[1])])
        rows.append(row)
    if p["format"] == "csv":
        return _text(0, "\n".join(",".join(r) for r in rows) + "\n")
    text = [f"{j},{s}" for j, s in labels]
    return _text(0, _dumps({"labels": text, "rows": rows}))


def _expect_chains(p: dict) -> Expected:
    sizes = _levels(p["spec"], p["levels"])
    count = math.prod(sizes[p["from_level"] + 1 : p["to_level"] + 1])
    payload = {
        "spec": p["spec"], "levels": p["levels"], "from_level": p["from_level"],
        "to_level": p["to_level"], "mode": p["mode"], "count": str(count),
    }
    return _text(0, _dumps(payload))


def _expect_build(p: dict) -> Expected:
    sizes = _levels(p["spec"], p["levels"])
    return _text(0, _dumps({"spec": p["spec"], "levels": [str(s) for s in sizes]}))


def _expect_dim2(p: dict) -> Expected:
    sizes = _levels(p["spec"], p["levels"])
    l1 = [f"{j},{s}" for s, size in enumerate(sizes) for j in range(1, size + 1)]
    l2 = [f"{j},{s}" for s, size in enumerate(sizes) for j in range(size, 0, -1)]
    payload = {"spec": p["spec"], "levels": p["levels"], "verified": True, "l1": l1, "l2": l2}
    return _text(0, _dumps(payload))


def _expect_dot(p: dict) -> Expected:
    sizes = _levels(p["spec"], p["levels"])
    lines = ["digraph cobweb {"]
    lines += [f'    "{j},{s}" [label="{j},{s}"];' for j, s in _labels(sizes)]
    for s in range(len(sizes) - 1):
        for a in range(1, sizes[s] + 1):
            lines += [f'    "{a},{s}" -> "{b},{s + 1}";' for b in range(1, sizes[s + 1] + 1)]
    lines.append("}")
    return _text(0, "\n".join(lines) + "\n")


class _Copy:
    """An embedded prime copy as its per-level vertex sets, for the oracle."""

    def __init__(self, sets):
        self.sets = sets

    def is_max_disjoint(self, other: "_Copy") -> bool:
        return not all(a & b for a, b in zip(self.sets, other.sets))


@lru_cache(maxsize=None)
def _oracles():
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src")]
    spec = importlib.util.spec_from_file_location("bench_oracles", os.path.join(root, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def brute_max_packing(sizes_needed: list[int], sizes_avail: list[int]) -> int:
    from itertools import combinations, product

    per_level = [
        [frozenset(c) for c in combinations(range(avail), need)]
        for need, avail in zip(sizes_needed, sizes_avail)
    ]
    copies = [_Copy(sets) for sets in product(*per_level)]
    return _oracles().brute_max_packing(copies)


@lru_cache(maxsize=None)
def _digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest_key(argv: list[str]) -> str:
    return " ".join(argv)


def _expect_pack(p: dict, argv: list[str]) -> Expected:
    k, m = p["root"], p["m"]
    F = terms(p["spec"], k + m)
    copies = math.prod(math.comb(F[k + j], F[j]) for j in range(1, m + 1))
    if copies > PACK_CAP:
        return Expected(2, sha256(""), refusal=True)
    chains = math.prod(F[k + 1 : k + m + 1])
    quotient = Fraction(chains, math.prod(F[1 : m + 1]))
    if m == 1:
        best = F[k + 1] // F[1]
    elif m == 2 and F[1] == 1:
        best = F[k + 1] * (F[k + 2] // F[2])
    elif copies <= BRUTE_PACK_MAX_COPIES:
        best = brute_max_packing(F[1 : m + 1], F[k + 1 : k + m + 1])
    else:
        return _expect_recorded(argv)
    payload = {
        "spec": p["spec"], "root_level": k, "m": m, "n": k + m,
        "copies_total": str(copies), "chains_total": str(chains),
        "quotient_bound": fraction_text(quotient), "max_packing": str(best),
        "tight": Fraction(best) == quotient,
    }
    return _text(0 if payload["tight"] else 1, _dumps(payload))


def _expect_recorded(argv: list[str]) -> Expected:
    recorded = _digests().get(digest_key(argv))
    if recorded is None:
        raise KeyError(f"no recorded digest for {digest_key(argv)!r}")
    return Expected(recorded["code"], recorded["sha256"])


def _expect_series(p: dict, which: str) -> Expected:
    F = terms(p["spec"], p["order"])
    fac = factorials(F, p["order"])
    if which == "expf":
        coeffs = [Fraction(1, f) for f in fac]
    else:
        D = scaled_enumerator(F, p["order"])
        coeffs = [d / f for d, f in zip(D, fac)]
    return _text(0, _dumps([fraction_text(c) for c in coeffs]))


def _expect_bell(p: dict) -> Expected:
    value = fraction_text(scaled_enumerator(terms(p["spec"], p["n"]), p["n"])[p["n"]])
    payload = {"spec": p["spec"], "n": p["n"], "value": value, "oracle": value, "match": True}
    return _text(0, _dumps(payload))


@lru_cache(maxsize=None)
def _decomposition_oracle(q: int, n: int) -> int:
    _oracles()
    from cobweb.series import decomposition_oracle

    return decomposition_oracle(q, n)


def _expect_qbell(p: dict) -> Expected:
    q, n = p["q"], p["n"]
    value = q_bell(q, n)
    payload: dict = {"q": q, "n": n, "formula": str(value)}
    if p["oracle"]:
        if n <= 3 and _decomposition_oracle(q, n) != value:
            raise AssertionError(f"checker recurrence disagrees with the oracle at q={q}, n={n}")
        payload["oracle"] = str(value)
        payload["match"] = True
    return _text(0, _dumps(payload))


def _parse_layer(text: str):
    if text == "i":
        return None
    k, n = (int(v) for v in text.split(","))
    return (k, n)


def _expect_compose(p: dict) -> Expected:
    a, b = _parse_layer(p["a"]), _parse_layer(p["b"])
    show = lambda x: "i" if x is None else f"{x[0]},{x[1]}"
    if a is None or b is None:
        result = b if a is None else a
    elif p["op"] == "odot":
        result = (a[1], a[1] + b[1] - b[0])
    else:
        result = (a[0] + b[0], a[1] + b[1])
    payload: dict = {
        "op": p["op"], "a": show(a), "b": show(b), "result": show(result),
        "width": 0 if result is None else result[1] - result[0],
    }
    if result is not None:
        k, n = result
        F = terms(p["spec"], n)
        value = fnomial(F, n, k)
        payload["coefficient"] = fraction_text(value)
        payload["integral"] = value.denominator == 1
        if p["op"] == "odot":
            payload["f_size"] = str(math.prod(F[1 : n + 1]))
    return _text(0, _dumps(payload))


def expected(call: dict) -> Expected:
    """The correct outcome of a call, computed without the code under test
    (except the small-size oracles and recorded digests named above)."""
    kind, p, argv = call["kind"], call["params"], call["argv"]
    with unlimited_int_digits():
        if kind == "triangle":
            return _expect_triangle(p)
        if kind == "fnomial":
            return _expect_point(p)
        if kind == "seq_check":
            return _expect_seq_check(p)
        if kind in ("zeta", "mobius"):
            return _expect_matrix(p, kind)
        if kind == "chains":
            return _expect_chains(p)
        if kind == "build":
            return _expect_build(p)
        if kind == "dim2":
            return _expect_dim2(p)
        if kind == "dot":
            return _expect_dot(p)
        if kind == "pack":
            return _expect_pack(p, argv)
        if kind in ("expf", "enumerator"):
            return _expect_series(p, kind)
        if kind == "bell":
            return _expect_bell(p)
        if kind == "qbell":
            return _expect_qbell(p)
        if kind == "compose":
            return _expect_compose(p)
        if kind == "laws":
            return _expect_recorded(argv)
    raise ValueError(f"no checker for call kind {kind!r}")


def judge(exp: Expected, code: int | None, stdout_sha256: str, stdout_bytes: int, stderr: str) -> Verdict:
    """Compare one observed outcome with the expected one.

    ``code`` is None for a call that hit the time limit and was killed.
    """
    if code is None:
        return Verdict(False, False, "time limit")
    tail = (stderr.strip().splitlines()[-1:] or [""])[0][:120]
    if exp.refusal:
        if code == 2 and not stdout_bytes and "cap" in stderr:
            return Verdict(True, False, "refused")
        return Verdict(False, stdout_bytes > 0, f"expected a cap refusal, got exit {code}: {tail}")
    payload_ok = stdout_sha256 == exp.digest
    if payload_ok and code == exp.code:
        return Verdict(True, False, "ok")
    if not stdout_bytes:
        return Verdict(False, False, f"exit {code}, no payload: {tail}")
    if not payload_ok:
        return Verdict(False, True, f"wrong payload (exit {code})")
    return Verdict(False, True, f"wrong exit code {code}, expected {exp.code}")

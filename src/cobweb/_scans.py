"""The two prefix scans of ``fseq``, their reports and the ``cobweb seq
check`` handler, loaded by ``fseq.is_cobweb_admissible_prefix`` and
``fseq.is_gcd_morphic_prefix`` when they run and by a ``seq check`` call, so
that no other call compiles them.

The handler calls the scans through ``fseq``, so it runs what that module
holds at the time of the call: a variant under test, or a tracing wrapper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import fseq
from .fseq import FSequence, SequenceError, parse_sequence

if TYPE_CHECKING:
    from fractions import Fraction
    from types import SimpleNamespace


class AdmissibilityReport(NamedTuple):
    """Outcome of an exact coefficient-integrality scan over one prefix.

    ``verdict`` is "admissible" or "violation"; it never says anything
    beyond the scanned bound.
    """

    spec: str
    bound: int
    verdict: str
    violation: tuple[int, int] | None = None
    value: int | Fraction | None = None

    @property
    def admissible(self) -> bool:
        return self.verdict == "admissible"

    def to_json_dict(self) -> dict:
        out: dict = {"spec": self.spec, "upto": self.bound, "verdict": self.verdict}
        if self.violation is not None:
            n, k = self.violation
            out["first_violation"] = {"n": n, "k": k, "value": str(self.value)}
        return out


class GcdMorphismReport(NamedTuple):
    """Whether gcd(F_n, F_m) = F_gcd(n, m) held for every pair up to a bound."""

    spec: str
    bound: int
    gcd_morphic: bool
    violation: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "spec": self.spec,
            "upto": self.bound,
            "gcd_morphic": self.gcd_morphic,
        }
        if self.violation is not None:
            n, m = self.violation
            out["first_violation"] = {"n": n, "m": m}
        return out


def _admissible_scan(F: FSequence, bound: int) -> AdmissibilityReport:
    """``fseq.is_cobweb_admissible_prefix``: every coefficient is decided in
    exact rational arithmetic, and rows are streamed, so a violation is
    found before any later term of the sequence is read."""
    from .fnomial import f_nomial_rows

    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    for n, row in zip(range(bound + 1), f_nomial_rows(F)):
        for k, value in enumerate(row):
            if value.denominator != 1 or value < 0:
                return AdmissibilityReport(F.spec, bound, "violation", (n, k), value)
    return AdmissibilityReport(F.spec, bound, "admissible")


def _gcd_morphic_scan(F: FSequence, bound: int) -> GcdMorphismReport:
    """``fseq.is_gcd_morphic_prefix``, row by row.

    Row n (the pairs m <= n) is decided by one criterion: when rows 1..n-1
    hold, row n holds iff gcd(F_n, L) = D_n, where L = lcm(F_1, ..., F_(n-1))
    and D_n = lcm{F_(n/p) : p prime, p | n} (D_1 = 1).  Per prime p, the
    earlier rows make {m < n : p^t | F_m} the multiples of a least element
    r_t, and both sides say that every t <= v_p(F_n) some earlier F_m reaches
    has r_t | n.  With c_n = F_n / D_n (D_n not dividing F_n fails the row),
    the row holds when gcd(c_n, L) = 1 and otherwise iff
    gcd(L, D_n * gcd(c_n, L)) = D_n; a passing row makes L * c_n the next L.
    L is held as ``folded * recent``, where ``recent`` is the product of the
    latest c_n, folded in once it passes 1/8 of the bits of ``folded``.  Only
    a failing row is scanned pair by pair, for its smallest violating m.

    So a row costs a few gcds and products against L instead of n gcds:
    O(N) big-integer operations in all for slowly growing terms, and for
    exponentially growing terms still O(n * |F_n|^2) digit operations per
    row, a constant factor below the pairwise scan.  F_n is read when row n
    is reached, so a violation is found before any later term of the
    sequence is read.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    terms = [0]  # F_0 is never read
    folded, recent = 1, 1  # L = folded * recent
    waiting: dict[int, list[int]] = {}  # n -> the primes of n met so far
    for n in range(1, bound + 1):
        term = F.term(n)
        if term <= 0:
            raise SequenceError(f"{F.spec!r} has a nonpositive term at index {n}")
        terms.append(term)
        # an incremental sieve: each prime waits at its next multiple, so
        # n > 1 is prime when no prime waits at n
        lower = 1  # D_n
        for p in waiting.pop(n, None) or ((n,) if n > 1 else ()):
            lower = math.lcm(lower, terms[n // p])
            waiting.setdefault(n + p, []).append(p)
        new, rest = divmod(term, lower)  # c_n
        if not rest:
            # gcd(x, L) as gcd(x, gcd(x, folded) * recent): in the exponent of
            # each prime, min(x, min(x, folded) + recent) = min(x, folded + recent)
            shared = math.gcd(new, math.gcd(new, folded) * recent)
            joint = lower * shared
            if shared == 1 or math.gcd(joint, math.gcd(joint, folded) * recent) == lower:
                recent *= new
                if recent.bit_length() * 8 > folded.bit_length():
                    folded, recent = folded * recent, 1
                continue
        # the criterion failed, so the row holds a violating pair
        for m in range(1, n):
            if math.gcd(term, terms[m]) != terms[math.gcd(n, m)]:
                return GcdMorphismReport(F.spec, bound, False, (n, m))
        raise AssertionError(f"row {n} of {F.spec!r} failed the criterion with no violating pair")
    return GcdMorphismReport(F.spec, bound, True)


def _cmd_seq_check(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb seq check``: both scans, or the one a flag names."""
    F = parse_sequence(args.spec)
    payload: dict = {"spec": args.spec, "upto": args.upto}
    failed = False
    for key, scan in (
        ("admissible", fseq.is_cobweb_admissible_prefix),
        ("gcd_morphic", fseq.is_gcd_morphic_prefix),
    ):
        if getattr(args, key) or not (args.admissible or args.gcd_morphic):
            report = scan(F, args.upto)
            body = report.to_json_dict()
            body.pop("spec")
            body.pop("upto")
            payload[key] = body
            failed |= not getattr(report, key)  # the verdict, named like the key
    return (1 if failed else 0), payload

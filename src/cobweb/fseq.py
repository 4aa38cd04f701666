"""Integer sequences that parameterize everything else in the package.

A sequence maps each index n >= 1 to a nonzero arbitrary-precision integer
F_n.  Index 0 is never consulted by downstream arithmetic: empty products are
taken as 1 and the bottom level of every poset holds a single vertex, so
whatever ``term(0)`` returns is irrelevant.

Sequences are immutable after construction and safe to share for concurrent
reads.  A scan over many candidate sequences emits one report per candidate,
in input order, and a broken candidate never aborts the rest of the scan.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator


class SequenceError(ValueError):
    """Malformed sequence spec or integer, zero term, or exhausted finite sequence."""


@dataclass(frozen=True, repr=False)
class FSequence:
    """An integer sequence n -> F_n, known by its spec, with nonzero terms for n >= 1."""

    spec: str
    _term: Callable[[int], int]

    def term(self, n: int) -> int:
        if n < 0:
            raise SequenceError(f"sequence index must be nonnegative, got {n}")
        value = self._term(n)
        if n >= 1 and value == 0:
            raise SequenceError(f"{self.spec!r} has a zero term at index {n}")
        return value

    def terms(self, upto: int) -> list[int]:
        """The prefix F_1, ..., F_upto."""
        return [self.term(n) for n in range(1, upto + 1)]

    def __repr__(self) -> str:
        return f"FSequence({self.spec!r})"


def _fibonacci_term() -> Callable[[int], int]:
    cache = [0, 1, 1]

    def term(n: int) -> int:
        while len(cache) <= n:
            cache.append(cache[-1] + cache[-2])
        return cache[n]

    return term


def _finite_term(values: list[int], spec: str) -> Callable[[int], int]:
    def term(n: int) -> int:
        if n == 0:
            return 0
        if n > len(values):
            raise SequenceError(
                f"{spec!r} defines only {len(values)} terms, index {n} requested"
            )
        return values[n - 1]

    return term


def parse_int(text: str) -> int:
    """The one integer grammar of specs, layer bounds and CLI options:
    ``-?[0-9]+``, so no "+", space, "_" or non-ASCII digit."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise SequenceError(f"malformed integer {text!r}")
    return int(text)


def parse_sequence(spec: str) -> FSequence:
    """Build a sequence from its spec string.

    Grammar: ``natural | even | mult:<uint> | fibonacci | gauss:<uint>=2> |
    bg:<uint>=2> | const:<nonzero int> | custom:<int>(,<int>)* | file:<path>``,
    where an integer is written ``-?[0-9]+``.  ``file`` content is a JSON
    array of integers (booleans are not integers) interpreted as F_1, F_2, ...
    """
    head, _, tail = spec.partition(":")

    if spec == "natural":
        return FSequence(spec, lambda n: n)
    if spec == "even":
        return FSequence(spec, lambda n: 2 * n)
    if spec == "fibonacci":
        return FSequence(spec, _fibonacci_term())
    if head == "mult":
        c = parse_int(tail)
        if c < 0:
            raise SequenceError(f"malformed sequence spec {spec!r}")
        if c == 0:
            raise SequenceError(f"{spec!r} has a zero term at index 1")
        return FSequence(spec, lambda n: c * n)
    if head == "gauss":
        q = parse_int(tail)
        if q < 2:
            raise SequenceError(f"gauss base must be an integer >= 2, got {spec!r}")
        return FSequence(spec, lambda n: (q**n - 1) // (q - 1))
    if head == "bg":
        q = parse_int(tail)
        if q < 2:
            raise SequenceError(f"bg base must be an integer >= 2, got {spec!r}")
        return FSequence(
            spec, lambda n: 0 if n == 0 else (q**n - 1) * q ** (n - 1)
        )
    if head == "const":
        c = parse_int(tail)
        if c == 0:
            raise SequenceError("const sequence requires a nonzero value")
        return FSequence(spec, lambda n: c)
    if head == "custom":
        if not tail:
            raise SequenceError(f"malformed sequence spec {spec!r}")
        values = [parse_int(piece) for piece in tail.split(",")]
        for i, v in enumerate(values, start=1):
            if v == 0:
                raise SequenceError(f"{spec!r} has a zero term at index {i}")
        return FSequence(spec, _finite_term(values, spec))
    if head == "file":
        if not tail:
            raise SequenceError(f"malformed sequence spec {spec!r}")
        try:
            with open(tail, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SequenceError(f"cannot read sequence file {tail!r}: {exc}") from None
        if not isinstance(data, list) or not all(type(v) is int for v in data):
            raise SequenceError(f"{tail!r} must hold a JSON array of integers")
        for i, v in enumerate(data, start=1):
            if v == 0:
                raise SequenceError(f"{spec!r} has a zero term at index {i}")
        return FSequence(spec, _finite_term(list(data), spec))

    raise SequenceError(f"unknown sequence spec {spec!r}")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of an exact coefficient-integrality scan over one prefix.

    ``verdict`` is "admissible" or "violation"; a scan that could not finish
    (zero term, exhausted finite sequence) reports "error" instead.  The
    verdict never says anything beyond the scanned bound.
    """

    spec: str
    bound: int
    verdict: str
    violation: tuple[int, int] | None = None
    value: Fraction | None = None
    error: str | None = None

    @property
    def admissible(self) -> bool:
        return self.verdict == "admissible"

    def to_json_dict(self) -> dict:
        out: dict = {"spec": self.spec, "upto": self.bound, "verdict": self.verdict}
        if self.violation is not None:
            n, k = self.violation
            out["first_violation"] = {"n": n, "k": k, "value": str(self.value)}
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class GcdMorphismReport:
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


def is_cobweb_admissible_prefix(F: FSequence, bound: int) -> AdmissibilityReport:
    """Scan all coefficients (n over k)_F for 0 <= k <= n <= bound.

    The verdict is "admissible" iff every coefficient is a nonnegative
    integer, decided in exact rational arithmetic.  The first offending
    (n, k) pair and its value are recorded otherwise.  Rows are streamed, so
    a violation is found before any later term of the sequence is read.
    """
    from .fnomial import f_nomial_rows

    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    for n, row in zip(range(bound + 1), f_nomial_rows(F)):
        for k, value in enumerate(row):
            if value.denominator != 1 or value < 0:
                return AdmissibilityReport(F.spec, bound, "violation", (n, k), value)
    return AdmissibilityReport(F.spec, bound, "admissible")


def is_gcd_morphic_prefix(F: FSequence, bound: int) -> GcdMorphismReport:
    """Check gcd(F_n, F_m) = F_gcd(n, m) for all 1 <= m <= n <= bound.

    F_n is read when row n is reached, so a violation is found before any
    later term of the sequence is read.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    terms = [0]  # F_0 is never read
    for n in range(1, bound + 1):
        terms.append(F.term(n))
        if terms[n] <= 0:
            raise SequenceError(f"{F.spec!r} has a nonpositive term at index {n}")
        for m in range(1, n + 1):
            if math.gcd(terms[n], terms[m]) != terms[math.gcd(n, m)]:
                return GcdMorphismReport(F.spec, bound, False, (n, m))
    return GcdMorphismReport(F.spec, bound, True)


def admissibility_scan(
    candidates: Iterable[FSequence], bound: int
) -> Iterator[AdmissibilityReport]:
    """One report per candidate, in input order; failures don't stop the scan."""
    for F in candidates:
        try:
            yield is_cobweb_admissible_prefix(F, bound)
        except SequenceError as exc:
            yield AdmissibilityReport(F.spec, bound, "error", error=str(exc))

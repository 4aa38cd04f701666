"""Integer sequences that parameterize everything else in the package.

A sequence maps each index n >= 1 to a nonzero arbitrary-precision integer
F_n.  Index 0 is never consulted by downstream arithmetic: empty products are
taken as 1 and the bottom level of every poset holds a single vertex, so
whatever ``term(0)`` returns is irrelevant.

Sequences are immutable after construction and safe to share for concurrent
reads.

``exact_quotient`` is the package's one exact-division rule: a quotient of
the integer type asked for where it is integral, a reduced ``Fraction``
otherwise, with ``fractions`` imported only on a remainder.  The ``cobweb
seq check`` handler closes the module.
"""

from __future__ import annotations

import json
import math
import operator
import re
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:  # named only in annotations: fractions load on a remainder
    from decimal import Decimal
    from fractions import Fraction
    from types import SimpleNamespace


class SequenceError(ValueError):
    """Malformed sequence spec or integer, zero term, or exhausted finite sequence."""


class _Frozen:
    """Base of the value types that are not tuples: the fields are the
    ``__slots__``, set once in ``__init__`` through their slot descriptors;
    equality, hash and repr go by the field values, and assigning to a field
    raises ``AttributeError``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the field values in one C-level call (a lone field's value alone), not
        # a Python loop: Prefabiant equality sits in the law checker's inner loop
        cls._values = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FSequence(_Frozen):
    """An integer sequence n -> F_n, known by its spec, with nonzero terms for n >= 1."""

    __slots__ = ("spec", "_term")

    def __init__(self, spec: str, term: Callable[[int], int]) -> None:
        FSequence.spec.__set__(self, spec)
        FSequence._term.__set__(self, term)

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


def _running_power(q: int, start: int = 1) -> Callable[[int], int]:
    """n -> start * q**n.  A read of n + 1 right after a read of n costs one
    multiplication by q; any other read is the power itself.  The last
    (n, value) is replaced as one tuple, so concurrent reads stay exact."""
    state = (0, start)

    def power(n: int) -> int:
        nonlocal state
        last, value = state
        if n == last + 1:
            value *= q
        elif n != last:
            value = start * q**n
        state = (n, value)
        return value

    return power


def _finite(values: list[int], spec: str) -> FSequence:
    """The finite sequence F_1, ..., F_len(values), refused at a zero term."""
    for i, v in enumerate(values, start=1):
        if v == 0:
            raise SequenceError(f"{spec!r} has a zero term at index {i}")

    def term(n: int) -> int:
        if n == 0:
            return 0
        if n > len(values):
            raise SequenceError(
                f"{spec!r} defines only {len(values)} terms, index {n} requested"
            )
        return values[n - 1]

    return FSequence(spec, term)


def parse_int(text: str) -> int:
    """The one integer grammar of specs, layer bounds and CLI options:
    ``-?[0-9]+``, so no "+", space, "_" or non-ASCII digit."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise SequenceError(f"malformed integer {text!r}")
    return int(text)


def exact_quotient(
    a: int | Decimal | Fraction, b: int, number: type = int
) -> int | Decimal | Fraction:
    """a / b for a nonzero integer b: of the integer type ``number`` (that of
    an integral a) when it is integral, else a reduced ``Fraction``.
    Integral values divide by one ``divmod``, no gcd, and ``fractions`` is
    imported only on a remainder or for a ``Fraction`` a.  A ``Decimal``
    needs the exact context of ``fnomial._exact_context``, and is never
    divided with ``/``, whose inexact quotient would expand to the context's
    precision."""
    if isinstance(a, number):
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
        a = int(a)
    from fractions import Fraction

    value = Fraction(a, b)
    return number(value.numerator) if value.denominator == 1 else value


def parse_sequence(spec: str) -> FSequence:
    """Build a sequence from its spec string.

    Grammar: ``natural | even | mult:<uint> | fibonacci | gauss:<uint>=2> |
    bg:<uint>=2> | const:<nonzero int> | custom:<int>(,<int>)* | file:<path>``,
    where an integer is written ``-?[0-9]+``.  ``file`` content is a JSON
    array of integers (booleans are not integers) interpreted as F_1, F_2, ...
    ``gauss:q`` and ``bg:q`` read their terms off running powers of q, so a
    term read right after the one before it costs one multiplication by q
    per power, not a fresh ``q**n``.
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
        power = _running_power(q)
        return FSequence(spec, lambda n: (power(n) - 1) // (q - 1))
    if head == "bg":
        q = parse_int(tail)
        if q < 2:
            raise SequenceError(f"bg base must be an integer >= 2, got {spec!r}")
        # (q^n - 1) q^(n-1) = q^(2n-1) - q^(n-1)
        low, high = _running_power(q), _running_power(q * q, q)
        return FSequence(spec, lambda n: high(n - 1) - low(n - 1) if n else 0)
    if head == "const":
        c = parse_int(tail)
        if c == 0:
            raise SequenceError("const sequence requires a nonzero value")
        return FSequence(spec, lambda n: c)
    if head == "custom":
        if not tail:
            raise SequenceError(f"malformed sequence spec {spec!r}")
        return _finite([parse_int(piece) for piece in tail.split(",")], spec)
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
        return _finite(data, spec)

    raise SequenceError(f"unknown sequence spec {spec!r}")


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
    sequence is read.  Bound 0 is vacuously gcd-morphic.
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
        ("admissible", is_cobweb_admissible_prefix),
        ("gcd_morphic", is_gcd_morphic_prefix),
    ):
        if getattr(args, key) or not (args.admissible or args.gcd_morphic):
            report = scan(F, args.upto)
            body = report.to_json_dict()
            body.pop("spec")
            body.pop("upto")
            payload[key] = body
            failed |= not getattr(report, key)  # the verdict, named like the key
    return (1 if failed else 0), payload

"""Integer sequences that parameterize everything else in the package.

A sequence maps each index n >= 1 to a nonzero arbitrary-precision integer
F_n.  Index 0 is never consulted by downstream arithmetic: empty products are
taken as 1 and the bottom level of every poset holds a single vertex, so
whatever ``term(0)`` returns is irrelevant.

Sequences are immutable after construction and safe to share for concurrent
reads.

``exact_quotient`` is the package's one exact-division rule: a quotient of
the integer type asked for where it is integral, a reduced ``Fraction``
otherwise, with ``fractions`` imported only on a remainder.

Every call loads this module, so it holds what every call runs.  That
includes ``_json_text``, which writes the text of every payload dict
(``cli._json``) and of the exports' heads (``_exports``): ``json.dumps``'s
text, written here where no string needs an escape, so only a payload with
such a string, or a ``file:`` spec's call, imports ``json``.  ``parse_int``
reads its grammar with ``str`` methods, so this module imports no ``re``.
The two prefix scans, their reports and the ``cobweb seq check`` handler are
in ``_scans``, which only a scan loads: the scans' entries here import it
when they run, and the report classes are read from it on first access.  The
finite sequences of ``custom:`` and ``file:`` specs are built in
``_finite``, which only such a spec loads.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # named only in annotations: fractions load on a remainder
    from decimal import Decimal
    from fractions import Fraction

    from ._scans import AdmissibilityReport, GcdMorphismReport


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
        # a Python loop, for each equality test and hash
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
    """n -> F_n by addition from the last (n, F_n, F_(n+1)), one tuple as in
    ``_running_power``; a read below it restarts from (0, 0, 1)."""
    state = (0, 0, 1)

    def term(n: int) -> int:
        nonlocal state
        last, a, b = state
        if n < last:
            last, a, b = 0, 0, 1
        for _ in range(last, n):
            a, b = b, a + b
        state = (n, a, b)
        return a

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


def parse_int(text: str) -> int:
    """The one integer grammar of specs, layer bounds and CLI options:
    ``-?[0-9]+``, so no "+", space, "_" or non-ASCII digit."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise SequenceError(f"malformed integer {text!r}")
    return int(text)


def _json_text(value: object) -> str:
    """``json.dumps(value)``: written here for dicts with ``str`` keys, lists,
    ``str``, ``int``, ``bool`` and ``None`` where every string is ASCII,
    printable and free of ``"`` and ``\\``, so that it needs no escape; any
    other value goes whole to ``json.dumps``, imported only then."""
    try:
        return _plain_json(value)
    except TypeError:
        import json

        return json.dumps(value)


def _plain_json(value: object) -> str:
    """``_json_text``'s own writer; ``TypeError`` where a string needs an
    escape or a value is of another type."""
    kind = type(value)
    if kind is str:
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif kind is int:
        return str(value)
    elif kind is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    elif kind is list:
        return f"[{', '.join(map(_plain_json, value))}]"
    elif kind is dict and all(type(key) is str for key in value):
        items = (f"{_plain_json(key)}: {_plain_json(item)}" for key, item in value.items())
        return f"{{{', '.join(items)}}}"
    raise TypeError(kind)


def exact_quotient(
    a: int | Decimal | Fraction, b: int, number: type = int
) -> int | Decimal | Fraction:
    """a / b for a nonzero integer b: of the integer type ``number`` (that of
    an integral a) when it is integral, else a reduced ``Fraction``.
    Integral values divide by one ``divmod``, no gcd, and ``fractions`` is
    imported only on a remainder or for a ``Fraction`` a.  A ``Decimal``
    needs the exact context of ``_triangle._exact_context``, and is never
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
    if head in ("custom", "file"):
        if not tail:
            raise SequenceError(f"malformed sequence spec {spec!r}")
        from ._finite import _finite_spec

        return _finite_spec(head, tail, spec)

    raise SequenceError(f"unknown sequence spec {spec!r}")


def is_cobweb_admissible_prefix(F: FSequence, bound: int) -> AdmissibilityReport:
    """Scan all coefficients (n over k)_F for 0 <= k <= n <= bound: the
    verdict is "admissible" iff every one is a nonnegative integer, and
    otherwise the report holds the first offending (n, k) and its value.
    The scan is ``_scans._admissible_scan``."""
    from ._scans import _admissible_scan

    return _admissible_scan(F, bound)


def is_gcd_morphic_prefix(F: FSequence, bound: int) -> GcdMorphismReport:
    """Check gcd(F_n, F_m) = F_gcd(n, m) for all 1 <= m <= n <= bound; the
    report holds the first violating (n, m), if any.  Bound 0 is vacuously
    gcd-morphic.  The scan is ``_scans._gcd_morphic_scan``."""
    from ._scans import _gcd_morphic_scan

    return _gcd_morphic_scan(F, bound)


def __getattr__(name: str) -> type:
    """The scan reports, defined with the scans in ``_scans``."""
    if name in ("AdmissibilityReport", "GcdMorphismReport"):
        from . import _scans

        return getattr(_scans, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

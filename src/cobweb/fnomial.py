"""Exact sequence factorials, falling products and coefficient triangles.

All arithmetic is arbitrary-precision integer or rational; there is no
floating-point mode.  Coefficients are exact: ``int`` where integral, a
reduced ``Fraction`` otherwise, the point queries included, each division
going through ``fseq.exact_quotient``.  An integral value costs one
``divmod``; ``fractions`` is imported only when a division leaves a
remainder, so integral calls never load it (nor ``decimal`` and
``numbers``, which it imports: about 2 ms of a process's start-up).  A
non-integral coefficient comes back rather than raised, so admissibility
scans can observe it.  For printing, the row generator runs in
``decimal.Decimal`` integers instead, whose decimal text costs time linear
in the digits; only then is ``decimal`` loaded.  The exporters yield each
row as two joined halves, its left half's texts and then their mirror,
with every separator, opening and closing a chunk of its own, so the largest
text they hold is half a row.  Every function here is pure and safe for
concurrent use.  The ``cobweb fnomial`` handlers close the module.
"""

from __future__ import annotations

import math
from itertools import chain, count, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .fseq import FSequence, exact_quotient, parse_sequence

if TYPE_CHECKING:
    from decimal import Context, Decimal
    from fractions import Fraction
    from types import SimpleNamespace


def _exact_context() -> Context:
    """The Decimal context of the row recurrence, fixed in full so that no
    setting of the caller's context reaches it: integer products and integer
    divisions stay exact up to MAX_PREC digits, and a result that is not is
    trapped."""
    from decimal import (
        MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, DivisionByZero, Inexact,
        InvalidOperation, Overflow, Rounded,
    )

    return Context(
        prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1,
        clamp=0, flags=[],
        traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
    )


def f_factorial(F: FSequence, n: int) -> int:
    """Product F_1 * F_2 * ... * F_n; the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"factorial index must be nonnegative, got {n}")
    return math.prod(F.term(j) for j in range(1, n + 1))


def falling_f(F: FSequence, n: int, k: int) -> int:
    """Product F_n * F_(n-1) * ... * F_(n-k+1); the empty product (k = 0) is 1."""
    if not 0 <= k <= n:
        raise ValueError(f"falling product needs 0 <= k <= n, got n={n}, k={k}")
    return math.prod(F.term(j) for j in range(n - k + 1, n + 1))


def f_nomial(F: FSequence, n: int, k: int) -> int | Fraction:
    """The coefficient (n over k)_F: an ``int`` where integral, else a
    reduced ``Fraction``.

    Computed as the falling product of length k divided by the k-factorial,
    which keeps intermediate magnitudes down; the three-factorial route
    F_n! / (F_k! F_(n-k)!) is the test oracle it must agree with.
    """
    if not 0 <= k <= n:
        raise ValueError(f"coefficient needs 0 <= k <= n, got n={n}, k={k}")
    return exact_quotient(falling_f(F, n, k), f_factorial(F, k))


def f_nomial_rows(F: FSequence, number: type = int) -> Iterator[list[int | Decimal | Fraction]]:
    """Rows n = 0, 1, 2, ... of the coefficient triangle, without end.

    Each entry follows from its left neighbour by the row recurrence
    (n over k) = (n over k-1) * F_(n-k+1) / F_k, an exact integer division
    wherever the entry is integral; the right half mirrors the left, since
    (n over k) = (n over n-k).  Integral entries are of the integer type
    ``number``, otherwise ``Fraction``.  ``int`` serves arithmetic and needs
    no context; ``decimal.Decimal`` serves printing, since its ``str()``
    takes time linear in the digits where an ``int``'s takes quadratic time.
    Decimal steps run in ``_exact_context()``, entered per row, so no context
    reaches the caller across a ``yield``.  Row n reads the terms only up to
    F_n, so a scan can stop at any row of a finite sequence, and only the
    current row is held.
    """
    if number is not int:
        from decimal import localcontext

        exact = _exact_context()
    terms = [0]  # F_0 is never read
    for n in count():
        if n:
            terms.append(F.term(n))
        if number is int:
            row = _left_half(terms, n, number)
        else:
            with localcontext(exact):
                row = _left_half(terms, n, number)
        row.extend(reversed(row[: (n + 1) // 2]))
        yield row


def _left_half(terms: list[int], n: int, number: type) -> list[int | Decimal | Fraction]:
    """Entries k = 0..n // 2 of row n, each from its left neighbour."""
    row = [number(1)]
    for k in range(1, n // 2 + 1):
        row.append(exact_quotient(row[-1] * terms[n - k + 1], terms[k], number))
    return row


def triangle_rows(
    F: FSequence, rows: int, number: type = int
) -> Iterator[list[int | Decimal | Fraction]]:
    """Rows 0..rows-1 of ``f_nomial_rows``, computed as they are read.  The
    row count and the terms F_1..F_(rows-1) are checked before this returns,
    so a refusal comes before the first row."""
    if rows < 0:
        raise ValueError(f"row count must be nonnegative, got {rows}")
    F.terms(rows - 1)
    return islice(f_nomial_rows(F, number), rows)


def _row_chunks(row: list, separator: str) -> Iterator[str]:
    """A palindromic row's entries as text, in two joins on ``separator``:
    the left half converted once, then its mirror, with the separator
    between them a chunk of its own.  A consumer that writes each chunk as
    it comes has let go of the first join before the second is made, so no
    more than half the row's text is joined at a time."""
    left = list(map(str, islice(row, (len(row) + 1) // 2)))
    yield separator.join(left)
    if len(row) > 1:
        yield separator
        yield separator.join(left[len(row) // 2 - 1 :: -1])


def triangle_to_csv(triangle: Iterable[list]) -> Iterator[str]:
    """Ragged CSV, one row per n, entries as exact decimal (or p/q) strings;
    no rows give one empty line.  Rows must be palindromic, as triangle rows
    are: each text is made once and mirrored (``_row_chunks``), and the line
    break before a row is a chunk of its own."""
    for n, row in enumerate(triangle):
        if n:
            yield "\n"
        yield from _row_chunks(row, ",")
    yield "\n"


def triangle_to_json(triangle: Iterable[list]) -> Iterator[str]:
    """JSON array of arrays of strings, preserving arbitrary precision: the
    text ``json.dumps`` gives for the whole table, with each row's opening,
    separator and closing chunks of their own around its two halves.  The
    entries' texts (digits, sign, slash) need no escaping.  Rows must be
    nonempty and palindromic, as triangle rows are (see ``triangle_to_csv``)."""
    yield "["
    for n, row in enumerate(triangle):
        yield ', ["' if n else '["'
        yield from _row_chunks(row, '", "')
        yield '"]'
    yield "]"


def _cmd_fnomial(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb fnomial``: one coefficient."""
    if args.spec is None or args.n is None or args.k is None:
        args.parser.error("--spec, --n and --k are required")
    value = f_nomial(parse_sequence(args.spec), args.n, args.k)
    return 0, {"value": str(value), "integral": value.denominator == 1}


def _cmd_fnomial_triangle(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """``cobweb fnomial triangle``: rows printed through ``Decimal``."""
    from decimal import Decimal

    rows = triangle_rows(parse_sequence(args.spec), args.rows, Decimal)
    if args.format == "csv":
        return 0, triangle_to_csv(rows)
    return 0, chain(triangle_to_json(rows), "\n")

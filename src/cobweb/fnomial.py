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
concurrent use.  The ``cobweb fnomial`` point query's handler closes the
module.  The exporters' bodies, the exact ``Decimal`` context and the
``fnomial triangle`` handler are in ``_triangle``, which only a printed
triangle loads: the exporters' entries here import it when they run.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .fseq import FSequence, exact_quotient, parse_sequence

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction
    from types import SimpleNamespace


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
    Decimal steps run in ``_triangle._exact_context()``, entered per row, so
    no context reaches the caller across a ``yield``.  Row n reads the terms
    only up to F_n, so a scan can stop at any row of a finite sequence, and
    only the current row is held.
    """
    if number is not int:
        from decimal import localcontext

        from ._triangle import _exact_context

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


def triangle_to_csv(triangle: Iterable[list]) -> Iterator[str]:
    """Ragged CSV, one row per n, entries as exact decimal (or p/q) strings;
    no rows give one empty line.  Rows must be palindromic, as triangle rows
    are: each text is made once and mirrored, and the line break before a
    row is a chunk of its own."""
    from ._triangle import _csv_chunks

    return _csv_chunks(triangle)


def triangle_to_json(triangle: Iterable[list]) -> Iterator[str]:
    """JSON array of arrays of strings, preserving arbitrary precision: the
    text ``json.dumps`` gives for the whole table, with each row's opening,
    separator and closing chunks of their own around its two halves.  Rows
    must be nonempty and palindromic, as triangle rows are."""
    from ._triangle import _json_chunks

    return _json_chunks(triangle)


def _cmd_fnomial(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb fnomial``: one coefficient."""
    if args.spec is None or args.n is None or args.k is None:
        args.parser.error("--spec, --n and --k are required")
    value = f_nomial(parse_sequence(args.spec), args.n, args.k)
    return 0, {"value": str(value), "integral": value.denominator == 1}

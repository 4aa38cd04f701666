"""Exact sequence factorials, falling products and coefficient triangles.

All arithmetic is arbitrary-precision integer or rational; there is no
floating-point mode.  Coefficients are exact: ``int`` where integral,
``Fraction`` otherwise (the point queries return ``Fraction``, whose
denominator is 1 exactly when the value is integral).  A non-integral one
comes back rather than raised, so admissibility scans can observe it.  The
row generator divides with ``divmod`` on integers and falls back to
``Fraction`` only where an entry is not integral.  Every function here is
pure and safe for concurrent use.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import count, islice
from typing import Iterator

from .fseq import FSequence


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


def f_nomial(F: FSequence, n: int, k: int) -> Fraction:
    """The coefficient (n over k)_F as an exact reduced rational.

    Computed as the falling product of length k divided by the k-factorial,
    which keeps intermediate magnitudes down; ``f_nomial_from_factorials``
    is the equivalent three-factorial route and the two must agree.
    """
    if not 0 <= k <= n:
        raise ValueError(f"coefficient needs 0 <= k <= n, got n={n}, k={k}")
    return Fraction(falling_f(F, n, k), f_factorial(F, k))


def f_nomial_from_factorials(F: FSequence, n: int, k: int) -> Fraction:
    """Same coefficient via F_n! / (F_k! F_(n-k)!), kept as a cross-check route."""
    if not 0 <= k <= n:
        raise ValueError(f"coefficient needs 0 <= k <= n, got n={n}, k={k}")
    return Fraction(f_factorial(F, n), f_factorial(F, k) * f_factorial(F, n - k))


def _exact_quotient(a: int | Fraction, b: int) -> int | Fraction:
    """a / b for a nonzero integer b: an ``int`` when it is integral, else a
    reduced ``Fraction``.  Integral ints divide by one ``divmod``, no gcd."""
    if isinstance(a, int):
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
    value = Fraction(a, b)
    return value.numerator if value.denominator == 1 else value


def f_nomial_rows(F: FSequence) -> Iterator[list[int | Fraction]]:
    """Rows n = 0, 1, 2, ... of the coefficient triangle, without end.

    Each entry follows from its left neighbour by the row recurrence
    (n over k) = (n over k-1) * F_(n-k+1) / F_k, an exact integer division
    wherever the entry is integral; the right half mirrors the left, since
    (n over k) = (n over n-k).  Entries are ``int`` where integral and
    ``Fraction`` otherwise.  Row n reads the terms only up to F_n, so a scan
    can stop at any row of a finite sequence, and only the current row is
    held.
    """
    terms = [0]  # F_0 is never read
    for n in count():
        if n:
            terms.append(F.term(n))
        row: list[int | Fraction] = [1]
        for k in range(1, n // 2 + 1):
            row.append(_exact_quotient(row[-1] * terms[n - k + 1], terms[k]))
        row.extend(reversed(row[: (n + 1) // 2]))
        yield row


def f_nomial_triangle(F: FSequence, rows: int) -> list[list[Fraction]]:
    """All coefficients for 0 <= k <= n < rows, as a ragged table."""
    if rows < 0:
        raise ValueError(f"row count must be nonnegative, got {rows}")
    return list(islice(f_nomial_rows(F), rows))


def triangle_to_csv(triangle: list[list[Fraction]]) -> str:
    """Ragged CSV, one row per n, entries as exact decimal (or p/q) strings."""
    return "\n".join(",".join(str(v) for v in row) for row in triangle) + "\n"


def triangle_to_json(triangle: list[list[Fraction]]) -> str:
    """JSON array of arrays of strings, preserving arbitrary precision."""
    return json.dumps([[str(v) for v in row] for row in triangle])

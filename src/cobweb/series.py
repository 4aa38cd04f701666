"""Truncated formal power series with exact rational coefficients.

The series layer provides the sequence exponential (coefficient 1/F_n! at
x^n), the scheme enumerator exp(exp_F(x) - 1) whose coefficients weigh whole
assemblies of primes, and the Bell-style numbers obtained by scaling a
coefficient back by the factorial.

One exponential formula serves every count: given a prefix-factorial table
it scales the x^n coefficient of exp(E - 1), or of (E - 1)^k / k!, back by
the last factorial.  The vector-space counts are that formula over the bg:q
factorials, which are the orders of the general linear groups over a prime
field; they count the unordered direct-sum decompositions of a finite vector
space and are verified against a literal subspace-enumeration oracle that
shares no code with the series route.

Series order defaults to 16 where a command needs one; all coefficients stay
exact rationals.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product
from typing import Iterable, Iterator

from .fnomial import f_factorial
from .fseq import FSequence, parse_sequence

DEFAULT_ORDER = 16


@dataclass(frozen=True)
class FormalSeries:
    """Coefficients c_0..c_D; arithmetic truncates to the smaller order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series carries at least its constant term")

    @classmethod
    def from_coefficients(cls, values: Iterable[int | Fraction]) -> "FormalSeries":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series of order {self.order} to {order}")
        return FormalSeries(self.coeffs[: order + 1])

    def __add__(self, other: "FormalSeries | int | Fraction") -> "FormalSeries":
        if isinstance(other, (int, Fraction)):
            return FormalSeries((self.coeffs[0] + other,) + self.coeffs[1:])
        return series_add(self, other)

    def __sub__(self, other: "FormalSeries | int | Fraction") -> "FormalSeries":
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return series_add(self, FormalSeries(tuple(-c for c in other.coeffs)))

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        return series_mul(self, other)

    def to_json(self) -> str:
        # The text json.dumps gives for the coefficient strings (which need no
        # escaping), built without its per-string copies: a payload of
        # thousand-digit coefficients is held twice at most, not three times.
        return "[" + ", ".join([f'"{c}"' for c in self.coeffs]) + "]"


def series_add(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    order = min(a.order, b.order)
    return FormalSeries(
        tuple(a.coeffs[n] + b.coeffs[n] for n in range(order + 1))
    )


def series_mul(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    order = min(a.order, b.order)
    return FormalSeries(
        tuple(
            sum((a.coeffs[j] * b.coeffs[n - j] for j in range(n + 1)), Fraction(0))
            for n in range(order + 1)
        )
    )


def series_exp(s: FormalSeries) -> FormalSeries:
    """Exponential of a series with zero constant term, exact to its order.

    Uses the derivative recurrence b_n = (1/n) sum_j j a_j b_(n-j).
    """
    if s.coeffs[0] != 0:
        raise ValueError("series exponential requires a zero constant term")
    out = [Fraction(1)] + [Fraction(0)] * s.order
    for n in range(1, s.order + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if s.coeffs[j]:
                acc += j * s.coeffs[j] * out[n - j]
        out[n] = acc / n
    return FormalSeries(tuple(out))


def _factorials(F: FSequence, n: int) -> list[int]:
    """The prefix-factorial table F_0!, F_1!, ..., F_n! as one running product."""
    return list(accumulate(F.terms(n), operator.mul, initial=1))


def _reciprocals(factorials: list[int]) -> FormalSeries:
    """E = sum_j x^j / fac_j over a prefix-factorial table."""
    return FormalSeries(tuple(Fraction(1, fac) for fac in factorials))


def _exponential_formula(factorials: list[int], k: int | None = None) -> Fraction:
    """fac_n [x^n] exp(E - 1), or fac_n [x^n] (E - 1)^k / k! for a given k,
    where E is the sequence exponential of the table fac_0, ..., fac_n."""
    n = len(factorials) - 1
    primes = _reciprocals(factorials) - 1
    if k is None:
        return factorials[n] * series_exp(primes).coefficient(n)
    power = FormalSeries.from_coefficients([1] + [0] * n)
    for _ in range(k):
        power = power * primes
    return factorials[n] * power.coefficient(n) / math.factorial(k)


def exp_f_series(F: FSequence, order: int) -> FormalSeries:
    """The sequence exponential: coefficient of x^n is 1/F_n!."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return _reciprocals(_factorials(F, order))


def prefab_enumerator(F: FSequence, order: int) -> FormalSeries:
    """exp(exp_F(x) - 1): the enumerator of assemblies of primes."""
    return series_exp(exp_f_series(F, order) - 1)


def bell_f(F: FSequence, n: int) -> int | Fraction:
    """F_n! times the x^n enumerator coefficient; ordinary Bell for F_n = n."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    value = _exponential_formula(_factorials(F, n))
    return value.numerator if value.denominator == 1 else value


def _partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing integer partitions of n."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def enumerator_coeff_by_partitions(F: FSequence, n: int) -> Fraction:
    """Independent route to the enumerator coefficient: a sum over integer
    partitions with multiplicity factorials, instead of series convolution."""
    total = Fraction(0)
    for partition in _partitions(n):
        term = Fraction(1)
        for part in partition:
            term /= f_factorial(F, part)
        for multiplicity in Counter(partition).values():
            term /= math.factorial(multiplicity)
        total += term
    return total


def gl_order(q: int, n: int) -> int:
    """Order of the group of invertible n x n matrices over the q-element field."""
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    return math.prod(q**n - q**i for i in range(n))


def _require_prime(q: int) -> None:
    if q < 2 or any(q % d == 0 for d in range(2, int(math.isqrt(q)) + 1)):
        raise ValueError(f"field size must be prime, got {q}")


def _gl_factorials(q: int, n: int) -> list[int]:
    """|GL_0(q)|, ..., |GL_n(q)|: the bg:q factorials, for a prime field size q."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    _require_prime(q)
    return _factorials(parse_sequence(f"bg:{q}"), n)


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} came out non-integral: {value}")
    return value.numerator


def q_bell(q: int, n: int) -> int:
    """Number of unordered direct-sum decompositions of the n-dim space over
    the q-element field, via the exponential formula on linear-group orders."""
    return _integral(_exponential_formula(_gl_factorials(q, n)), "decomposition count")


def q_stirling(q: int, n: int, k: int) -> int:
    """Decompositions with exactly k summands: the k-th power term of the
    exponential formula."""
    factorials = _gl_factorials(q, n)
    if not 1 <= k <= n:
        raise ValueError(f"summand count needs 1 <= k <= n, got {k}")
    return _integral(_exponential_formula(factorials, k), "summand count")


def _rref(rows: Iterable[Iterable[int]], q: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form over the prime field; returns nonzero rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    width = len(mat[0])
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % q), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, q)
        mat[rank] = [(v * inv) % q for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % q:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return tuple(tuple(row) for row in mat[:rank])


def _rank(rows: Iterable[Iterable[int]], q: int) -> int:
    return len(_rref(rows, q))


def enumerate_subspaces(q: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every subspace of the n-dim space over GF(q), as canonical echelon bases.

    A subspace is generated once, directly in reduced echelon form: choose
    pivot columns, then fill the free cells right of each pivot.
    """
    _require_prime(q)
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    spaces: list[tuple[tuple[int, ...], ...]] = []
    for d in range(n + 1):
        for pivots in combinations(range(n), d):
            free_cells = [
                (i, c)
                for i in range(d)
                for c in range(n)
                if c > pivots[i] and c not in pivots
            ]
            for values in product(range(q), repeat=len(free_cells)):
                rows = [[0] * n for _ in range(d)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, c), v in zip(free_cells, values):
                    rows[i][c] = v
                spaces.append(tuple(tuple(r) for r in rows))
    return spaces


def decomposition_oracle(q: int, n: int) -> int:
    """Brute-force count of unordered direct-sum decompositions.

    Enumerates every nonzero subspace, then every set of them (in canonical
    order, so each set once) whose dimensions add to n and whose combined
    basis has full rank.  Entirely independent of the series route.
    """
    _require_prime(q)
    if not 1 <= n <= 4:
        raise ValueError(f"oracle is guarded to dimensions 1..4, got {n}")
    spaces = sorted(
        (s for s in enumerate_subspaces(q, n) if s),
        key=lambda s: (len(s), s),
    )
    count = 0

    def extend(start: int, stacked: list[tuple[int, ...]], dim_sum: int) -> None:
        nonlocal count
        for idx in range(start, len(spaces)):
            candidate = spaces[idx]
            d = len(candidate)
            if dim_sum + d > n:
                continue
            if _rank(stacked + list(candidate), q) != dim_sum + d:
                continue
            if dim_sum + d == n:
                count += 1
            else:
                extend(idx + 1, stacked + list(candidate), dim_sum + d)

    extend(0, [], 0)
    return count


def count_invertible_matrices(q: int, n: int) -> int:
    """Literal enumeration of invertible n x n matrices over GF(q); tiny n only."""
    _require_prime(q)
    if not 0 <= n <= 3:
        raise ValueError(f"matrix enumeration is guarded to n <= 3, got {n}")
    count = 0
    for entries in product(range(q), repeat=n * n):
        rows = [entries[i * n : (i + 1) * n] for i in range(n)]
        if _rank(rows, q) == n:
            count += 1
    return count

"""The brute-force routes of ``cobweb series bell|qbell --oracle``: the
partition sum and the literal subspace enumeration, loaded by
``series.bell_by_partitions`` and ``series.decomposition_oracle`` when they
run, so that no call without ``--oracle`` compiles them.  They share neither
the coefficient rows nor the recurrences of ``series``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import TYPE_CHECKING, Iterable

from .fseq import FSequence, exact_quotient
from .series import BELL_ORACLE_BOUND, SUBSPACE_BOUND, _bg, _factorials, _require_prime

if TYPE_CHECKING:
    from fractions import Fraction


def _partition_sum(F: FSequence, n: int) -> int | Fraction:
    """``series.bell_by_partitions``, as the product of exp(x^p / F_p!) over
    the part sizes p, expanded one part size at a time.  After parts 1..p,
    S[r] is F_n! times the sum over the partitions of r into those parts;
    part p adds multiplicity m to S[r] as S[r - m p] divided by
    F_p!^m * m!, one ``exact_quotient`` each, an int where it
    divides.  n is checked as ``bell_f`` checks it, then against
    ``BELL_ORACLE_BOUND``, before any term is read."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n > BELL_ORACLE_BOUND:
        raise ValueError(f"oracle is bounded to n <= {BELL_ORACLE_BOUND}, got {n}")
    factorials = _factorials(F, n)
    S: list[int | Fraction] = [factorials[n]] + [0] * n
    for p in range(1, n + 1):
        # r descends, so S[r - m p] still sums over the parts below p only
        for r in range(n, p - 1, -1):
            weight = 1
            for m in range(1, r // p + 1):
                weight *= factorials[p] * m
                S[r] += exact_quotient(S[r - m * p], weight)
    # an int where B_n is integral, even if some of its terms were not
    return S[n].numerator if S[n].denominator == 1 else S[n]


def _widen(
    basis: list[tuple[int, list[int]]], rows: Iterable[Iterable[int]], q: int
) -> list[tuple[int, list[int]]] | None:
    """The echelon basis of span(basis) + span(rows) over the prime field, or
    None if the rows are not independent of the basis and of each other.

    A basis is a list of (pivot column, row) with a 1 at the pivot and a 0 at
    every earlier row's pivot, so one pass in order reduces a vector
    against it.  ``basis`` itself is left as it is.
    """
    widened = list(basis)
    for row in rows:
        v = list(row)
        for pivot, b in widened:
            if c := v[pivot]:
                v = [(x - c * y) % q for x, y in zip(v, b)]
        pivot = next((col for col, x in enumerate(v) if x), None)
        if pivot is None:
            return None
        inverse = pow(v[pivot], -1, q)
        widened.append((pivot, [x * inverse % q for x in v]))
    return widened


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


def _decomposition_count(q: int, n: int) -> int:
    """``series.decomposition_oracle``: every nonzero subspace, then every
    set of them (in canonical order, so each set once) whose dimensions add
    to n and whose combined basis has full rank.  The arguments are checked
    by ``_bg``, as ``q_bell`` checks them."""
    _bg(q, n)
    # Subspace counts G_m of GF(q)^m by Goldman-Rota, G_(m+1) = 2 G_m +
    # (q^m - 1) G_(m-1), up to m = n or the first count past the bound.
    m, previous, subspaces = 1, 1, 2
    while m < n and subspaces - 1 <= SUBSPACE_BOUND:
        m, previous, subspaces = m + 1, subspaces, 2 * subspaces + (q**m - 1) * previous
    if subspaces - 1 > SUBSPACE_BOUND:
        raise ValueError(
            f"oracle is bounded to {SUBSPACE_BOUND} nonzero subspaces; GF({q})^{n} has more"
        )
    spaces = sorted(
        (s for s in enumerate_subspaces(q, n) if s),
        key=lambda s: (len(s), s),
    )
    count = 0

    def extend(start: int, basis: list[tuple[int, list[int]]], dim_sum: int) -> None:
        nonlocal count
        for idx in range(start, len(spaces)):
            candidate = spaces[idx]
            d = len(candidate)
            if dim_sum + d > n:
                break  # sorted by dimension: every later space is as large
            widened = _widen(basis, candidate, q)
            if widened is None:
                continue
            if dim_sum + d == n:
                count += 1
            else:
                extend(idx + 1, widened, dim_sum + d)

    extend(0, [], 0)
    return count

"""Truncated formal power series with exact rational coefficients.

The series layer provides the sequence exponential (coefficient 1/F_n! at
x^n), the scheme enumerator exp(exp_F(x) - 1) whose coefficients weigh whole
assemblies of primes, and the Bell-style numbers obtained by scaling a
coefficient back by the factorial.

One exponential formula serves every count, scaled by the factorials so
that it runs on the coefficients (m over j)_F of one streamed triangle row at
a time: B_m = F_m! [x^m] exp(E - 1) obeys
B_m = (1/m) sum_j j (m over j)_F B_(m-j), and the k-summand term
P_k(m) = F_m! [x^m] (E - 1)^k / k! obeys
P_k(m) = (1/k) sum_j (m over j)_F P_(k-1)(m-j).  For an admissible F the
divisions are exact on integers.  The vector-space counts are that formula
over the bg:q sequence, whose factorials (``fnomial.f_factorial``) are the
orders of the general linear groups over a prime field; they count the
unordered direct-sum decompositions of a finite vector space.  The two
brute-force routes that ``--oracle`` runs stay here, sharing neither the
coefficient rows nor the recurrences: ``bell_by_partitions`` and
``decomposition_oracle``, a literal subspace enumeration.  An assembly is a
multiset of primes P_p, so B_n = F_n! [x^n] prod_p exp(x^p / F_p!), and
``bell_by_partitions`` expands that product one part size p at a time: the
sum over the integer partitions of n, with O(n^2 log n) exact divisions in
place of one per partition.

Values are exact: ``int`` where integral, ``Fraction`` otherwise, by the
one division rule ``fseq.exact_quotient``; series coefficients are
``Fraction``.  Only the enumerator recurrence keeps a running common
denominator, since its B_m is fractional over ``fibonacci`` and ``gauss:2``,
and sums in integers over it; ``fractions`` is imported only by the
functions that build a fraction, so an integral count such as ``q_bell``
never loads it.  Field sizes are checked prime by a
deterministic Miller-Rabin test, which is exact below ``PRIMALITY_BOUND``;
larger field sizes are refused.  The ``cobweb series`` handlers close the
module.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, chain, combinations, islice, product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .fnomial import f_nomial_rows
from .fseq import FSequence, _Frozen, exact_quotient, parse_sequence

if TYPE_CHECKING:
    from fractions import Fraction
    from types import SimpleNamespace

# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound (psi_13 of Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017).
PRIMALITY_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

# The brute-force oracles refuse, before reading a term or listing a subspace,
# n > BELL_ORACLE_BOUND (p(40) = 37,338 partitions, p(41) = 44,583) and GF(q)^n
# with more nonzero subspaces than SUBSPACE_BOUND (n = 2, 3, 4 for q > 197, 7,
# 2).  At the bounds, in process on a 2-vCPU VM under Python 3.11: the
# partition sum at n = 40 takes 0.001 s over natural and 0.012 s over bg:7;
# the decomposition count takes 0.09 s on GF(7)^3, 0.04 s on GF(197)^2 and
# 0.02 s on GF(2)^4.
BELL_ORACLE_BOUND = 40
SUBSPACE_BOUND = 200


class FormalSeries(_Frozen):
    """Coefficients c_0..c_D of a truncated series, as a record."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        if not coeffs:
            raise ValueError("a series carries at least its constant term")
        FormalSeries.coeffs.__set__(self, coeffs)

    @classmethod
    def from_coefficients(cls, values: Iterable[int | Fraction]) -> "FormalSeries":
        from fractions import Fraction

        return cls(tuple(Fraction(v) for v in values))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def to_json(self) -> Iterator[str]:
        """The text json.dumps gives for the coefficient strings (which need
        no escaping), yielded one coefficient at a time."""
        yield "["
        for n, c in enumerate(self.coeffs):
            yield f'{", " if n else ""}"{c}"'
        yield "]"


def _factorials(F: FSequence, n: int) -> list[int]:
    """The prefix-factorial table F_0!, F_1!, ..., F_n! as one running product."""
    return list(accumulate(F.terms(n), operator.mul, initial=1))


def _scaled_enumerator(F: FSequence, n: int) -> list[int | Fraction]:
    """B_0, ..., B_n with B_m = F_m! [x^m] exp(E - 1), E = sum_j x^j / F_j!.

    The derivative recurrence of the exponential, scaled by F_m!, reads
    B_m = (1/m) sum_{j=1..m} j (m over j)_F B_(m-j), over one streamed
    coefficient row at a time.  The sum runs on the integers S_i = B_i * D,
    for D the running lcm of the denominators of B (rescaled when D grows),
    so each B_m costs one reduction, not one per term; while D = 1 (an
    integral B, as over ``natural`` and ``bg:q``) S equals B.
    """
    B: list[int | Fraction] = [1]
    S = [1]
    D = 1
    for m, row in zip(range(1, n + 1), islice(f_nomial_rows(F), 1, None)):
        value = exact_quotient(sum(j * row[j] * S[m - j] for j in range(1, m + 1)), m * D)
        grow = value.denominator // math.gcd(D, value.denominator)
        if grow > 1:
            S, D = [s * grow for s in S], D * grow
        B.append(value)
        S.append(value.numerator * (D // value.denominator))
    return B


def _scaled_power(F: FSequence, n: int, k: int) -> int | Fraction:
    """P_k(n) = F_n! [x^n] (E - 1)^k / k!, by
    P_i(m) = (1/i) sum_{j>=1} (m over j)_F P_(i-1)(m-j) from P_0(m) = [m = 0],
    all i <= k carried along one streamed coefficient row at a time, each
    step one ``exact_quotient``.  Over ``bg:q``, its one caller's sequence,
    every P_i(m) counts decompositions, so no step builds a fraction."""
    P = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(k)]
    for m, row in zip(range(1, n + 1), islice(f_nomial_rows(F), 1, None)):
        for i in range(1, min(k, m) + 1):
            below = P[i - 1]
            P[i][m] = exact_quotient(sum(row[j] * below[m - j] for j in range(1, m - i + 2)), i)
    return P[k][n]


def exp_f_series(F: FSequence, order: int) -> FormalSeries:
    """The sequence exponential: coefficient of x^n is 1/F_n!."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    from fractions import Fraction

    return FormalSeries(tuple(Fraction(1, fac) for fac in _factorials(F, order)))


def prefab_enumerator(F: FSequence, order: int) -> FormalSeries:
    """exp(exp_F(x) - 1): the enumerator of assemblies of primes, as
    B_m / F_m! with one reduction per coefficient."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    from fractions import Fraction

    factorials = _factorials(F, order)
    return FormalSeries(
        tuple(Fraction(b, fac) for b, fac in zip(_scaled_enumerator(F, order), factorials))
    )


def bell_f(F: FSequence, n: int) -> int | Fraction:
    """F_n! times the x^n enumerator coefficient; ordinary Bell for F_n = n."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return _scaled_enumerator(F, n)[n]


def bell_by_partitions(F: FSequence, n: int) -> int | Fraction:
    """Independent route to B_n = F_n! [x^n] exp(E - 1): the sum over the
    integer partitions of n of F_n! / (prod F_p! * prod multiplicity!), as
    the product of exp(x^p / F_p!) over the part sizes p, expanded one part
    size at a time, instead of series convolution or coefficient rows.
    After parts 1..p, S[r] is F_n! times the sum over the partitions of r
    into those parts; part p adds multiplicity m to S[r] as S[r - m p]
    divided by F_p!^m * m!, one ``exact_quotient`` each, an int where it
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


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin over ``PRIMALITY_BASES``; exact for
    q < ``PRIMALITY_BOUND``, which callers must check."""
    if q < 2:
        return False
    for p in PRIMALITY_BASES:
        if q % p == 0:
            return q == p
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIMALITY_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _require_prime(q: int) -> None:
    if q >= PRIMALITY_BOUND:
        raise ValueError(
            f"primality is decided only for field sizes below {PRIMALITY_BOUND}, got {q}"
        )
    if not _is_prime(q):
        raise ValueError(f"field size must be prime, got {q}")


def _bg(q: int, n: int) -> FSequence:
    """The bg:q sequence, whose factorials are |GL_j(q)|, for a prime field
    size q and a dimension n >= 1."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    _require_prime(q)
    return parse_sequence(f"bg:{q}")


def _integral(value: int | Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} came out non-integral: {value}")
    return value.numerator


def q_bell(q: int, n: int) -> int:
    """Number of unordered direct-sum decompositions of the n-dim space over
    the q-element field, via the exponential formula on linear-group orders."""
    return _integral(_scaled_enumerator(_bg(q, n), n)[n], "decomposition count")


def q_stirling(q: int, n: int, k: int) -> int:
    """Decompositions with exactly k summands: the k-th power term of the
    exponential formula."""
    F = _bg(q, n)
    if not 1 <= k <= n:
        raise ValueError(f"summand count needs 1 <= k <= n, got {k}")
    return _integral(_scaled_power(F, n, k), "summand count")


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


def decomposition_oracle(q: int, n: int) -> int:
    """Brute-force count of unordered direct-sum decompositions.

    Enumerates every nonzero subspace, then every set of them (in canonical
    order, so each set once) whose dimensions add to n and whose combined
    basis has full rank.  Entirely independent of the series route.  The
    arguments are checked by ``_bg``, as ``q_bell`` checks them.
    """
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


def _cmd_series(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """``cobweb series expf|enumerator``: the series to ``--order``."""
    F = parse_sequence(args.spec)
    build = exp_f_series if args.subcommand == "expf" else prefab_enumerator
    return 0, chain(build(F, args.order).to_json(), "\n")


def _with_oracle(
    args: SimpleNamespace, payload: dict, key: str, formula: Callable, oracle: Callable
) -> tuple[int, dict]:
    """The formula's value under ``key``; with --oracle also the independent
    route's value and the verdict.  The oracle runs first and checks its
    arguments before it reads any term or lists any subspace: first as the
    formula checks them, so a malformed input gets the formula's own
    refusal, then against its size bound, so that it refuses before the
    formula runs.  ``series bell``'s bound is on n alone, so it checks n
    before any term is read."""
    expected = oracle() if args.oracle else None
    payload[key] = str(value := formula())
    if args.oracle:
        payload["oracle"] = str(expected)
        payload["match"] = value == expected
    return (0 if payload.get("match", True) else 1), payload


def _cmd_series_bell(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb series bell``: B_n, and with --oracle its partition sum."""
    F = parse_sequence(args.spec)
    return _with_oracle(args, {"spec": args.spec, "n": args.n}, "value",
                        lambda: bell_f(F, args.n),
                        lambda: bell_by_partitions(F, args.n))


def _cmd_series_qbell(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb series qbell``: the decomposition count, and with --oracle
    the subspace enumeration."""
    return _with_oracle(args, {"q": args.q, "n": args.n}, "formula",
                        lambda: q_bell(args.q, args.n),
                        lambda: decomposition_oracle(args.q, args.n))

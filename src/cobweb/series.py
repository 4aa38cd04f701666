"""Truncated formal power series with exact rational coefficients.

The series layer provides the sequence exponential (coefficient 1/F_n! at
x^n), the scheme enumerator exp(exp_F(x) - 1) whose coefficients weigh whole
assemblies of primes, and the Bell-style numbers obtained by scaling a
coefficient back by the factorial.

One exponential formula serves every count, scaled by the factorials so
that it runs on the coefficients (m over j)_F of one streamed triangle row at
a time: B_m = F_m! [x^m] exp(E - 1) obeys
B_m = (1/m) sum_j j (m over j)_F B_(m-j).  For an admissible F the
divisions are exact on integers.  The vector-space counts are that formula
over the bg:q sequence, whose factorials (``fnomial.f_factorial``) are the
orders of the general linear groups over a prime field; they count the
unordered direct-sum decompositions of a finite vector space.  The two
brute-force routes that ``--oracle`` runs share neither the coefficient rows
nor the recurrences: ``bell_by_partitions`` and ``decomposition_oracle``, a
literal subspace enumeration.  An assembly is a multiset of primes P_p, so
B_n = F_n! [x^n] prod_p exp(x^p / F_p!), and ``bell_by_partitions`` expands
that product one part size p at a time: the sum over the integer partitions
of n, with O(n^2 log n) exact divisions in place of one per partition.
Their bodies are in ``_brute``, which only an ``--oracle`` call loads: their
entries here import it when they run, and ``enumerate_subspaces`` is read
from it on first access.

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
from itertools import accumulate, chain, islice
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
    return _integral(bell_f(_bg(q, n), n), "decomposition count")


def bell_by_partitions(F: FSequence, n: int) -> int | Fraction:
    """Independent route to B_n = F_n! [x^n] exp(E - 1): the sum over the
    integer partitions of n of F_n! / (prod F_p! * prod multiplicity!),
    instead of series convolution or coefficient rows, with one
    ``exact_quotient`` per part size, multiplicity and entry.  n is checked
    as ``bell_f`` checks it, then against ``BELL_ORACLE_BOUND``, before any
    term is read.  The sum is ``_brute._partition_sum``."""
    from ._brute import _partition_sum

    return _partition_sum(F, n)


def decomposition_oracle(q: int, n: int) -> int:
    """Brute-force count of unordered direct-sum decompositions of GF(q)^n,
    by enumerating subspaces; entirely independent of the series route.  The
    arguments are checked as ``q_bell`` checks them, then against
    ``SUBSPACE_BOUND``.  The count is ``_brute._decomposition_count``."""
    from ._brute import _decomposition_count

    return _decomposition_count(q, n)


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


def __getattr__(name: str) -> object:
    """``enumerate_subspaces``, defined with the oracle that lists them in
    ``_brute``."""
    if name == "enumerate_subspaces":
        from ._brute import enumerate_subspaces

        return enumerate_subspaces
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Composition algebras on poset layers.

A layer stands for the band of the poset between two levels, identified with
the set of max-disjoint embedded copies of the prime poset of its width; the
empty element is the shared identity.  Two compositions act on layers:

* ``odot`` restacks its right operand on top of its left operand's upper
  level.  It is noncommutative and nonassociative by construction, but keeps
  the grading: the result starts at the left top and has the right width.
* ``circ`` adds bounds componentwise; it is commutative and associative.

The size function for ``odot`` is the factorial of the upper level, the
unique choice that makes the quotient law produce the layer's coefficient for
prime pairs and gives left-nested prime powers the factorial of their total
width.  Left nesting is the fixed convention for powers since ``odot`` does
not associate.  For ``circ`` the size is constant 1, or alpha^width for a
given nonzero alpha.  Sizes take the sequence F directly.  A layer's copy
count is its coefficient ``fnomial.f_nomial(F, n, k)``, and the quotient law
on primes a, b of widths k, m reads f(a odot b) / (f(a) f(b)) =
``f_nomial(F, k + m, k)``.

The algebra laws are sequence-independent: both compositions act on layer
bounds alone, so the law checker takes no sequence and is deterministic given
its sample count and seed.  It decides each law before it draws: the
compositions branch only on the empty element, so on each emptiness pattern
of its operands a law is decided by a few evaluations.  The samples are then
only counted by the emptiness class of their operands, in one pass whose
memory does not grow with the sample count.  It needs neither coefficients nor
rationals, so the sizes and the ``compose`` handler import ``fnomial`` where
they use it.  The checker, its records, pool, draw and law tables and the
``cobweb prefab laws`` handler are in ``_laws``, which only a law check
loads: ``check_algebra_laws`` here imports it when it runs, and the records
are read from it on first access.  Everything here is pure on immutable
values.  The ``cobweb prefab compose`` handler closes the module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .fseq import FSequence, _Frozen, parse_int, parse_sequence

if TYPE_CHECKING:
    from fractions import Fraction
    from types import SimpleNamespace

    from ._laws import LawReport


class Prefabiant(_Frozen):
    """Either the empty element (both bounds None) or a layer with 0 <= k < n."""

    __slots__ = ("k", "n")

    def __init__(self, k: int | None = None, n: int | None = None) -> None:
        if (k is None) != (n is None):
            raise ValueError("layer needs both bounds, the empty element neither")
        if k is not None and not 0 <= k < n:
            raise ValueError(f"layer needs 0 <= k < n, got ({k}, {n})")
        Prefabiant.k.__set__(self, k)
        Prefabiant.n.__set__(self, n)

    @classmethod
    def prime(cls, m: int) -> "Prefabiant":
        if m < 1:
            raise ValueError(f"prime index must be >= 1, got {m}")
        return cls(0, m)

    @classmethod
    def parse(cls, text: str) -> "Prefabiant":
        """Inverse of str(): "i" for the empty element, "k,n" for a layer."""
        if text == "i":
            return EMPTY
        try:
            k_text, n_text = text.split(",")
            k, n = parse_int(k_text), parse_int(n_text)
        except ValueError:
            raise ValueError(f"cannot parse prefabiant {text!r}") from None
        return cls(k, n)  # a bound out of range raises with its own reason

    @property
    def is_empty(self) -> bool:
        return self.k is None

    @property
    def is_prime(self) -> bool:
        return self.k == 0

    @property
    def width(self) -> int:
        return 0 if self.is_empty else self.n - self.k

    def __str__(self) -> str:
        return "i" if self.is_empty else f"{self.k},{self.n}"


EMPTY = Prefabiant()


def odot(a: Prefabiant, b: Prefabiant) -> Prefabiant:
    """Stack b on top of a's upper level; the empty element is the identity."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return Prefabiant(a.n, a.n + b.width)


def circ(a: Prefabiant, b: Prefabiant) -> Prefabiant:
    """Add bounds componentwise; the empty element is the identity."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return Prefabiant(a.k + b.k, a.n + b.n)


def f_size(
    F: FSequence, a: Prefabiant, algebra: str, alpha: int | Fraction | None = None
) -> int | Fraction:
    """Size of an element: 1 for the empty element in every variant.

    Under ``odot`` a layer weighs the factorial of its upper level in F; under
    ``circ`` it weighs 1, or alpha^width for a given nonzero alpha.
    """
    if algebra not in ("odot", "circ"):
        raise ValueError(f"unknown algebra {algebra!r}")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if a.is_empty:
        return 1
    if algebra == "odot":
        from .fnomial import f_factorial

        return f_factorial(F, a.n)
    if alpha is None:
        return 1
    return alpha**a.width


def check_algebra_laws(sample_count: int, seed: int) -> LawReport:
    """Deterministic sampled law check over both algebras; no sequence enters.

    Confirms identity laws for both compositions, commutativity and
    associativity for ``circ``, the grading laws, and the prime splitting of
    layers.  For ``odot`` it emits explicit witnesses of noncommutativity and
    nonassociativity: the canonical ones always, plus the first sampled ones
    the pool yields.  Each law is decided for every layer before the first
    draw, then the samples are counted by whether their first operand is
    empty, prime or another layer and whether their second is empty; a law
    the decision refutes is evaluated on each sample.  The verdicts are those
    of checking every sample, in memory that does not grow with the sample
    count, and a sample count past ``_laws.SAMPLE_BOUND`` is refused with
    ``ValueError`` before the first draw.  The check is ``_laws._check_laws``.
    """
    from ._laws import _check_laws

    return _check_laws(sample_count, seed)


def _cmd_prefab_compose(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb prefab compose``: the composite, and for a layer its
    coefficient (and under ``odot`` its size)."""
    F = parse_sequence(args.spec)
    a = Prefabiant.parse(args.a)
    b = Prefabiant.parse(args.b)
    compose = odot if args.op == "odot" else circ
    result = compose(a, b)
    payload: dict = {
        "op": args.op,
        "a": str(a),
        "b": str(b),
        "result": str(result),
        "width": result.width,
    }
    if not result.is_empty:
        from .fnomial import f_nomial

        coefficient = f_nomial(F, result.n, result.k)
        payload["coefficient"] = str(coefficient)
        payload["integral"] = coefficient.denominator == 1
        if args.op == "odot":
            payload["f_size"] = str(f_size(F, result, "odot"))
    return 0, payload


def __getattr__(name: str) -> type:
    """The law checker's records, defined with it in ``_laws``."""
    if name in ("LawWitness", "LawResult", "LawReport"):
        from . import _laws

        return getattr(_laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

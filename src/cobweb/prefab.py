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
given nonzero alpha.  Sizes and copy counts take the sequence F directly.

The algebra laws are sequence-independent: both compositions act on layer
bounds alone, so the law checker takes no sequence and is deterministic given
its sample count and seed.  It checks each law once per distinct operand
tuple drawn, weighted by how often it was drawn, in one pass whose memory
does not grow with the sample count.  It needs neither coefficients nor
rationals, so the sizes, copy counts and quotient law import ``fnomial`` and
``Fraction`` where they use them.  Everything here is pure on immutable values.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import compress, product
from typing import TYPE_CHECKING, NamedTuple

from .fseq import FSequence, _Frozen, parse_int

if TYPE_CHECKING:
    from fractions import Fraction


class Prefabiant(_Frozen):
    """Either the empty element (both bounds None) or a layer with 0 <= k < n."""

    __slots__ = ("k", "n")

    def __init__(self, k: int | None = None, n: int | None = None) -> None:
        if (k is None) != (n is None):
            raise ValueError("layer needs both bounds, the empty element neither")
        if k is not None and not 0 <= k < n:
            raise ValueError(f"layer needs 0 <= k < n, got ({k}, {n})")
        _set_k(self, k)
        _set_n(self, n)

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


# The slot descriptors' setters, bound once: ``__init__`` is the one way to set
# the fields, and these setters go round the ``__setattr__`` that refuses.
_set_k, _set_n = Prefabiant.k.__set__, Prefabiant.n.__set__

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


def copies_count(F: FSequence, a: Prefabiant) -> int:
    """Number of max-disjoint copies the element stands for.

    1 for the empty element; for a layer it is the coefficient (n over k)_F,
    which must be an integer (the sequence must be admissible that far).
    """
    if a.is_empty:
        return 1
    from .fnomial import f_nomial

    coefficient = f_nomial(F, a.n, a.k)
    if coefficient.denominator != 1:
        raise ValueError(
            f"({a.n} over {a.k}) is {coefficient} for {F.spec!r}: "
            "not an integer, sequence is not admissible here"
        )
    return coefficient.numerator


class C2Record(NamedTuple):
    """The quotient law on a prime pair, with all three values side by side."""

    k: int
    m: int
    size_ratio: Fraction
    coefficient: int | Fraction
    copies: int | None
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "size_ratio": str(self.size_ratio),
            "coefficient": str(self.coefficient),
            "copies": None if self.copies is None else str(self.copies),
            "holds": self.holds,
        }


def verify_c2(F: FSequence, a: Prefabiant, b: Prefabiant) -> C2Record:
    """Check f(a odot b) / (f(a) f(b)) against the coefficient of the result.

    Defined for distinct primes; a pair of equal primes shares a factor and is
    outside the law's hypothesis, so it is rejected.  A non-integral
    coefficient is reported in the record, never raised.
    """
    if not (a.is_prime and b.is_prime):
        raise ValueError("the quotient law is checked on prime elements")
    if a == b:
        raise ValueError("primes must be distinct")
    from fractions import Fraction

    from .fnomial import f_nomial

    composed = odot(a, b)
    ratio = Fraction(
        f_size(F, composed, "odot"),
        f_size(F, a, "odot") * f_size(F, b, "odot"),
    )
    coefficient = f_nomial(F, composed.n, composed.k)
    copies = coefficient.numerator if coefficient.denominator == 1 else None
    return C2Record(
        k=a.width,
        m=b.width,
        size_ratio=ratio,
        coefficient=coefficient,
        copies=copies,
        holds=ratio == coefficient,
    )


class LawWitness(NamedTuple):
    law: str
    operands: tuple[str, ...]
    lhs: str
    rhs: str

    def to_json_dict(self) -> dict:
        return {
            "law": self.law,
            "operands": list(self.operands),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class LawResult(NamedTuple):
    law: str
    checked: int
    violations: int

    @property
    def holds(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        return {
            "law": self.law,
            "checked": self.checked,
            "violations": self.violations,
            "holds": self.holds,
        }


class LawReport(NamedTuple):
    seed: int
    samples: int
    laws: tuple[LawResult, ...]
    witnesses: tuple[LawWitness, ...]

    @property
    def all_hold(self) -> bool:
        return all(law.holds for law in self.laws)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "laws": [law.to_json_dict() for law in self.laws],
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


# The pool a sample draws from, built once: the empty element at index 0, then
# the 13 x 12 layers of lower level 0..12 and width 1..12, layer (k, k + w) at 12k + w.
_POOL = (EMPTY, *(Prefabiant(k, k + width) for k in range(13) for width in range(1, 13)))


def _draw(rng: random.Random) -> int:
    """The pool index of one drawn operand: the empty element with
    probability 1/8, else ``12 * randint(0, 12) + randint(1, 12)``.  Each
    ``randint`` is drawn as ``random.Random`` draws it, by rejecting 4-bit
    ``getrandbits`` values out of range, so the stream is the same, but
    without the three Python frames of a ``randint`` call."""
    if rng.random() < 0.125:
        return 0
    bits = rng.getrandbits
    k = bits(4)
    while k >= 13:
        k = bits(4)
    width = bits(4)
    while width >= 12:
        width = bits(4)
    return 12 * k + width + 1


# Each law maps its operands, as many as it reads, to whether it holds, or to
# None where it does not apply; the order is the payload order.
_LAWS = {
    "identity_odot": lambda a: odot(EMPTY, a) == a and odot(a, EMPTY) == a,
    "identity_circ": lambda a: circ(EMPTY, a) == a and circ(a, EMPTY) == a,
    "commutativity_circ": lambda a, b: circ(a, b) == circ(b, a),
    "associativity_circ": lambda a, b, c: circ(circ(a, b), c) == circ(a, circ(b, c)),
    "grading_odot": lambda a, b: None if a.is_empty or b.is_empty else (
        (stacked := odot(a, b)).k == a.n and stacked.width == b.width),
    "grading_circ": lambda a, b: None if a.is_empty or b.is_empty else (
        (added := circ(a, b)).k == a.k + b.k and added.n == a.n + b.n),
    "layer_prime_splitting": lambda a: None if a.is_empty or a.is_prime else (
        odot(Prefabiant.prime(a.k), Prefabiant.prime(a.width)) == a),
}
_ARITY = {law: holds.__code__.co_argcount for law, holds in _LAWS.items()}

# The two laws odot breaks, each from its operands to its two sides.
_FAILING = {
    "odot_noncommutativity": lambda a, b: (odot(a, b), odot(b, a)),
    "odot_nonassociativity": lambda a, b, c: (odot(odot(a, b), c), odot(a, odot(b, c))),
}
# Canonical operands of the laws in _FAILING, in its order.  Nonassociativity
# shows already on this small triple: stacking the composite of the first two
# under the third lands two levels higher than stacking the last two onto the first.
_CANONICAL = (
    (Prefabiant.prime(2), Prefabiant.prime(3)),
    (Prefabiant(1, 3), Prefabiant(0, 2), Prefabiant(0, 1)),
)


def _witness(law: str, operands: tuple[Prefabiant, ...]) -> LawWitness | None:
    """The witness that law fails on operands, None where its sides agree."""
    lhs, rhs = _FAILING[law](*operands)
    if lhs == rhs:
        return None
    return LawWitness(law, tuple(map(str, operands)), str(lhs), str(rhs))


def check_algebra_laws(sample_count: int, seed: int) -> LawReport:
    """Deterministic sampled law check over both algebras; no sequence enters.

    Confirms identity laws for both compositions, commutativity and
    associativity for ``circ``, the grading laws, and the prime splitting of
    layers.  For ``odot`` it emits explicit witnesses of noncommutativity and
    nonassociativity: the canonical ones always, plus the first sampled ones
    the pool yields.

    The samples are drawn in one pass that counts how often each pool element
    comes first and each pair of pool elements comes first and second.  A law
    of one or two operands is then checked once per distinct operand tuple,
    its verdict weighted by that count; associativity, of three, is checked
    on each sample as it is drawn.  So the memory is the same for every
    sample count, and the verdicts are those of checking every sample.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    rng = random.Random(seed)
    size = len(_POOL)
    # Draw counts of a at index i and of (a, b) at size * i + j: the order of
    # product(_POOL, repeat=arity).
    tables = {1: [0] * size, 2: [0] * size**2}
    firsts, pairs = tables[1], tables[2]
    verdicts = {law: Counter() for law in _LAWS}
    inline = [(verdicts[law], holds) for law, holds in _LAWS.items() if _ARITY[law] == 3]
    sampled = {}
    for _ in range(sample_count):
        i, j = _draw(rng), _draw(rng)
        a, b, c = _POOL[i], _POOL[j], _POOL[_draw(rng)]
        firsts[i] += 1
        pairs[size * i + j] += 1
        for tally, holds in inline:
            tally[holds(a, b, c)] += 1
        if len(sampled) < len(_FAILING):
            for law, operands in zip(_FAILING, ((a, b), (a, b, c))):
                if law not in sampled and (witness := _witness(law, operands)):
                    sampled[law] = witness
    for law, holds in _LAWS.items():
        if (counts := tables.get(_ARITY[law])) is not None:
            drawn = compress(product(_POOL, repeat=_ARITY[law]), counts)
            for count, operands in zip(filter(None, counts), drawn):
                verdicts[law][holds(*operands)] += count
    laws = (LawResult(law, sample_count - v[None], v[False]) for law, v in verdicts.items())
    canonical = map(_witness, _FAILING, _CANONICAL)
    return LawReport(seed, sample_count, tuple(laws), (*canonical, *sampled.values()))

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
its sample count and seed.  Everything here is pure on immutable values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .fnomial import f_factorial, f_nomial
from .fseq import FSequence, parse_int


@dataclass(frozen=True)
class Prefabiant:
    """Either the empty element (both bounds None) or a layer with 0 <= k < n."""

    k: int | None = None
    n: int | None = None

    def __post_init__(self) -> None:
        if (self.k is None) != (self.n is None):
            raise ValueError("layer needs both bounds, the empty element neither")
        if self.k is not None and not 0 <= self.k < self.n:
            raise ValueError(f"layer needs 0 <= k < n, got ({self.k}, {self.n})")

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
            return cls(parse_int(k_text), parse_int(n_text))
        except ValueError:
            raise ValueError(f"cannot parse prefabiant {text!r}") from None

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
        return f_factorial(F, a.n)
    if alpha is None:
        return 1
    return alpha**a.width


def weight(a: Prefabiant) -> int:
    """Exponent of the monomial weight: the layer width, 0 for the empty element."""
    return a.width


def copies_count(F: FSequence, a: Prefabiant) -> int:
    """Number of max-disjoint copies the element stands for.

    1 for the empty element; for a layer it is the coefficient (n over k)_F,
    which must be an integer (the sequence must be admissible that far).
    """
    if a.is_empty:
        return 1
    coefficient = f_nomial(F, a.n, a.k)
    if coefficient.denominator != 1:
        raise ValueError(
            f"({a.n} over {a.k}) is {coefficient} for {F.spec!r}: "
            "not an integer, sequence is not admissible here"
        )
    return coefficient.numerator


@dataclass(frozen=True)
class C2Record:
    """The quotient law on a prime pair, with all three values side by side."""

    k: int
    m: int
    size_ratio: Fraction
    coefficient: Fraction
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
    if not (a.is_prime and b.is_prime and not a.is_empty and not b.is_empty):
        raise ValueError("the quotient law is checked on prime elements")
    if a == b:
        raise ValueError("primes must be distinct")
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


@dataclass(frozen=True)
class LawWitness:
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


@dataclass(frozen=True)
class LawResult:
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


@dataclass(frozen=True)
class LawReport:
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


# Nonassociativity shows already on this small triple: stacking the composite
# of the first two under the third lands two levels higher than stacking the
# composite of the last two onto the first.
_CANONICAL_NONASSOC = (Prefabiant(1, 3), Prefabiant(0, 2), Prefabiant(0, 1))
_CANONICAL_NONCOMM = (Prefabiant.prime(2), Prefabiant.prime(3))


def _sample_prefabiant(rng: random.Random) -> Prefabiant:
    if rng.random() < 0.125:
        return EMPTY
    k = rng.randint(0, 12)
    return Prefabiant(k, k + rng.randint(1, 12))


def check_algebra_laws(sample_count: int, seed: int) -> LawReport:
    """Deterministic sampled law check over both algebras; no sequence enters.

    Confirms identity laws for both compositions, commutativity and
    associativity for ``circ``, the grading laws, and the prime splitting of
    layers.  For ``odot`` it emits explicit witnesses of noncommutativity and
    nonassociativity: the canonical ones always, plus the first sampled ones
    the pool yields.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    rng = random.Random(seed)
    counters: dict[str, list[int]] = {
        law: [0, 0]
        for law in (
            "identity_odot",
            "identity_circ",
            "commutativity_circ",
            "associativity_circ",
            "grading_odot",
            "grading_circ",
            "layer_prime_splitting",
        )
    }

    def record(law: str, ok: bool) -> None:
        counters[law][0] += 1
        if not ok:
            counters[law][1] += 1

    witnesses: list[LawWitness] = [
        LawWitness(
            "odot_noncommutativity",
            tuple(str(x) for x in _CANONICAL_NONCOMM),
            str(odot(*_CANONICAL_NONCOMM)),
            str(odot(*reversed(_CANONICAL_NONCOMM))),
        ),
        LawWitness(
            "odot_nonassociativity",
            tuple(str(x) for x in _CANONICAL_NONASSOC),
            str(odot(odot(_CANONICAL_NONASSOC[0], _CANONICAL_NONASSOC[1]), _CANONICAL_NONASSOC[2])),
            str(odot(_CANONICAL_NONASSOC[0], odot(_CANONICAL_NONASSOC[1], _CANONICAL_NONASSOC[2]))),
        ),
    ]
    sampled_noncomm = sampled_nonassoc = False

    for _ in range(sample_count):
        a = _sample_prefabiant(rng)
        b = _sample_prefabiant(rng)
        c = _sample_prefabiant(rng)

        record("identity_odot", odot(EMPTY, a) == a and odot(a, EMPTY) == a)
        record("identity_circ", circ(EMPTY, a) == a and circ(a, EMPTY) == a)
        record("commutativity_circ", circ(a, b) == circ(b, a))
        record(
            "associativity_circ", circ(circ(a, b), c) == circ(a, circ(b, c))
        )
        if not a.is_empty and not b.is_empty:
            stacked = odot(a, b)
            record(
                "grading_odot", stacked.k == a.n and stacked.width == b.width
            )
            added = circ(a, b)
            record("grading_circ", added.k == a.k + b.k and added.n == a.n + b.n)
            if not sampled_noncomm and odot(a, b) != odot(b, a):
                witnesses.append(
                    LawWitness(
                        "odot_noncommutativity",
                        (str(a), str(b)),
                        str(odot(a, b)),
                        str(odot(b, a)),
                    )
                )
                sampled_noncomm = True
        if not a.is_empty and a.k >= 1:
            record(
                "layer_prime_splitting",
                odot(Prefabiant.prime(a.k), Prefabiant.prime(a.width)) == a,
            )
        if not sampled_nonassoc:
            lhs = odot(odot(a, b), c)
            rhs = odot(a, odot(b, c))
            if lhs != rhs:
                witnesses.append(
                    LawWitness(
                        "odot_nonassociativity",
                        (str(a), str(b), str(c)),
                        str(lhs),
                        str(rhs),
                    )
                )
                sampled_nonassoc = True

    laws = tuple(
        LawResult(law, checked, violations)
        for law, (checked, violations) in counters.items()
    )
    return LawReport(seed, sample_count, laws, tuple(witnesses))

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
its sample count and seed.  It checks each law once per distinct operand
tuple drawn, weighted by how often it was drawn, in one pass whose memory
does not grow with the sample count.  It needs neither coefficients nor
rationals, so the sizes and the ``compose`` handler import ``fnomial`` where
they use it; its pool, draw and law tables are in
``_laws``, which loads only when it runs.  Everything here is pure on
immutable values.  The ``cobweb prefab`` handlers close the module.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, product
from typing import TYPE_CHECKING, NamedTuple

from .fseq import FSequence, _Frozen, parse_int, parse_sequence

if TYPE_CHECKING:
    from fractions import Fraction
    from types import SimpleNamespace


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
    import random

    from ._laws import _ARITY, _CANONICAL, _FAILING, _LAWS, _POOL, _draw, _witness

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


def _cmd_prefab_laws(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb prefab laws``: the sampled law report; exit 1 if a law fails."""
    parse_sequence(args.spec)  # a malformed spec is still refused
    report = check_algebra_laws(args.samples, args.seed)
    return (0 if report.all_hold else 1), report.to_json_dict()

"""The law checker's sample pool, draw and law tables, loaded by
``prefab.check_algebra_laws`` when it runs, so that no other call compiles them.

The laws call ``prefab.odot`` and ``prefab.circ`` through the module, so a
composition replaced there (a broken variant under test) is the one checked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import prefab
from .prefab import EMPTY, LawWitness, Prefabiant

if TYPE_CHECKING:
    import random

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
    "identity_odot": lambda a: prefab.odot(EMPTY, a) == a and prefab.odot(a, EMPTY) == a,
    "identity_circ": lambda a: prefab.circ(EMPTY, a) == a and prefab.circ(a, EMPTY) == a,
    "commutativity_circ": lambda a, b: prefab.circ(a, b) == prefab.circ(b, a),
    "associativity_circ": lambda a, b, c: (
        prefab.circ(prefab.circ(a, b), c) == prefab.circ(a, prefab.circ(b, c))),
    "grading_odot": lambda a, b: None if a.is_empty or b.is_empty else (
        (stacked := prefab.odot(a, b)).k == a.n and stacked.width == b.width),
    "grading_circ": lambda a, b: None if a.is_empty or b.is_empty else (
        (added := prefab.circ(a, b)).k == a.k + b.k and added.n == a.n + b.n),
    "layer_prime_splitting": lambda a: None if a.is_empty or a.is_prime else (
        prefab.odot(Prefabiant.prime(a.k), Prefabiant.prime(a.width)) == a),
}
_ARITY = {law: holds.__code__.co_argcount for law, holds in _LAWS.items()}

# The two laws odot breaks, each from its operands to its two sides.
_FAILING = {
    "odot_noncommutativity": lambda a, b: (prefab.odot(a, b), prefab.odot(b, a)),
    "odot_nonassociativity": lambda a, b, c: (
        prefab.odot(prefab.odot(a, b), c), prefab.odot(a, prefab.odot(b, c))),
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

"""The law checker, its records, sample pool, draw and law tables and the
``cobweb prefab laws`` handler, loaded by ``prefab.check_algebra_laws`` and a
``prefab laws`` call when they run, so that no other call compiles them.

The laws close over ``prefab.odot`` and ``prefab.circ`` as the module holds
them when a check starts, and the handler calls ``prefab.check_algebra_laws``
through the module, so a function replaced there (a broken variant under
test, a tracing wrapper) is the one run.  A check reads the two compositions
off ``prefab`` once, not once a law: CPython does not specialize attribute
reads on a module that defines ``__getattr__``, as ``prefab`` does, and
reading them a law at a time made a 20,000-sample check about 3% slower.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, product
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import prefab
from .fseq import parse_sequence
from .prefab import EMPTY, Prefabiant

if TYPE_CHECKING:
    import random
    from types import SimpleNamespace


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


def _law_tables(odot: Callable, circ: Callable) -> tuple[dict, dict]:
    """The laws of the compositions ``odot`` and ``circ``, in payload order,
    and the two laws odot breaks.  Each law maps its operands, as many as it
    reads, to whether it holds, or to None where it does not apply; each
    broken law maps its operands to its two sides."""
    laws = {
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
    failing = {
        "odot_noncommutativity": lambda a, b: (odot(a, b), odot(b, a)),
        "odot_nonassociativity": lambda a, b, c: (odot(odot(a, b), c), odot(a, odot(b, c))),
    }
    return laws, failing


# Canonical operands of the laws odot breaks, in their order.  Nonassociativity
# shows already on this small triple: stacking the composite of the first two
# under the third lands two levels higher than stacking the last two onto the first.
_CANONICAL = (
    (Prefabiant.prime(2), Prefabiant.prime(3)),
    (Prefabiant(1, 3), Prefabiant(0, 2), Prefabiant(0, 1)),
)


def _witness(law: str, sides: Callable, operands: tuple[Prefabiant, ...]) -> LawWitness | None:
    """The witness that a broken law fails on operands, None where its two
    sides agree."""
    lhs, rhs = sides(*operands)
    if lhs == rhs:
        return None
    return LawWitness(law, tuple(map(str, operands)), str(lhs), str(rhs))


def _check_laws(sample_count: int, seed: int) -> LawReport:
    """``prefab.check_algebra_laws``.

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

    # the compositions as prefab holds them when the check starts, read once
    laws, failing = _law_tables(prefab.odot, prefab.circ)
    arity = {law: holds.__code__.co_argcount for law, holds in laws.items()}
    rng = random.Random(seed)
    size = len(_POOL)
    # Draw counts of a at index i and of (a, b) at size * i + j: the order of
    # product(_POOL, repeat=arity).
    tables = {1: [0] * size, 2: [0] * size**2}
    firsts, pairs = tables[1], tables[2]
    verdicts = {law: Counter() for law in laws}
    inline = [(verdicts[law], holds) for law, holds in laws.items() if arity[law] == 3]
    sampled = {}
    for _ in range(sample_count):
        i, j = _draw(rng), _draw(rng)
        a, b, c = _POOL[i], _POOL[j], _POOL[_draw(rng)]
        firsts[i] += 1
        pairs[size * i + j] += 1
        for tally, holds in inline:
            tally[holds(a, b, c)] += 1
        if len(sampled) < len(failing):
            for (law, sides), operands in zip(failing.items(), ((a, b), (a, b, c))):
                if law not in sampled and (witness := _witness(law, sides, operands)):
                    sampled[law] = witness
    for law, holds in laws.items():
        if (counts := tables.get(arity[law])) is not None:
            drawn = compress(product(_POOL, repeat=arity[law]), counts)
            for count, operands in zip(filter(None, counts), drawn):
                verdicts[law][holds(*operands)] += count
    results = (LawResult(law, sample_count - v[None], v[False]) for law, v in verdicts.items())
    canonical = map(_witness, failing, failing.values(), _CANONICAL)
    return LawReport(seed, sample_count, tuple(results), (*canonical, *sampled.values()))


def _cmd_prefab_laws(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb prefab laws``: the sampled law report; exit 1 if a law fails."""
    parse_sequence(args.spec)  # a malformed spec is still refused
    report = prefab.check_algebra_laws(args.samples, args.seed)
    return (0 if report.all_hold else 1), report.to_json_dict()

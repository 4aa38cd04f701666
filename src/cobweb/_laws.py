"""The law checker, its records, sample pool, draw and law tables and the
``cobweb prefab laws`` handler, loaded by ``prefab.check_algebra_laws`` and a
``prefab laws`` call when they run, so that no other call compiles them.

The laws close over ``prefab.odot`` and ``prefab.circ`` as the module holds
them when a check starts, and the handler calls ``prefab.check_algebra_laws``
through the module, so a function replaced there (a broken variant under
test, a tracing wrapper) is the one run.

A check decides each law before it draws a sample.  ``odot`` and ``circ``
branch only on the empty element, so on each emptiness pattern of a law's
operands each side of the law is affine in the lower bounds and widths of
the operands that are layers.  Two such sides that agree on 1 + 2r affinely
independent points of r layers agree on every r layers, so a law is
evaluated at that many points a pattern (``_holds_everywhere``): 80
evaluations decide the seven laws.  The decision is sound for compositions
that are affine on each emptiness pattern, as ``odot``, ``circ`` and the
broken variants the tests swap in are; one that branches on anything else,
such as primality or the size of a bound, can be decided wrongly.

The sample loop then only draws.  It counts each sample into one of six
cells: its first operand empty, prime or another layer, and its second
empty or not.  Whether a law applies to a sample depends on its cell alone,
so a law that holds is checked on the samples of the cells where it
applies, found by one evaluation on a representative of each cell, and
violated by none.  A law the decision refutes is evaluated on each sample as
it is drawn, and the search for the first sampled witnesses of the two laws
``odot`` breaks runs until it has both.  So the report is the one that
evaluating every law on every sample gives, in memory that does not grow
with the sample count.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
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


class LawResult(NamedTuple):
    law: str
    checked: int
    violations: int

    @property
    def holds(self) -> bool:
        return self.violations == 0


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
            "laws": [{**law._asdict(), "holds": law.holds} for law in self.laws],
            "witnesses": [{**w._asdict(), "operands": list(w.operands)} for w in self.witnesses],
        }


# The pool a sample draws from, built once: the empty element at index 0, then
# the 13 x 12 layers of lower level 0..12 and width 1..12, layer (k, k + w) at 12k + w.
_POOL = (EMPTY, *(Prefabiant(k, k + width) for k in range(13) for width in range(1, 13)))

# The cells a sample is counted in, 2 * (first operand empty, prime or another
# layer) + (second operand a layer), each by a representative of its first
# two operands, and the first cell of each pool index: primes are at 1..12.
_CELLS = tuple(product((EMPTY, Prefabiant(0, 1), Prefabiant(1, 2)), (EMPTY, Prefabiant(0, 1))))
_FIRST_CELL = (0, *[2] * 12, *[4] * (len(_POOL) - 13))

# Samples past which a check is refused before its first draw, as
# ``poset.WORK_BOUND``: at the bound a check draws for about 8 s (one core of
# a 2-vCPU x86 VM).
SAMPLE_BOUND = 10_000_000


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


def _holds_everywhere(holds: Callable) -> bool:
    """Whether a law holds on every tuple of operands it applies to.

    On each emptiness pattern of its operands the law is evaluated where each
    layer is (1, 2), lower bound 1 and width 1, and at each point that raises
    one lower bound or one width of that by one: 1 + 2r affinely independent
    points for r layers, none of them prime.  Sound for compositions affine
    on each emptiness pattern (the module docstring).
    """
    for pattern in product((False, True), repeat=holds.__code__.co_argcount):
        coordinates = 2 * sum(pattern)
        for raised in range(-1, coordinates):
            point = [1 + (i == raised) for i in range(coordinates)]
            layers = (Prefabiant(k, k + width) for k, width in zip(point[0::2], point[1::2]))
            if holds(*(next(layers) if layer else EMPTY for layer in pattern)) is False:
                return False
    return True


def _check_laws(sample_count: int, seed: int) -> LawReport:
    """``prefab.check_algebra_laws``: each law decided, then the samples
    drawn and counted by cell (the module docstring)."""
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    if sample_count > SAMPLE_BOUND:
        raise ValueError(f"call passes the work bound of {SAMPLE_BOUND} samples")
    import random

    # the compositions as prefab holds them when the check starts, read once
    laws, failing = _law_tables(prefab.odot, prefab.circ)
    arity = {law: holds.__code__.co_argcount for law, holds in laws.items()}
    refuted = [law for law, holds in laws.items() if not _holds_everywhere(holds)]
    verdicts = {law: Counter() for law in laws}
    rng = random.Random(seed)
    cells = [0] * len(_CELLS)
    sampled = {}
    pending = True
    for _ in range(sample_count):
        i, j, h = _draw(rng), _draw(rng), _draw(rng)
        cells[_FIRST_CELL[i] + (j > 0)] += 1
        if pending:
            operands = _POOL[i], _POOL[j], _POOL[h]
            for law in refuted:
                verdicts[law][laws[law](*operands[:arity[law]])] += 1
            for (law, sides), count in zip(failing.items(), (2, 3)):
                if law not in sampled and (witness := _witness(law, sides, operands[:count])):
                    sampled[law] = witness
            pending = bool(refuted) or len(sampled) < len(failing)
    for law, holds in laws.items():
        if law not in refuted:  # each cell's verdict is its representative's
            for count, (a, b) in zip(cells, _CELLS):
                verdicts[law][holds(*(a, b, EMPTY)[:arity[law]])] += count
    results = (LawResult(law, sample_count - v[None], v[False]) for law, v in verdicts.items())
    canonical = map(_witness, failing, failing.values(), _CANONICAL)
    return LawReport(seed, sample_count, tuple(results), (*canonical, *sampled.values()))


def _cmd_prefab_laws(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb prefab laws``: the sampled law report; exit 1 if a law fails."""
    parse_sequence(args.spec)  # a malformed spec is still refused
    report = prefab.check_algebra_laws(args.samples, args.seed)
    return (0 if report.all_hold else 1), report.to_json_dict()

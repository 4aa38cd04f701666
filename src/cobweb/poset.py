"""Finite truncations of a cobweb poset and the exact searches that run on them.

The poset over a sequence F has one vertex at level 0 and F_s vertices at
level s >= 1; the covering relation is complete bipartite between consecutive
levels, so two distinct vertices are comparable exactly when their levels
differ.  Posets are stored as level sizes; every count and every export is
read from them, and vertex records are built only for callers that ask.

The routes take level indices, never vertices: every count of a layer
depends on the level sizes alone.  Chains are counted by the product of the
level sizes, which is also the covering-matrix power over level blocks, or
by a bounded index-tuple walk; the dense power is an oracle's route.  Work
that grows with the level sizes is priced from them level by level, as
running totals, and refused at the first past ``WORK_BOUND`` by ``check_work``.
The packing search is an exact branch-and-bound, never a heuristic.  It
factors out every level with F_j = 1 (copies on different vertices there
never conflict), builds the remaining conflict graph as a Kronecker product
of per-level bitmask rows, fixes one copy by the symmetry of permuting
vertices within levels, and prunes with a greedy colour-class bound and a
level bound: at most floor(n_j * P(rest) / a_j) copies for any level j of
n_j vertices of which a copy takes a_j, with P(rest) the bound without that
level.  An instance above the copy cap, or a search past
``PACKING_NODE_BUDGET`` nodes, is refused with ``PackingCapError``, not
approximated.  The explicit route, every copy as vertex sets searched
without bounds, is the packing oracle in ``tests/oracles.py``.  The
packing's coefficient quotient, the one value here that can be a fraction,
is divided by ``fseq.exact_quotient``, so ``fractions`` loads only when it is.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, combinations, islice, product
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .fseq import FSequence, exact_quotient

if TYPE_CHECKING:  # the packing quotient is the only rational value here
    from fractions import Fraction


# Branch-and-bound nodes after which a packing search is refused.  Every
# test and benchmark instance closes within a few dozen nodes; the hard
# instances under the default cap tried so far reach this budget in
# 0.9-2.0 s (one core of a 2-vCPU x86 VM).
PACKING_NODE_BUDGET = 100_000

# Units of work, priced from the level sizes before any is done, past which
# a call is refused.  At the bound (one core of a 2-vCPU x86 VM): 10^7 chains
# walk in about 0.6 s, an export of 10^7 matrix entries or edges writes 20 to
# 280 MB of text in 0.3-0.4 s, and one of 10^7 labels 123 MB in about 3.7 s.
WORK_BOUND = 10_000_000

# Labels to one chunk of a streamed label list: about 40 KiB of text.
LABEL_BLOCK = 4096


class PackingCapError(ValueError):
    """An exact packing instance was refused: above the copy cap or past the node budget."""


class Vertex(NamedTuple):
    """Poset vertex: j is the 1-based index within its 0-based level s."""

    j: int
    s: int

    def __str__(self) -> str:
        return f"{self.j},{self.s}"


class CobwebPoset:
    """Levels 0..L of the cobweb poset of a sequence, sizes [1, F_1, ..., F_L].

    Immutable after construction; build through :func:`build_poset`.
    """

    def __init__(self, F: FSequence, level_sizes: Iterable[int]):
        self.F = F
        self.level_sizes = tuple(level_sizes)
        self.L = len(self.level_sizes) - 1

    def __repr__(self) -> str:
        return f"CobwebPoset({self.F.spec!r}, L={self.L})"

    def level_size(self, s: int) -> int:
        if not 0 <= s <= self.L:
            raise ValueError(f"level {s} outside 0..{self.L}")
        return self.level_sizes[s]

    def level(self, s: int) -> list[Vertex]:
        return [Vertex(j, s) for j in range(1, self.level_size(s) + 1)]

    @property
    def vertex_count(self) -> int:
        return sum(self.level_sizes)

    def vertices(self) -> list[Vertex]:
        """All vertices in the contract ordering: level-major, j ascending."""
        return [v for s in range(self.L + 1) for v in self.level(s)]

    def hasse_edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Every covering pair, source-major in the contract ordering, yielded
        one at a time."""
        for s in range(self.L):
            yield from product(self.level(s), self.level(s + 1))

    def to_json_dict(self) -> dict:
        """The ``to_json`` text read back: the spec and the level sizes as strings."""
        return json.loads("".join(self.to_json()))

    def to_json(self) -> Iterator[str]:
        """The spec and the level sizes as decimal strings, the ``json.dumps``
        text of ``to_json_dict``, yielded one level size at a time: no more
        than one level's text is held.  Digits need no escaping."""
        yield f'{{"spec": {json.dumps(self.F.spec)}, "levels": ["'
        for s, size in enumerate(self.level_sizes):
            if s:
                yield '", "'
            yield str(size)
        yield '"]}'


def level_sizes(F: FSequence, levels: int) -> Iterator[int]:
    """The sizes 1, F_1, ..., F_levels of levels 0..levels, each term read
    and checked (every level size must be >= 1) only when it is yielded."""
    if levels < 0:
        raise ValueError(f"level count must be nonnegative, got {levels}")
    yield 1
    for s in range(1, levels + 1):
        size = F.term(s)
        if size < 1:
            raise ValueError(
                f"{F.spec!r} gives nonpositive level size {size} at level {s}"
            )
        yield size


def build_poset(F: FSequence, levels: int) -> CobwebPoset:
    """Truncation with levels 0..levels."""
    return CobwebPoset(F, level_sizes(F, levels))


def check_work(running: Iterable[int], unit: str) -> None:
    """Refuses, with ``ValueError``, work priced from the level sizes one
    level at a time: ``running`` yields the nondecreasing running totals of
    its units, and is read no further than the first past ``WORK_BOUND``."""
    for units in running:
        if units > WORK_BOUND:
            raise ValueError(f"call passes the work bound of {WORK_BOUND} {unit}")


def count_max_chains_between(
    P: CobwebPoset, k: int, n: int, mode: str = "product"
) -> int:
    """Saturated chains from a vertex of level k up to level n: F_(k+1) * ...
    * F_n, so 1 for n = k and F_1 * ... * F_n from the root.

    ``mode="product"`` multiplies the level sizes k+1..n; ``"enumerate"``
    visits each chain, a tuple of vertex indices on levels k+1..n, and is
    refused by ``check_work`` past ``WORK_BOUND`` chains, priced first by a
    running product of the sizes.  ``"matrix"``, row k of the covering-matrix
    power, is the product too: over level blocks a step moves a count one
    level up, times that level's size, so the row is one nonzero entry.
    """
    if not 0 <= k <= n <= P.L:
        raise ValueError(f"levels {k}..{n} outside 0..{P.L}")
    if mode in ("product", "matrix"):
        return math.prod(islice(P.level_sizes, k + 1, n + 1))
    if mode == "enumerate":
        check_work(accumulate(islice(P.level_sizes, k + 1, n + 1), mul), "chains")
        count = 0
        # len drops each chain before the next, so product refills one tuple
        for _ in map(len, product(*map(range, islice(P.level_sizes, k + 1, n + 1)))):
            count += 1
        return count
    raise ValueError(f"unknown mode {mode!r}")


def _copy_shape(P: CobwebPoset, k: int, m: int) -> list[tuple[int, int]]:
    """(vertices available, vertices needed) at each level k+1..k+m of a copy."""
    if m < 0:
        raise ValueError(f"height must be nonnegative, got {m}")
    if not 0 <= k <= P.L - m:
        raise ValueError(f"copy levels {k}..{k + m} outside 0..{P.L}")
    shape = []
    for j in range(1, m + 1):
        avail, need = P.level_sizes[k + j], P.level_sizes[j]
        if need > avail:
            raise ValueError(f"level {k + j} has {avail} vertices, copy needs {need}")
        shape.append((avail, need))
    return shape


class PackingReport(NamedTuple):
    """Exact packing outcome next to the quotient it is measured against.

    ``quotient_bound`` is the coefficient (n over k)_F; the exact maximum
    number of pairwise chain-disjoint copies can fall below it, which is why
    both values are reported and only the inequality is guaranteed.
    """

    spec: str
    root_level: int
    m: int
    n: int
    copies_total: int
    chains_total: int
    quotient_bound: int | Fraction
    max_packing: int
    tight: bool

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "root_level": self.root_level,
            "m": self.m,
            "n": self.n,
            "copies_total": str(self.copies_total),
            "chains_total": str(self.chains_total),
            "quotient_bound": str(self.quotient_bound),
            "max_packing": str(self.max_packing),
            "tight": self.tight,
        }


def _level_conflicts(avail: int, need: int) -> list[int]:
    """Row c is the bitmask of the need-subsets of avail vertices that meet subset c.

    Each row is the union, over the elements of subset c, of the mask of
    subsets containing that element; no pair of subsets is intersected.
    """
    subsets = list(combinations(range(avail), need))
    containing = [0] * avail
    for c, subset in enumerate(subsets):
        for x in subset:
            containing[x] |= 1 << c
    rows = []
    for subset in subsets:
        row = 0
        for x in subset:
            row |= containing[x]
        rows.append(row)
    return rows


def _kronecker(rows_a: list[int], rows_b: list[int]) -> list[int]:
    """Bitmask rows of the Kronecker product, index a * len(rows_b) + b.

    Spreading bit i of a row to bit i * width and multiplying by a row of
    rows_b places a copy of that row in each block; the blocks are disjoint,
    so the product has no carries.
    """
    width = len(rows_b)
    product_rows = []
    for a in rows_a:
        spread = 0
        while a:
            low = a & -a
            spread |= 1 << ((low.bit_length() - 1) * width)
            a ^= low
        product_rows += [spread * b for b in rows_b]
    return product_rows


def _colour_classes(candidates: int, conflict: list[int]) -> list[tuple[int, int]]:
    """Greedy cover of the candidates by pairwise conflicting classes.

    Returns (copy, class number) in class order.  A chain-disjoint family
    takes at most one copy per class, so among the copies up to a position a
    family gains at most that position's class number.
    """
    order = []
    colour = 0
    while candidates:
        colour += 1
        free = candidates
        while free:
            low = free & -free
            v = low.bit_length() - 1
            order.append((v, colour))
            candidates ^= low
            free &= conflict[v] ^ low
    return order


def _max_family_through_first(conflict: list[int], budget: int) -> int:
    """Largest pairwise non-conflicting family that contains copy 0.

    Branch and bound in the order of Tomita and Seki's MCQ (2003): expand the
    candidates from the highest class number down and cut a node once its
    family size plus the class number cannot pass the best found.  The
    search stops as soon as a family reaches the budget, an upper bound on
    the family size.  The recursion is as deep as the family is large, which
    the budget bounds.
    """
    best = 1
    nodes = 0

    def expand(size: int, candidates: int) -> None:
        nonlocal best, nodes
        for v, colour in reversed(_colour_classes(candidates, conflict)):
            if size + colour <= best or best >= budget:
                return
            nodes += 1
            if nodes > PACKING_NODE_BUDGET:
                raise PackingCapError(
                    f"search passed the node budget of {PACKING_NODE_BUDGET} nodes"
                )
            rest = candidates & ~conflict[v]
            if rest:
                expand(size + 1, rest)
            else:
                best = max(best, size + 1)
            candidates ^= 1 << v

    expand(1, ((1 << len(conflict)) - 1) & ~conflict[0])
    return best


def _level_bound(levels: list[tuple[int, int]]) -> int:
    """Upper bound on a chain-disjoint family over (avail, need) levels:
    P(S) <= min_j floor(avail_j * P(S - j) / need_j) over the level sets S,
    from P of no level = 1.  The copies through one vertex of level j miss
    each other on the other levels, so at most P(S - j) of them pass there,
    and each copy passes need_j of the avail_j vertices.  On one level it is
    floor(avail / need), and it is never above the chain budget
    prod avail // prod need.  It takes 2^L steps for L levels; a level with
    2 * need <= avail has C(avail, need) >= 6 copies, so the copy cap bounds L."""
    bound = [1] * (1 << len(levels))
    for subset in range(1, len(bound)):
        bound[subset] = min(
            avail * bound[subset ^ 1 << j] // need
            for j, (avail, need) in enumerate(levels) if subset >> j & 1
        )
    return bound[-1]


def max_disjoint_packing(
    P: CobwebPoset, k: int, m: int, cap: int = 5000
) -> PackingReport:
    """Exact maximum family of pairwise chain-disjoint copies of the m-level
    prime poset on levels k..k+m, with its quotient.

    Instances whose copy count exceeds ``cap`` are refused outright; the
    count prod_j C(F_(k+j), F_j) is multiplied up level by level and the
    refusal comes as soon as it passes the cap, before it grows further.

    Copies pick an F_j-subset at each level k+j and share a maximal chain
    iff all their subsets meet.  A level with F_j = 1 picks one vertex, so
    copies on different vertices there never conflict: the maximum is
    F_(k+j) times that of the instance without the level.  The rest is one
    conflict graph, built as the Kronecker product of the per-level
    "subsets meet" bitmask rows.  Permuting vertices within levels maps any
    copy to copy 0, so some maximum family contains copy 0, and the search
    starts from it.  Each node is bounded by a greedy colour-class cover
    (pairwise conflicting classes) and the whole search by ``_level_bound``
    over the levels with 2 F_j <= F_(k+j); on any other level every two
    copies meet, so it leaves the maximum as it is.  The quotient comes from
    ``fseq.exact_quotient``: an ``int`` where it is integral, else a ``Fraction``.
    A search that passes ``PACKING_NODE_BUDGET`` nodes is refused with
    ``PackingCapError``.  Every instance has at least one copy, so a ``cap``
    below 1 raises ``ValueError``.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    shape = _copy_shape(P, k, m)
    copies_total = 1
    for avail, need in shape:
        copies_total *= math.comb(avail, need)
        if copies_total > cap:
            raise PackingCapError(f"instance has more copies than the cap of {cap}")
    chains_total = math.prod(avail for avail, _ in shape)
    chain_cost = math.prod(need for _, need in shape)
    quotient = exact_quotient(chains_total, chain_cost)
    factor = 1
    conflict = [1]
    spread = []  # the levels on which two copies can miss each other
    for avail, need in shape:
        if need == 1:
            factor *= avail
        else:
            conflict = _kronecker(conflict, _level_conflicts(avail, need))
            if 2 * need <= avail:
                spread.append((avail, need))
    max_packing = factor * _max_family_through_first(conflict, _level_bound(spread))
    return PackingReport(
        spec=P.F.spec,
        root_level=k,
        m=m,
        n=k + m,
        copies_total=copies_total,
        chains_total=chains_total,
        quotient_bound=quotient,
        max_packing=max_packing,
        tight=max_packing == quotient,
    )


class Dim2Realizer(NamedTuple):
    """Two linear orders, one range of j per level, intersecting to the strict order."""

    order_a: tuple[range, ...]
    order_b: tuple[range, ...]


def contract_order(P: CobwebPoset) -> tuple[range, ...]:
    """The contract vertex ordering, level-major, j ascending: one range of j per level."""
    return tuple(range(1, size + 1) for size in P.level_sizes)


def dim2_realizer(P: CobwebPoset) -> Dim2Realizer:
    """Realize the poset as the intersection of two linear orders.

    The first order is the contract ordering, the second reverses each of
    its levels; vertices on a common level flip between the two, so the
    intersection keeps exactly the cross-level pairs.  The check of all N^2
    pairs of the expanded orders is the certificate in ``tests/oracles.py``.
    """
    order_a = contract_order(P)
    return Dim2Realizer(order_a, tuple(js[::-1] for js in order_a))


def labels_json(order: tuple[range, ...]) -> Iterator[str]:
    """The ``json.dumps`` text of the labels "j,s" of an order, one range of j
    per level s, ``LABEL_BLOCK`` labels to a chunk.  Digits and commas need no escaping."""
    yield "["
    separator = ""
    for s, js in enumerate(order):
        for start in range(0, len(js), LABEL_BLOCK):
            yield separator + ", ".join([f'"{j},{s}"' for j in js[start:start + LABEL_BLOCK]])
            separator = ", "
    yield "]"


def export_dot(P: CobwebPoset) -> Iterator[str]:
    """DOT digraph: one node per vertex labelled "j,s", edges directed upward,
    yielded one node line, then one source vertex's edge lines, at a time."""
    yield "digraph cobweb {\n"
    order = contract_order(P)
    for s, js in enumerate(order):
        yield from (f'    "{j},{s}" [label="{j},{s}"];\n' for j in js)
    for s in range(P.L):
        # every edge line from level s ends in one of these target suffixes
        targets = [f' -> "{b},{s + 1}";\n' for b in order[s + 1]]
        for a in order[s]:
            source = f'    "{a},{s}"'
            yield source + source.join(targets)
    yield "}\n"

"""The packing search and the ``cobweb poset pack`` handler, loaded by
``poset.max_disjoint_packing`` and a ``poset pack`` call when they run, so
that no other call compiles them: the copy shape and count with their
refusals, the per-level conflict rows and their Kronecker product, the
colour-class branch and bound, the level bound and the packing's report.

The search is an exact branch-and-bound, never a heuristic.  It factors out
every level with F_j = 1 (copies on different vertices there never
conflict), builds the remaining conflict graph as a Kronecker product of
per-level bitmask rows, fixes one copy by the symmetry of permuting
vertices within levels, and prunes with a greedy colour-class bound and a
level bound: at most floor(n_j * P(rest) / a_j) copies for any level j of
n_j vertices of which a copy takes a_j, with P(rest) the bound without that
level.  The explicit route, every copy as vertex sets searched without
bounds, is the packing oracle in ``tests/oracles.py``.  The packing's
coefficient quotient, the one value of a poset that can be a fraction, is
divided by ``fseq.exact_quotient``, so ``fractions`` loads only when it is.

The handler calls the poset's functions through ``poset``, so it runs what
that module holds at the time of the call: a variant under test, or a
tracing wrapper.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from . import poset
from .fseq import exact_quotient, parse_sequence
from .poset import PACKING_NODE_BUDGET, CobwebPoset, PackingCapError

if TYPE_CHECKING:  # the packing quotient is the only rational value here
    from fractions import Fraction
    from types import SimpleNamespace


def _copy_shape(
    sizes: Sequence[int] | Mapping[int, int], L: int, k: int, m: int
) -> list[tuple[int, int]]:
    """(vertices available, vertices needed) at each level k+1..k+m of a
    copy, read from ``sizes[s]``, the size of level s of a poset of levels
    0..L; only levels 1..m and k+1..k+m are read."""
    if m < 0:
        raise ValueError(f"height must be nonnegative, got {m}")
    if not 0 <= k <= L - m:
        raise ValueError(f"copy levels {k}..{k + m} outside 0..{L}")
    shape = []
    for j in range(1, m + 1):
        avail, need = sizes[k + j], sizes[j]
        if need > avail:
            raise ValueError(f"level {k + j} has {avail} vertices, copy needs {need}")
        shape.append((avail, need))
    return shape


def _copies_total(shape: list[tuple[int, int]], cap: int) -> int:
    """prod C(avail, need) over the shape, multiplied up level by level and
    refused with ``PackingCapError`` as soon as it passes ``cap``."""
    copies_total = 1
    for avail, need in shape:
        copies_total *= math.comb(avail, need)
        if copies_total > cap:
            raise PackingCapError(f"instance has more copies than the cap of {cap}")
    return copies_total


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


def _max_disjoint_packing(P: CobwebPoset, k: int, m: int, cap: int) -> PackingReport:
    """``poset.max_disjoint_packing``.

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
    shape = _copy_shape(P.level_sizes, P.L, k, m)
    copies_total = _copies_total(shape, cap)
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


def _cmd_poset_pack(args: SimpleNamespace) -> tuple[int, dict]:
    """The packing of levels k..k+m.  One read of the terms checks every
    level and keeps only levels 1..m and k+1..k+m, on which the copy shape
    and the copy cap refuse as ``max_disjoint_packing`` would; only an
    instance the cap admits gets its poset, built by a second read."""
    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    k, m = args.root_level, args.m
    F = parse_sequence(args.spec)
    kept = {s: size for s, size in enumerate(poset.level_sizes(F, k + m)) if s <= m or s > k}
    _copies_total(_copy_shape(kept, k + m, k, m), args.cap)
    report = poset.max_disjoint_packing(poset.build_poset(F, k + m), k, m, cap=args.cap)
    return (0 if report.tight else 1), report.to_json_dict()

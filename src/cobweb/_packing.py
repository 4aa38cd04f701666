"""The packing search's helpers, loaded by ``poset.max_disjoint_packing``
and the ``poset pack`` handler when they run, so that no other call compiles
them: the copy shape and count with their refusals, the per-level conflict
rows and their Kronecker product, the colour-class branch and bound and the
level bound.  ``poset``'s docstring describes the search.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Mapping, Sequence

from .poset import PACKING_NODE_BUDGET, PackingCapError


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

"""Finite truncations of a cobweb poset and the exact searches that run on them.

The poset over a sequence F has one vertex at level 0 and F_s vertices at
level s >= 1; the covering relation is complete bipartite between consecutive
levels, so two distinct vertices are comparable exactly when their levels
differ.  Posets are stored implicitly as level sizes; explicit adjacency is
only ever materialized inside the enumeration oracles.

Chain counting has one entry point with three routes (product formula,
literal depth-first walk, covering-matrix power) so each can certify the
others.  The packing search is an exact branch-and-bound, never a heuristic.
It factors out every level with F_j = 1 (copies on different vertices there
never conflict), builds the remaining conflict graph as a Kronecker product
of per-level bitmask rows, fixes one copy by the symmetry of permuting
vertices within levels, and prunes with a greedy colour-class bound and the
chain budget.  An instance above the copy cap, or a search past
``PACKING_NODE_BUDGET`` nodes, is refused with ``PackingCapError``, not
approximated.  The explicit route, every copy as vertex sets searched
without bounds, is the packing oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .fnomial import f_factorial, falling_f
from .fseq import FSequence


# Branch-and-bound nodes after which a packing search is refused.  Every
# test and benchmark instance closes within a few dozen nodes; the hard
# instances under the default cap tried so far reach this budget in
# 0.9-2.0 s (one core of a 2-vCPU x86 VM).
PACKING_NODE_BUDGET = 100_000


class PackingCapError(ValueError):
    """An exact packing instance was refused: above the copy cap or past the node budget."""


@dataclass(frozen=True)
class Vertex:
    """Poset vertex: j is the 1-based index within its 0-based level s."""

    j: int
    s: int

    def __str__(self) -> str:
        return f"{self.j},{self.s}"


class CobwebPoset:
    """Levels 0..L of the cobweb poset of a sequence, sizes [1, F_1, ..., F_L].

    Immutable after construction; build through :func:`build_poset`.
    """

    def __init__(self, F: FSequence, level_sizes: list[int]):
        self.F = F
        self.level_sizes = tuple(level_sizes)
        self.L = len(level_sizes) - 1

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

    def contains(self, v: Vertex) -> bool:
        return 0 <= v.s <= self.L and 1 <= v.j <= self.level_sizes[v.s]

    def check_vertex(self, v: Vertex) -> None:
        if not self.contains(v):
            raise ValueError(f"vertex {v} is not in the poset")

    def leq(self, u: Vertex, v: Vertex) -> bool:
        """Comparability: u <= v iff u = v or level(u) < level(v)."""
        self.check_vertex(u)
        self.check_vertex(v)
        return u == v or u.s < v.s

    def hasse_edges(self) -> list[tuple[Vertex, Vertex]]:
        """Every covering pair, source-major in the contract ordering."""
        edges = []
        for s in range(self.L):
            upper = self.level(s + 1)
            for u in self.level(s):
                for v in upper:
                    edges.append((u, v))
        return edges

    def to_json_dict(self) -> dict:
        return {"spec": self.F.spec, "levels": [str(s) for s in self.level_sizes]}


def build_poset(F: FSequence, levels: int) -> CobwebPoset:
    """Truncation with levels 0..levels; every level size must be >= 1."""
    if levels < 0:
        raise ValueError(f"level count must be nonnegative, got {levels}")
    sizes = [1]
    for s in range(1, levels + 1):
        size = F.term(s)
        if size < 1:
            raise ValueError(
                f"{F.spec!r} gives nonpositive level size {size} at level {s}"
            )
        sizes.append(size)
    return CobwebPoset(F, sizes)


def _dfs_chain_count(P: CobwebPoset, start: Vertex, target_level: int) -> int:
    """Walk every saturated chain from start up to the target level, one by one.

    This is the enumeration oracle: it builds the explicit level lists and
    literally visits each chain, with no arithmetic shortcuts.
    """
    levels = [P.level(s) for s in range(P.L + 1)]
    count = 0

    def walk(v: Vertex) -> None:
        nonlocal count
        if v.s == target_level:
            count += 1
            return
        for w in levels[v.s + 1]:
            walk(w)

    walk(start)
    return count


def count_max_chains_between(
    P: CobwebPoset, v: Vertex, n: int, mode: str = "product"
) -> int:
    """Saturated chains from vertex v up to level n: F_(k+1) * ... * F_n for
    v on level k, so 1 for n = k and F_1 * ... * F_n from the root.

    ``mode="product"`` evaluates the falling product; ``"enumerate"`` walks
    the Hasse digraph chain by chain; ``"matrix"`` reads row k of the
    covering-matrix power.  All three must agree.  The count only depends on
    v's level, never on which vertex of the level was picked (testable).
    """
    P.check_vertex(v)
    if not v.s <= n <= P.L:
        raise ValueError(f"target level {n} outside {v.s}..{P.L}")
    if mode == "product":
        return falling_f(P.F, n, n - v.s)
    if mode == "enumerate":
        return _dfs_chain_count(P, v, n)
    if mode == "matrix":
        from .incidence import maximal_chain_row

        # Chains to one vertex of level n; on v's own level that vertex is v.
        to_one = maximal_chain_row(P, v.s, n - v.s)[n]
        return to_one if n == v.s else P.level_size(n) * to_one
    raise ValueError(f"unknown mode {mode!r}")


def _copy_shape(P: CobwebPoset, root: Vertex, m: int) -> list[tuple[int, int]]:
    """(vertices available, vertices needed) at each level k+1..k+m of a copy."""
    P.check_vertex(root)
    if m < 0:
        raise ValueError(f"height must be nonnegative, got {m}")
    k = root.s
    if k + m > P.L:
        raise ValueError(f"height {m} from level {k} exceeds the built level {P.L}")
    shape = []
    for j in range(1, m + 1):
        avail, need = P.level_size(k + j), P.F.term(j)
        if need > avail:
            raise ValueError(f"level {k + j} has {avail} vertices, copy needs {need}")
        shape.append((avail, need))
    return shape


@dataclass(frozen=True)
class PackingReport:
    """Exact packing outcome next to the quotient it is measured against.

    ``quotient_bound`` is the coefficient (n over k)_F; the exact maximum
    number of pairwise chain-disjoint copies can fall below it, which is why
    both values are reported and only the inequality is guaranteed.
    """

    spec: str
    root: Vertex
    m: int
    n: int
    copies_total: int
    chains_total: int
    quotient_bound: Fraction
    max_packing: int
    tight: bool

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "root_level": self.root.s,
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
    search stops as soon as a family reaches the chain budget.  The
    recursion is as deep as the family is large, which the budget bounds.
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


def max_disjoint_packing(
    P: CobwebPoset, root: Vertex, m: int, cap: int = 5000
) -> PackingReport:
    """Exact maximum family of pairwise chain-disjoint copies, with its quotient.

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
    (pairwise conflicting classes) and the whole search by the chain budget
    (chains_total // chain_cost).  A search that passes
    ``PACKING_NODE_BUDGET`` nodes is refused with ``PackingCapError``.
    """
    shape = _copy_shape(P, root, m)
    copies_total = 1
    for avail, need in shape:
        copies_total *= math.comb(avail, need)
        if copies_total > cap:
            raise PackingCapError(f"instance has more copies than the cap of {cap}")
    chain_cost = f_factorial(P.F, m)
    chains_total = falling_f(P.F, root.s + m, m)
    quotient = Fraction(chains_total, chain_cost)
    factor = 1
    conflict = [1]
    reduced_chains = reduced_cost = 1
    for avail, need in shape:
        if need == 1:
            factor *= avail
        else:
            conflict = _kronecker(conflict, _level_conflicts(avail, need))
            reduced_chains *= avail
            reduced_cost *= need
    max_packing = factor * _max_family_through_first(conflict, reduced_chains // reduced_cost)
    return PackingReport(
        spec=P.F.spec,
        root=root,
        m=m,
        n=root.s + m,
        copies_total=copies_total,
        chains_total=chains_total,
        quotient_bound=quotient,
        max_packing=max_packing,
        tight=Fraction(max_packing) == quotient,
    )


@dataclass(frozen=True)
class Dim2Realizer:
    """Two linear orders whose intersection reproduces the strict order."""

    order_a: tuple[Vertex, ...]
    order_b: tuple[Vertex, ...]
    verified: bool


def dim2_realizer(P: CobwebPoset) -> Dim2Realizer:
    """Realize the poset as the intersection of two linear orders.

    The first order sorts level-major with j ascending, the second with j
    descending; vertices on a common level flip between the two, so the
    intersection keeps exactly the cross-level pairs.  Verification is an
    exhaustive pairwise check.
    """
    order_a = tuple(P.vertices())
    order_b = tuple(
        v for s in range(P.L + 1) for v in sorted(P.level(s), key=lambda v: -v.j)
    )
    pos_a = {v: i for i, v in enumerate(order_a)}
    pos_b = {v: i for i, v in enumerate(order_b)}
    verified = True
    for u in order_a:
        for v in order_a:
            if u == v:
                continue
            below_in_both = pos_a[u] < pos_a[v] and pos_b[u] < pos_b[v]
            if below_in_both != (u.s < v.s):
                verified = False
    return Dim2Realizer(order_a, order_b, verified)


def export_dot(P: CobwebPoset) -> str:
    """DOT digraph: one node per vertex labelled "j,s", edges directed upward."""
    lines = ["digraph cobweb {"]
    for v in P.vertices():
        lines.append(f'    "{v}" [label="{v}"];')
    for u, v in P.hasse_edges():
        lines.append(f'    "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

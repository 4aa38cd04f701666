"""Finite truncations of a cobweb poset and the exact searches that run on them.

The poset over a sequence F has one vertex at level 0 and F_s vertices at
level s >= 1; the covering relation is complete bipartite between consecutive
levels, so two distinct vertices are comparable exactly when their levels
differ.  Posets are stored implicitly as level sizes; explicit adjacency is
only ever materialized inside the enumeration oracles.

Chain counting is exposed through two independent routes (product formula and
literal depth-first walk) so each can certify the other.  The packing search
is an exact branch-and-bound, never a heuristic: when an instance exceeds the
guard cap it is refused, not approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .fnomial import f_factorial, falling_f
from .fseq import FSequence


class PackingCapError(ValueError):
    """An exact packing instance above the configured copy cap was refused."""


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

    def covers(self, u: Vertex, v: Vertex) -> bool:
        """v covers u iff v sits one level above u (complete bipartite steps)."""
        self.check_vertex(u)
        self.check_vertex(v)
        return v.s == u.s + 1

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


def count_max_chains_from_root(P: CobwebPoset, n: int, mode: str = "product") -> int:
    """Saturated chains from the root to level n: F_1 * ... * F_n.

    ``mode="product"`` evaluates the factorial; ``mode="enumerate"`` walks the
    Hasse digraph and counts chains explicitly.  Both must agree.
    """
    if not 0 <= n <= P.L:
        raise ValueError(f"target level {n} outside 0..{P.L}")
    if mode == "product":
        return f_factorial(P.F, n)
    if mode == "enumerate":
        return _dfs_chain_count(P, Vertex(1, 0), n)
    raise ValueError(f"unknown mode {mode!r}")


def count_max_chains_between(
    P: CobwebPoset, v: Vertex, n: int, mode: str = "product"
) -> int:
    """Saturated chains from vertex v up to level n: F_(k+1) * ... * F_n.

    The count only depends on v's level, never on which vertex of the level
    was picked (testable).
    """
    P.check_vertex(v)
    if not v.s < n <= P.L:
        raise ValueError(f"target level {n} outside {v.s + 1}..{P.L}")
    if mode == "product":
        return falling_f(P.F, n, n - v.s)
    if mode == "enumerate":
        return _dfs_chain_count(P, v, n)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class PrimeCopy:
    """An embedded copy of the m-level bottom poset, rooted at a vertex.

    Since every cross-level vertex pair is comparable, an embedded copy rooted
    at level k is determined by nothing more than its vertex choices: a set
    S_j of F_j vertices at level k+j for each j = 1..m.  Its maximal chains
    pick the root and then one vertex from each S_j, so it has exactly
    F_1 * ... * F_m of them.
    """

    root: Vertex
    m: int
    sets: tuple[frozenset[Vertex], ...]

    def max_chain_count(self) -> int:
        return math.prod(len(s) for s in self.sets)

    def shares_chain_with(self, other: "PrimeCopy") -> bool:
        """Two copies share a maximal chain iff all their level sets intersect."""
        return all(s & t for s, t in zip(self.sets, other.sets))

    def is_max_disjoint(self, other: "PrimeCopy") -> bool:
        return not self.shares_chain_with(other)


def enumerate_copies(P: CobwebPoset, root: Vertex, m: int) -> list[PrimeCopy]:
    """All embedded copies of height m rooted at the given vertex.

    There are prod_j C(F_(k+j), F_j) of them; each is verified to carry
    F_1 * ... * F_m maximal chains.
    """
    P.check_vertex(root)
    if m < 0:
        raise ValueError(f"height must be nonnegative, got {m}")
    k = root.s
    if k + m > P.L:
        raise ValueError(f"height {m} from level {k} exceeds the built level {P.L}")
    per_level: list[list[frozenset[Vertex]]] = []
    for j in range(1, m + 1):
        need = P.F.term(j)
        avail = P.level(k + j)
        if need > len(avail):
            raise ValueError(
                f"level {k + j} has {len(avail)} vertices, copy needs {need}"
            )
        per_level.append([frozenset(c) for c in combinations(avail, need)])
    copies = [PrimeCopy(root, m, sets) for sets in product(*per_level)]
    expected_chains = f_factorial(P.F, m)
    for copy in copies:
        if copy.max_chain_count() != expected_chains:
            raise AssertionError("embedded copy with wrong chain count")
    return copies


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


def _max_disjoint_family_size(copies: list[PrimeCopy], chain_cost: int, chains_total: int) -> int:
    """Exact maximum size of a pairwise chain-disjoint family, by branch and bound.

    Candidates are tracked as a bitset; the bound at each node is the
    candidate count capped by the remaining chain budget (each admitted copy
    consumes chain_cost chains out of a disjoint pool of chains_total).
    Iterative so the exclude chain cannot exhaust the recursion limit.
    """
    count = len(copies)
    if count == 0:
        return 0
    conflict = [0] * count
    for a in range(count):
        for b in range(a + 1, count):
            if copies[a].shares_chain_with(copies[b]):
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    budget_total = chains_total // chain_cost
    best = 0
    stack = [((1 << count) - 1, 0)]
    while stack:
        candidates, size = stack.pop()
        if size > best:
            best = size
            if best >= budget_total:
                break
        if not candidates:
            continue
        budget = (chains_total - size * chain_cost) // chain_cost
        if size + min(candidates.bit_count(), budget) <= best:
            continue
        low = candidates & -candidates
        v = low.bit_length() - 1
        stack.append((candidates & ~low, size))
        stack.append((candidates & ~low & ~conflict[v], size + 1))
    return best


def max_disjoint_packing(
    P: CobwebPoset, root: Vertex, m: int, cap: int = 5000
) -> PackingReport:
    """Exact maximum family of pairwise chain-disjoint copies, with its quotient.

    Instances whose copy count exceeds ``cap`` are refused outright; the
    count prod_j C(F_(k+j), F_j) is multiplied up level by level and the
    refusal comes as soon as it passes the cap, before it grows further.
    A level too small for a copy is left to ``enumerate_copies`` to report.
    """
    k = root.s
    n = k + m
    sizes = [(P.F.term(k + j), P.F.term(j)) for j in range(1, m + 1)]
    if all(need <= avail for avail, need in sizes):
        copies_total = 1
        for avail, need in sizes:
            copies_total *= math.comb(avail, need)
            if copies_total > cap:
                raise PackingCapError(f"instance has more copies than the cap of {cap}")
    copies = enumerate_copies(P, root, m)
    chain_cost = f_factorial(P.F, m)
    chains_total = falling_f(P.F, n, m)
    quotient = Fraction(chains_total, chain_cost)
    max_packing = _max_disjoint_family_size(copies, chain_cost, chains_total)
    return PackingReport(
        spec=P.F.spec,
        root=root,
        m=m,
        n=n,
        copies_total=len(copies),
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


def hasse_topological_order(P: CobwebPoset) -> list[Vertex] | None:
    """Kahn's algorithm over the explicit Hasse digraph; None if cyclic."""
    vertices = P.vertices()
    indegree = {v: 0 for v in vertices}
    successors: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    for u, v in P.hasse_edges():
        successors[u].append(v)
        indegree[v] += 1
    queue = [v for v in vertices if indegree[v] == 0]
    order: list[Vertex] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in successors[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if len(order) != len(vertices):
        return None
    return order


def hasse_is_acyclic(P: CobwebPoset) -> bool:
    return hasse_topological_order(P) is not None


def export_dot(P: CobwebPoset) -> str:
    """DOT digraph: one node per vertex labelled "j,s", edges directed upward."""
    lines = ["digraph cobweb {"]
    for v in P.vertices():
        lines.append(f'    "{v}" [label="{v}"];')
    for u, v in P.hasse_edges():
        lines.append(f'    "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

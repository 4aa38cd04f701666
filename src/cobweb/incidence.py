"""Incidence algebra on level-block tables, dense only on export.

A cobweb poset is an ordinal sum of antichains, so every incidence function
here is constant on level blocks and is stored as an upper-triangular
(L+1)×(L+1) table of exact integers: [s][s] is the value on each diagonal
vertex of level s, [s][t] (s < t) the value on every pair (level s, level t),
and distinct vertices of one level always get 0.  Products and inverses cost
a power of L, never of the vertex count.  The dense matrix is only exported,
in the contract ordering (level-major, j ascending), byte for byte stable.
An interval [x, y] is fully contained once level(y) is built, so the inverse
of a truncation agrees with the untruncated values entry by entry.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

from .poset import CobwebPoset, Vertex


class IncidenceMatrix:
    """A level-block incidence function on a poset truncation.

    Treated as immutable after construction; operations return new matrices,
    so instances are safe to share for concurrent reads.
    """

    def __init__(self, P: CobwebPoset, table: list[list[int]]):
        n = P.L + 1
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table shape must match the L + 1 levels")
        if any(any(row[:s]) for s, row in enumerate(table)):
            raise ValueError("table must be upper triangular")
        self.poset = P
        self.table = [list(row) for row in table]

    @property
    def dim(self) -> int:
        """Side of the dense matrix: the vertex count."""
        return self.poset.vertex_count

    def entry(self, x: Vertex, y: Vertex) -> int:
        self.poset.check_vertex(x)
        self.poset.check_vertex(y)
        if x.s == y.s and x != y:
            return 0
        return self.table[x.s][y.s]

    def multiply(self, other: "IncidenceMatrix") -> "IncidenceMatrix":
        """Block convolution: (AB)[s][t] = sum over s <= r <= t of w_r A[s][r] B[r][t].

        The weight w_r is the level size n_r for an intermediate level and 1
        for an endpoint, where only the one vertex x or y itself contributes.
        Zero entries are skipped, so powers of a sparse table stay cheap.
        """
        if self.poset.level_sizes != other.poset.level_sizes:
            raise ValueError("matrix orderings disagree")
        sizes = self.poset.level_sizes
        B = other.table
        later = [[(t, b) for t, b in enumerate(row[r + 1:], r + 1) if b] for r, row in enumerate(B)]
        product = []
        for s, a_row in enumerate(self.table):
            row = [0] * len(sizes)
            for r, a in enumerate(a_row[s:], s):
                if not a:
                    continue
                row[r] += a * B[r][r]
                if r > s:
                    a *= sizes[r]
                for t, b in later[r]:
                    row[t] += a * b
            product.append(row)
        return IncidenceMatrix(self.poset, product)

    def is_identity(self) -> bool:
        return self == _table(self.poset, lambda s, t: int(s == t))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return self.poset.level_sizes == other.poset.level_sizes and self.table == other.table

    def _dense_rows(self, cell: Callable[[int], object]) -> Iterator[list]:
        """Dense rows built from one ``cell`` per table entry, shared along each block."""
        sizes = self.poset.level_sizes
        zero = cell(0)
        for s, size in enumerate(sizes):
            head = [zero] * sum(sizes[:s])
            tail = []
            for t in range(s + 1, len(sizes)):
                tail += [cell(self.table[s][t])] * sizes[t]
            diagonal = cell(self.table[s][s])
            for j in range(size):
                yield head + [zero] * j + [diagonal] + [zero] * (size - j - 1) + tail

    def to_dense(self) -> list[list[int]]:
        """The N×N integer matrix over the contract vertex ordering."""
        return list(self._dense_rows(lambda v: v))

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self._dense_rows(str)) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "labels": [str(v) for v in self.poset.vertices()],
            "rows": list(self._dense_rows(str)),
        }

    def to_json(self) -> str:
        # The text json.dumps(self.to_json_dict()) gives, serialised one dense
        # row at a time: the row lists are never all held at once, only their
        # texts and the joined payload.
        parts = ['{"labels": ', json.dumps([str(v) for v in self.poset.vertices()]), ', "rows": [']
        for i, row in enumerate(self._dense_rows(str)):
            parts += [", " if i else "", json.dumps(row)]
        parts.append("]}")
        return "".join(parts)


def _table(P: CobwebPoset, value: Callable[[int, int], int]) -> IncidenceMatrix:
    """The matrix with table entry value(s, t) for every level pair s <= t."""
    n = P.L + 1
    return IncidenceMatrix(P, [[value(s, t) if s <= t else 0 for t in range(n)] for s in range(n)])


def zeta_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """zeta(x, y) = 1 iff x <= y, i.e. x = y or level(x) < level(y).

    Densely this is upper unitriangular with the staircase block pattern:
    identity blocks on each level, all-ones blocks above.
    """
    return _table(P, lambda s, t: 1)


def covering_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """Entry (x, y) = 1 iff y covers x (one level up)."""
    return _table(P, lambda s, t: int(t == s + 1))


def mobius_matrix(Z: IncidenceMatrix) -> IncidenceMatrix:
    """Exact integer inverse of an upper unitriangular level-block table.

    Back-substitution from the top level down: row s of the inverse is e_s
    minus the rows above it, weighted by Z[s][r] and, except at the endpoint,
    by the level size n_r.  The product with Z is the identity on both sides.
    """
    sizes = Z.poset.level_sizes
    n = len(sizes)
    if any(Z.table[s][s] != 1 for s in range(n)):
        raise ValueError("matrix is not upper unitriangular")
    inverse = [[int(s == t) for t in range(n)] for s in range(n)]
    for s in reversed(range(n)):
        row = inverse[s]
        for r in range(s + 1, n):
            z = Z.table[s][r]
            if not z:
                continue
            row[r] -= z
            z *= sizes[r]
            for t in range(r + 1, n):
                row[t] -= z * inverse[r][t]
    return IncidenceMatrix(Z.poset, inverse)


def chain_count_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """Counts of all chains x = z_0 < ... < z_t = y, any length t >= 0.

    Computed as the geometric sum of the strict part eta of zeta; a strict
    chain has at most L steps, so eta^(L+1) = 0 and the sum stops there.
    """
    eta = _table(P, lambda s, t: int(s < t))
    power = _table(P, lambda s, t: int(s == t))
    total = power.table
    for _ in range(P.L):
        power = power.multiply(eta)
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, power.table)]
    return IncidenceMatrix(P, total)


def count_chains(P: CobwebPoset, x: Vertex, y: Vertex) -> int:
    """Number of chains from x to y inclusive, of any length."""
    if not P.leq(x, y):
        raise ValueError(f"{x} and {y} are incomparable")
    return chain_count_matrix(P).entry(x, y)


def maximal_chain_matrix(P: CobwebPoset, distance: int) -> IncidenceMatrix:
    """Power of the covering matrix: saturated-chain counts over that distance."""
    if distance < 0:
        raise ValueError("matrix power must be nonnegative")
    C = covering_matrix(P)
    power = _table(P, lambda s, t: int(s == t))
    for _ in range(distance):
        power = power.multiply(C)
    return power


def count_maximal_chains_matrix(P: CobwebPoset, x: Vertex, y: Vertex) -> int:
    """Saturated chains from x to y, read off a covering-matrix power."""
    if not P.leq(x, y):
        raise ValueError(f"{x} and {y} are incomparable")
    return maximal_chain_matrix(P, y.s - x.s).entry(x, y)

"""Incidence algebra on level-block tables, dense only on export.

A cobweb poset is an ordinal sum of antichains, so every incidence function
here is constant on level blocks and is stored as an upper-triangular
(L+1)×(L+1) table of exact integers: [s][s] is the value on each diagonal
vertex of level s, [s][t] (s < t) the value on every pair (level s, level t),
and distinct vertices of one level always get 0.  Products and inverses
run through one block convolution (``_convolve``) and cost a power of L,
never of the vertex count: chain counts are (delta - eta)^-1, saturated
ones one covering walk from the lower level (``maximal_chain_row``).
The dense matrix is only exported, in the contract ordering (level-major, j
ascending), byte for byte stable, and its text is yielded one dense row at a
time.  An interval [x, y] is fully contained once level(y) is built, so the
inverse of a truncation agrees with the untruncated values entry by entry.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

from .poset import CobwebPoset, Vertex, contract_order, labels_json


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
        """Block convolution, one row of ``self`` at a time (see ``push_row``)."""
        if self.poset.level_sizes != other.poset.level_sizes:
            raise ValueError("matrix orderings disagree")
        return IncidenceMatrix(
            self.poset, [other.push_row(s, row) for s, row in enumerate(self.table)]
        )

    def push_row(self, s: int, row: list[int]) -> list[int]:
        """Row s of R·self for any R whose row s is ``row`` (see ``_convolve``)."""
        return _convolve(self.poset.level_sizes, self.table, s, row)

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

    def to_csv(self) -> Iterator[str]:
        """The dense matrix as CSV, yielded one row line at a time."""
        for row in self._dense_rows(str):
            yield ",".join(row) + "\n"

    def to_json_dict(self) -> dict:
        """The ``to_json`` text read back: labels and dense rows as strings."""
        return json.loads("".join(self.to_json()))

    def to_json(self) -> Iterator[str]:
        """The labels in the contract ordering and the dense rows as JSON
        text, yielded one dense row at a time, so only that row is held."""
        yield '{"labels": '
        yield from labels_json(contract_order(self.poset))
        yield ', "rows": ['
        for i, row in enumerate(self._dense_rows(str)):
            # entries are integer strings, which JSON quotes without escapes
            yield (', ["' if i else '["') + '", "'.join(row) + '"]'
        yield "]}"


def _convolve(sizes: tuple[int, ...], table: list[list[int]], s: int, row: list[int]) -> list[int]:
    """Row s of R·T for the table T and any R whose row s is ``row``:
    sum over s <= r <= t of w_r row[r] T[r][t].

    The weight w_r is the level size n_r for an intermediate level and 1
    for an endpoint, where only the one vertex x or y itself contributes.
    Zero entries of ``row`` and of T are skipped as they are met, so a
    covering-walk step costs O(L).
    """
    out = [0] * len(sizes)
    for r in range(s, len(sizes)):
        a = row[r]
        if not a:
            continue
        B = table[r]
        out[r] += a * B[r]
        if r > s:
            a *= sizes[r]
        for t in range(r + 1, len(sizes)):
            if B[t]:
                out[t] += a * B[t]
    return out


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
    """Exact integer inverse M of an upper unitriangular level-block table.

    M = delta - (Z - delta) M, built from the top level down: row s is e_s
    minus the ``_convolve`` of row s of Z, diagonal cleared, with the rows of
    M above it.  The product with Z is the identity on both sides.
    """
    sizes = Z.poset.level_sizes
    n = len(sizes)
    if any(Z.table[s][s] != 1 for s in range(n)):
        raise ValueError("matrix is not upper unitriangular")
    inverse = [[0] * n for _ in range(n)]
    for s in reversed(range(n)):
        pushed = _convolve(sizes, inverse, s, [0] * (s + 1) + Z.table[s][s + 1 :])
        inverse[s] = [int(t == s) - x for t, x in enumerate(pushed)]
    return IncidenceMatrix(Z.poset, inverse)


def chain_count_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """Counts of all chains x = z_0 < ... < z_t = y, any length t >= 0: the
    geometric sum of the strict part eta of zeta, which as eta is nilpotent is
    (delta - eta)^-1, inverted by ``mobius_matrix``."""
    return mobius_matrix(_table(P, lambda s, t: 1 if s == t else -1))


def count_chains(P: CobwebPoset, x: Vertex, y: Vertex) -> int:
    """Number of chains from x to y inclusive, of any length."""
    if not P.leq(x, y):
        raise ValueError(f"{x} and {y} are incomparable")
    return chain_count_matrix(P).entry(x, y)


def maximal_chain_row(P: CobwebPoset, s: int, distance: int) -> list[int]:
    """Row s of the covering-matrix power C^distance, the saturated-chain
    counts from level s over that distance, walked from the unit row of
    level s one covering step at a time: O(distance · L) work, never the
    whole power."""
    if distance < 0:
        raise ValueError("matrix power must be nonnegative")
    C = covering_matrix(P)
    row = [int(t == s) for t in range(P.L + 1)]
    for _ in range(distance):
        row = C.push_row(s, row)
    return row

"""Incidence algebra on level-block tables, dense only on export.

A cobweb poset is an ordinal sum of antichains, so every incidence function
here is constant on level blocks and is stored as an upper-triangular
(L+1)×(L+1) table of exact integers: [s][s] is the value on each diagonal
vertex of level s, [s][t] (s < t) the value on every pair (level s, level t),
and distinct vertices of one level always get 0.  The tables are closed
forms in the level sizes, each row one running product (``_geometric``), so
a table costs O(L^2) and never a power of the vertex count.
The dense matrix is only exported, in the contract ordering (level-major, j
ascending), byte for byte stable, and its text is yielded one dense row at a
time.  An interval [x, y] is fully contained once level(y) is built, so the
table of a truncation agrees with the untruncated values entry by entry.
The block convolution, the general unitriangular inverse and the vertex
readers are the independent route in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

from .poset import CobwebPoset, contract_order, labels_json


class IncidenceMatrix:
    """A level-block incidence function on a poset truncation.

    The table is taken over, not copied, so the caller writes no more to it.
    Treated as immutable after construction, so instances are safe to share
    for concurrent reads.
    """

    def __init__(self, P: CobwebPoset, table: list[list[int]]):
        n = P.L + 1
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table shape must match the L + 1 levels")
        if any(any(row[:s]) for s, row in enumerate(table)):
            raise ValueError("table must be upper triangular")
        self.poset = P
        self.table = table

    @property
    def dim(self) -> int:
        """Side of the dense matrix: the vertex count."""
        return self.poset.vertex_count

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


def _geometric(P: CobwebPoset, z: int) -> IncidenceMatrix:
    """(delta - z eta)^-1 = delta + z eta + z^2 eta^2 + ..., eta the strict
    part of zeta, in closed form.

    A chain x < z_1 < ... < z_(i-1) < y from level s to level t picks i - 1
    of the levels strictly between and one vertex on each, so the sum of z^i
    over these chains is z prod_(s<j<t) (1 + z n_j) (P. Hall's theorem,
    Stanley, EC1 ch. 3).  Row s is that product running over t.
    """
    sizes = P.level_sizes
    table = []
    for s in range(len(sizes)):
        row = [0] * s + [1]
        running = z
        for n in sizes[s + 1 :]:
            row.append(running)
            running *= 1 + z * n
        table.append(row)
    return IncidenceMatrix(P, table)


def zeta_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """zeta(x, y) = 1 iff x <= y, i.e. x = y or level(x) < level(y).

    Densely this is upper unitriangular with the staircase block pattern:
    identity blocks on each level, all-ones blocks above.
    """
    n = P.L + 1
    return IncidenceMatrix(P, [[0] * s + [1] * (n - s) for s in range(n)])


def mobius_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """The Möbius function, the inverse of zeta = delta + eta: at z = -1,
    mu = -prod_(s<j<t) (1 - n_j) on levels s < t."""
    return _geometric(P, -1)


def chain_count_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """Counts of all chains x = z_0 < ... < z_t = y, any length t >= 0: the
    geometric sum of eta at z = 1, prod_(s<j<t) (1 + n_j) on levels s < t."""
    return _geometric(P, 1)

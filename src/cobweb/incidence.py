"""Incidence functions of a cobweb poset as closed forms, dense only on export.

A cobweb poset is an ordinal sum of antichains, so every incidence function
here is constant on level blocks: one value on each diagonal vertex of
level s, one on every pair (level s, level t) with s < t, and 0 on two
distinct vertices of one level.  Zeta, Möbius and the counts of all chains
are the one closed form z·∏_(s<j<t)(1 + w·n_j) on levels s < t, with 1 on
the diagonal, so an ``IncidenceMatrix`` is the poset and the two integers
(z, w): (1, 0) for ``zeta_matrix``, (−1, −1) for ``mobius_matrix`` and
(1, 1) for the chain counts, ``IncidenceMatrix(P, 1, 1)``.  ``row(s)``
computes level row s as one running product, O(L).
The dense matrix is only exported, in the contract ordering (level-major, j
ascending), byte for byte stable, and its text is yielded one dense row at a
time, so no export holds more than one level row and one dense row.  An
interval [x, y] is fully contained once level(y) is built, so the values of
a truncation agree with the untruncated ones entry by entry.
The level tables, the block convolution, the general unitriangular inverse
and the vertex readers are the independent route in ``tests/oracles.py``.
Only ``cobweb poset zeta|mobius`` loads this module, so its handler closes
the module.  The JSON export is written as text; only ``to_json_dict``,
which no command enters, imports ``json``, to read that text back.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, Iterator

from ._dense import _contract_order, _labels_chunks, _priced_poset
from .poset import CobwebPoset

if TYPE_CHECKING:
    from types import SimpleNamespace


class IncidenceMatrix:
    """The incidence function z·∏_(s<j<t)(1 + w·n_j) on levels s < t of a
    poset truncation, 1 on each diagonal vertex.

    At w = z it is (δ − zη)⁻¹ = δ + zη + z²η² + …, η the strict part of
    zeta: a chain x < z_1 < … < z_(i−1) < y from level s to level t picks
    i − 1 of the levels strictly between and one vertex on each, so the sum
    of z^i over these chains is that product (P. Hall's theorem, Stanley,
    EC1 ch. 3).  Immutable, so instances are safe to share for concurrent
    reads.
    """

    def __init__(self, P: CobwebPoset, z: int, w: int):
        self.poset = P
        self.z = z
        self.w = w

    @property
    def dim(self) -> int:
        """Side of the dense matrix: the vertex count."""
        return self.poset.vertex_count

    def row(self, s: int) -> list[int]:
        """The values on levels (s, t) for t = 0..L: 0 below the diagonal, 1
        on it, then z times the product over the levels between."""
        self.poset.level_size(s)  # refuses a level outside 0..L
        row = [0] * s + [1]
        running = self.z
        for n in self.poset.level_sizes[s + 1 :]:
            row.append(running)
            running *= 1 + self.w * n
        return row

    def _dense_rows(self) -> Iterator[list[str]]:
        """Dense rows of decimal strings, one string per level pair, shared
        along each block."""
        sizes = self.poset.level_sizes
        for s, size in enumerate(sizes):
            row = list(map(str, self.row(s)))
            head = ["0"] * sum(sizes[:s])
            tail = []
            for t in range(s + 1, len(sizes)):
                tail += [row[t]] * sizes[t]
            for j in range(size):
                yield head + ["0"] * j + [row[s]] + ["0"] * (size - j - 1) + tail

    def to_csv(self) -> Iterator[str]:
        """The dense matrix as CSV, yielded one row line at a time."""
        for row in self._dense_rows():
            yield ",".join(row) + "\n"

    def to_json_dict(self) -> dict:
        """The ``to_json`` text read back: labels and dense rows as strings."""
        import json

        return json.loads("".join(self.to_json()))

    def to_json(self) -> Iterator[str]:
        """The labels in the contract ordering and the dense rows as JSON
        text, yielded one dense row at a time, so only that row is held."""
        yield '{"labels": '
        yield from _labels_chunks(_contract_order(self.poset.level_sizes))
        yield ', "rows": ['
        for i, row in enumerate(self._dense_rows()):
            # entries are integer strings, which JSON quotes without escapes
            yield (', ["' if i else '["') + '", "'.join(row) + '"]'
        yield "]}"


def zeta_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """zeta(x, y) = 1 iff x <= y, i.e. x = y or level(x) < level(y): the
    staircase of identity blocks on each level and all-ones blocks above."""
    return IncidenceMatrix(P, 1, 0)


def mobius_matrix(P: CobwebPoset) -> IncidenceMatrix:
    """The Möbius function, the inverse of zeta = delta + eta: at z = -1,
    mu = -prod_(s<j<t) (1 - n_j) on levels s < t."""
    return IncidenceMatrix(P, -1, -1)


def _cmd_poset_matrix(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """``cobweb poset zeta|mobius``: the dense matrix, priced by its entries."""
    P = _priced_poset(args, lambda sizes: (N * N for N in accumulate(sizes)), "matrix entries")
    M = (mobius_matrix if args.subcommand == "mobius" else zeta_matrix)(P)
    if args.format == "csv":
        return 0, M.to_csv()
    return 0, chain(M.to_json(), "\n")

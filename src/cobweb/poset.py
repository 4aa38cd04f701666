"""Finite truncations of a cobweb poset and the exact searches that run on them.

The poset over a sequence F has one vertex at level 0 and F_s vertices at
level s >= 1; the covering relation is complete bipartite between consecutive
levels, so two distinct vertices are comparable exactly when their levels
differ.  Posets are stored as level sizes; every count and every export is
read from them, and vertex records are built only for callers that ask.

The routes take level indices, never vertices: every count of a layer
depends on the level sizes alone.  Chains are counted off one read of the
level sizes by their product, the covering-matrix power over level blocks,
or by a bounded index-tuple walk; the dense power is an oracle's route.
Work that grows with the level sizes is priced from them level by level, as
running totals, and refused at the first past ``WORK_BOUND`` by ``check_work``.
The packing search (``_packing``) takes the sequence, as ``f_nomial``
does, and is an exact branch-and-bound, never a heuristic: an instance
above ``PACKING_COPY_CAP`` copies, or a search past ``PACKING_NODE_BUDGET``
nodes, is refused with ``PackingCapError``, not approximated.

This module holds what every ``cobweb poset`` call runs: the poset, its
level sizes and the work bound.  The code that only some commands run is
in a private module that only they load: ``_chains`` (the chain counts and
``poset chains``), ``_packing`` (the packing search and ``poset pack``),
``_exports`` (the DOT and level-size exports and ``poset build|dot|dim2``)
and ``_dense`` (the price of a dense export, the contract ordering and the
label text); ``poset zeta|mobius`` is ``incidence``'s.  The public entries
here import their module when they run, and ``PackingReport`` is read from
``_packing`` on first access.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .fseq import FSequence

if TYPE_CHECKING:
    from ._packing import PackingReport


# Copies of P_m past which a packing instance is refused before its
# conflict graph is built.
PACKING_COPY_CAP = 5000
# Branch-and-bound nodes after which a packing search is refused.  Every
# test and benchmark instance closes within a few dozen nodes; the hard
# instances under the copy cap tried so far reach this budget in
# 0.9-2.0 s (one core of a 2-vCPU x86 VM).
PACKING_NODE_BUDGET = 100_000

# Units of work, priced from the level sizes before any is done, past which
# a call is refused.  At the bound (one core of a 2-vCPU x86 VM): 10^7 chains
# walk in about 0.6 s, an export of 10^7 matrix entries or edges writes 20 to
# 280 MB of text in 0.3-0.4 s, and one of 10^7 labels 123 MB in about 3.7 s.
WORK_BOUND = 10_000_000


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

    Immutable after construction; build as ``CobwebPoset(F, level_sizes(F, L))``.
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
        """The spec and the level sizes as decimal strings: the ``poset build``
        payload, whose text ``_exports._levels_json`` yields."""
        return {"spec": self.F.spec, "levels": [str(size) for size in self.level_sizes]}


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


def check_work(running: Iterable[int], unit: str) -> None:
    """Refuses, with ``ValueError``, work priced from the level sizes one
    level at a time: ``running`` yields the nondecreasing running totals of
    its units, and is read no further than the first past ``WORK_BOUND``."""
    for units in running:
        if units > WORK_BOUND:
            raise ValueError(f"call passes the work bound of {WORK_BOUND} {unit}")


def count_max_chains_between(
    sizes: Iterable[int], k: int, n: int, mode: str = "product"
) -> int:
    """Saturated chains from a vertex of level k up to level n: F_(k+1) * ...
    * F_n, so 1 for n = k and F_1 * ... * F_n from the root.

    ``sizes`` yields the level sizes from level 0 on (``P.level_sizes``, or
    the stream ``level_sizes(F, L)``), read once up to level n.
    ``mode="product"`` multiplies the level sizes k+1..n; ``"enumerate"``
    visits each chain, and is refused by ``check_work`` past ``WORK_BOUND``
    chains; ``"matrix"``, row k of the covering-matrix power, is the product
    too.  The count is ``_chains._count_chains``.
    """
    from ._chains import _count_chains

    return _count_chains(sizes, k, n, mode)


def max_disjoint_packing(F: FSequence, k: int, m: int) -> PackingReport:
    """Exact maximum family of pairwise chain-disjoint copies of the m-level
    prime poset on levels k..k+m over F, with its quotient, the
    coefficient (n over k)_F: an ``int`` where it is integral, else a
    ``Fraction``.  The layer depends on F alone: F_1..F_(k+m) are read once.
    An instance with more than ``PACKING_COPY_CAP`` copies, or whose search
    passes ``PACKING_NODE_BUDGET`` nodes, is refused with ``PackingCapError``;
    a bad or missing term or a copy that does not fit raises ``ValueError``.
    The search is ``_packing._max_disjoint_packing``.
    """
    from ._packing import _max_disjoint_packing

    return _max_disjoint_packing(F, k, m)


def dim2_realizer(P: CobwebPoset) -> tuple[Iterator[range], Iterator[range]]:
    """Realize the poset as the intersection of two linear orders: the
    contract ordering, and the same with each level reversed, so vertices
    on a common level flip between the two and their intersection keeps
    exactly the cross-level pairs.  Each order is a one-shot iterator of one
    range of j per level, read off ``P.level_sizes`` as it is consumed.
    The check of all N^2 pairs of the expanded orders is the certificate in
    ``tests/oracles.py``."""
    from ._dense import _contract_order

    return _contract_order(P.level_sizes), (js[::-1] for js in _contract_order(P.level_sizes))


def export_dot(P: CobwebPoset) -> Iterator[str]:
    """DOT digraph: one node per vertex labelled "j,s", edges directed upward,
    yielded one node line, then one source vertex's edge lines, at a time.
    The text is ``_exports._dot_chunks``'s."""
    from ._exports import _dot_chunks

    return _dot_chunks(P)


def __getattr__(name: str) -> type:
    """The packing's record, defined in the module that builds it."""
    if name == "PackingReport":
        from ._packing import PackingReport

        return PackingReport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
The search's helpers are in ``_packing``, which loads only when a packing
runs; the ``cobweb poset`` handlers close this module.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, chain, islice, pairwise, product, starmap, tee
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .fseq import FSequence, exact_quotient, parse_sequence

if TYPE_CHECKING:  # the packing quotient is the only rational value here
    from fractions import Fraction
    from types import SimpleNamespace


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
        than one level's text is held."""
        return _levels_json(self.F.spec, self.level_sizes)


def _levels_json(spec: str, sizes: Iterable[int]) -> Iterator[str]:
    """The text of ``CobwebPoset.to_json`` for a spec and its level sizes,
    read one at a time as the text is yielded.  Digits need no escaping."""
    yield f'{{"spec": {json.dumps(spec)}, "levels": ["'
    for s, size in enumerate(sizes):
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
    from ._packing import (
        _copies_total, _copy_shape, _kronecker, _level_bound, _level_conflicts,
        _max_family_through_first,
    )

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


# The ``cobweb poset`` handlers; each refuses before it returns.  A dense
# export (``zeta|mobius|dot|dim2``) and the enumerate walk of ``chains`` are
# priced by ``check_work`` on running totals of the level sizes as
# ``level_sizes`` reads them, and built from the sizes the price read: a
# refusal reads no term past the first level over the bound.


def _priced_poset(
    args: SimpleNamespace, price: Callable[[Iterator[int]], Iterable[int]], unit: str
) -> CobwebPoset:
    """The poset of ``args``, refused by ``check_work`` at the first running
    total past the bound that ``price`` reads off its level sizes.  Each term
    is read once, by the price, and the poset is built from the sizes it read."""
    F = parse_sequence(args.spec)
    priced, kept = tee(level_sizes(F, args.levels))
    check_work(price(priced), unit)
    return CobwebPoset(F, kept)


def _cmd_poset_build(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """The level sizes, written as a second read of the terms yields them:
    the first checks every level, so a refusal prints nothing, and no more
    than one level is held."""
    F = parse_sequence(args.spec)
    for _ in level_sizes(F, args.levels):
        pass
    return 0, chain(_levels_json(F.spec, level_sizes(F, args.levels)), "\n")


def _cmd_poset_dot(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    P = _priced_poset(args, lambda sizes: accumulate(starmap(mul, pairwise(sizes))), "edges")
    return 0, export_dot(P)


def _cmd_poset_chains(args: SimpleNamespace) -> tuple[int, dict]:
    k, n = args.from_level, args.to_level
    # before any term is read; a negative level count keeps its own refusal
    if args.levels >= 0 and not 0 <= k < n <= args.levels:
        raise ValueError(f"need 0 <= from-level < to-level <= {args.levels}")
    if args.mode == "enumerate":
        P = _priced_poset(args, lambda sizes: accumulate(islice(sizes, k + 1, n + 1), mul),
                          "chains")
    else:
        P = build_poset(parse_sequence(args.spec), args.levels)
    count = count_max_chains_between(P, k, n, args.mode)
    payload = {"spec": args.spec, "levels": P.L, "from_level": k, "to_level": n}
    return 0, {**payload, "mode": args.mode, "count": str(count)}


def _cmd_poset_pack(args: SimpleNamespace) -> tuple[int, dict]:
    """The packing of levels k..k+m.  One read of the terms checks every
    level and keeps only levels 1..m and k+1..k+m, on which the copy shape
    and the copy cap refuse as ``max_disjoint_packing`` would; only an
    instance the cap admits gets its poset, built by a second read."""
    from ._packing import _copies_total, _copy_shape

    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    k, m = args.root_level, args.m
    F = parse_sequence(args.spec)
    kept = {s: size for s, size in enumerate(level_sizes(F, k + m)) if s <= m or s > k}
    _copies_total(_copy_shape(kept, k + m, k, m), args.cap)
    report = max_disjoint_packing(build_poset(F, k + m), k, m, cap=args.cap)
    return (0 if report.tight else 1), report.to_json_dict()


def _cmd_poset_matrix(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    from . import incidence

    P = _priced_poset(args, lambda sizes: (N * N for N in accumulate(sizes)), "matrix entries")
    M = (incidence.mobius_matrix if args.subcommand == "mobius" else incidence.zeta_matrix)(P)
    if args.format == "csv":
        return 0, M.to_csv()
    return 0, chain(M.to_json(), "\n")


def _cmd_poset_dim2(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    P = _priced_poset(args, lambda sizes: (2 * N for N in accumulate(sizes)), "labels")
    realizer = dim2_realizer(P)
    # the realizer is correct by construction; tests/oracles.py checks its N^2 pairs
    head = json.dumps({"spec": args.spec, "levels": P.L, "verified": True})
    return 0, chain(
        (head[:-1], ', "l1": '), labels_json(realizer.order_a),
        (', "l2": ',), labels_json(realizer.order_b), ("}\n",),
    )

"""The level-size, DOT and dim2 exports and the ``cobweb poset build|dot|dim2``
handlers, loaded by ``poset.export_dot``, ``poset.dim2_realizer`` and those
calls when they run, so that no other call compiles them.

The handlers call the poset's functions through ``poset``, so they run what
that module holds at the time of the call: a variant under test, or a
tracing wrapper.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain, pairwise, starmap
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from . import poset
from .fseq import parse_sequence
from .poset import CobwebPoset, contract_order

if TYPE_CHECKING:
    from types import SimpleNamespace


class Dim2Realizer(NamedTuple):
    """Two linear orders, one range of j per level, intersecting to the strict order."""

    order_a: tuple[range, ...]
    order_b: tuple[range, ...]


def _dim2_realizer(P: CobwebPoset) -> Dim2Realizer:
    """``poset.dim2_realizer``: vertices on a common level flip between the
    two orders, so their intersection keeps exactly the cross-level pairs."""
    order_a = contract_order(P)
    return Dim2Realizer(order_a, tuple(js[::-1] for js in order_a))


def _dot_chunks(P: CobwebPoset) -> Iterator[str]:
    """``poset.export_dot``'s text."""
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


def _levels_json(spec: str, sizes: Iterable[int]) -> Iterator[str]:
    """The ``json.dumps`` text of ``CobwebPoset.to_json_dict`` for a spec and
    its level sizes, read one at a time as the text is yielded, so no more
    than one level's text is held.  Digits need no escaping."""
    yield f'{{"spec": {json.dumps(spec)}, "levels": ["'
    for s, size in enumerate(sizes):
        if s:
            yield '", "'
        yield str(size)
    yield '"]}'


def _cmd_poset_build(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """The level sizes, written as a second read of the terms yields them:
    the first checks every level, so a refusal prints nothing, and no more
    than one level is held."""
    F = parse_sequence(args.spec)
    for _ in poset.level_sizes(F, args.levels):
        pass
    return 0, chain(_levels_json(F.spec, poset.level_sizes(F, args.levels)), "\n")


def _cmd_poset_dot(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """The DOT digraph, priced by its edges."""
    from ._dense import _priced_poset

    P = _priced_poset(args, lambda sizes: accumulate(starmap(mul, pairwise(sizes))), "edges")
    return 0, poset.export_dot(P)


def _cmd_poset_dim2(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """The two orders' labels, priced by their count."""
    from ._dense import _priced_poset

    P = _priced_poset(args, lambda sizes: (2 * N for N in accumulate(sizes)), "labels")
    realizer = poset.dim2_realizer(P)
    # the realizer is correct by construction; tests/oracles.py checks its N^2 pairs
    head = json.dumps({"spec": args.spec, "levels": P.L, "verified": True})
    return 0, chain(
        (head[:-1], ', "l1": '), poset.labels_json(realizer.order_a),
        (', "l2": ',), poset.labels_json(realizer.order_b), ("}\n",),
    )

"""The level-size and DOT exports and the ``cobweb poset build|dot|dim2``
handlers, loaded by ``poset.export_dot`` and those calls when they run, so
that no other call compiles them.  The DOT text and the dim2 labels are
read off the level sizes as they are written: an export holds the sizes and
no more than one level's text.

The spec's text in the level dump and the dim2 head come from
``fseq._json_text``, so no export imports ``json`` unless the spec needs an
escape.

The handlers call the poset's functions through ``poset``, so they run what
that module holds at the time of the call: a variant under test, or a
tracing wrapper.
"""

from __future__ import annotations

from itertools import accumulate, chain, pairwise, starmap
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator

from . import poset
from .fseq import _json_text, parse_sequence
from .poset import CobwebPoset

if TYPE_CHECKING:
    from types import SimpleNamespace


def _dot_chunks(P: CobwebPoset) -> Iterator[str]:
    """``poset.export_dot``'s text: the node lines from one read of the
    contract ordering, the edge lines from a second, a pair of levels at a
    time."""
    from ._dense import _contract_order

    yield "digraph cobweb {\n"
    for s, js in enumerate(_contract_order(P.level_sizes)):
        for j in js:
            yield f'    "{j},{s}" [label="{j},{s}"];\n'
    for s, (sources, targets) in enumerate(pairwise(_contract_order(P.level_sizes))):
        # every edge line from level s ends in one of these target suffixes
        suffixes = [f' -> "{b},{s + 1}";\n' for b in targets]
        for a in sources:
            source = f'    "{a},{s}"'
            yield source + source.join(suffixes)
    yield "}\n"


def _levels_json(spec: str, sizes: Iterable[int]) -> Iterator[str]:
    """The ``json.dumps`` text of ``CobwebPoset.to_json_dict`` for a spec and
    its level sizes, read one at a time as the text is yielded, so no more
    than one level's text is held.  Digits need no escaping."""
    yield f'{{"spec": {_json_text(spec)}, "levels": ["'
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
    from ._dense import _labels_chunks, _priced_poset

    P = _priced_poset(args, lambda sizes: (2 * N for N in accumulate(sizes)), "labels")
    order_a, order_b = poset.dim2_realizer(P)
    # the realizer is correct by construction; tests/oracles.py checks its N^2 pairs
    head = _json_text({"spec": args.spec, "levels": P.L, "verified": True})
    return 0, chain(
        (head[:-1], ', "l1": '), _labels_chunks(order_a),
        (', "l2": ',), _labels_chunks(order_b), ("}\n",),
    )

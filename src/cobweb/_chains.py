"""The chain counts and the ``cobweb poset chains`` handler, loaded by
``poset.count_max_chains_between`` and a ``poset chains`` call when they
run, so that no other call compiles them.

The handler calls the poset's functions through ``poset``, so it runs what
that module holds at the time of the call: a variant under test, or a
tracing wrapper.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice, product
from operator import mul
from typing import TYPE_CHECKING

from . import poset
from .fseq import parse_sequence
from .poset import CobwebPoset, check_work

if TYPE_CHECKING:
    from types import SimpleNamespace


def _count_chains(P: CobwebPoset, k: int, n: int, mode: str) -> int:
    """``poset.count_max_chains_between``.

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


def _cmd_poset_chains(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb poset chains``: the count of one mode; the enumerate walk is
    priced first."""
    k, n = args.from_level, args.to_level
    # before any term is read; a negative level count keeps its own refusal
    if args.levels >= 0 and not 0 <= k < n <= args.levels:
        raise ValueError(f"need 0 <= from-level < to-level <= {args.levels}")
    if args.mode == "enumerate":
        from ._dense import _priced_poset

        P = _priced_poset(args, lambda sizes: accumulate(islice(sizes, k + 1, n + 1), mul),
                          "chains")
    else:
        P = poset.build_poset(parse_sequence(args.spec), args.levels)
    count = poset.count_max_chains_between(P, k, n, args.mode)
    payload = {"spec": args.spec, "levels": P.L, "from_level": k, "to_level": n}
    return 0, {**payload, "mode": args.mode, "count": str(count)}

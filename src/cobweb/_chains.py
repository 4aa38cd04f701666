"""The chain counts and the ``cobweb poset chains`` handler, loaded by
``poset.count_max_chains_between`` and a ``poset chains`` call when they
run, so that no other call compiles them.

The handler calls the poset's functions through ``poset``, so it runs what
that module holds at the time of the call: a variant under test, or a
tracing wrapper.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice, product, tee
from operator import mul
from typing import TYPE_CHECKING, Iterable

from . import poset
from .fseq import parse_sequence
from .poset import check_work

if TYPE_CHECKING:
    from types import SimpleNamespace


def _count_chains(sizes: Iterable[int], k: int, n: int, mode: str) -> int:
    """``poset.count_max_chains_between``: level 0 is read first, so that a
    stream's own refusal comes first, then levels k+1..n, all that the count
    holds.  ``"enumerate"`` visits each chain, a tuple of vertex indices,
    priced by a running product of the sizes as they are read.  Over level
    blocks a covering step moves a count one level up, times that level's
    size, so row k of the matrix power has one nonzero entry, the product.
    """
    levels = iter(sizes)
    if next(levels, None) is None or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n <= L, got levels {k}..{n}")
    upper = islice(levels, k, n)
    if mode == "enumerate":
        upper, priced = tee(upper)
        check_work(accumulate(priced, mul), "chains")
    elif mode not in ("product", "matrix"):
        raise ValueError(f"unknown mode {mode!r}")
    upper = tuple(upper)
    if len(upper) < n - k:
        raise ValueError(f"need 0 <= k <= n <= L, got levels {k}..{n}")
    if mode != "enumerate":
        return math.prod(upper)
    count = 0
    # len drops each chain before the next, so product refills one tuple
    for _ in map(len, product(*map(range, upper))):
        count += 1
    return count


def _cmd_poset_chains(args: SimpleNamespace) -> tuple[int, dict]:
    """``cobweb poset chains``: the count of one mode, read off one stream of
    the level sizes, whose levels above the count's are then checked too."""
    k, n = args.from_level, args.to_level
    # before any term is read; a negative level count keeps its own refusal
    if args.levels >= 0 and not 0 <= k < n <= args.levels:
        raise ValueError(f"need 0 <= from-level < to-level <= {args.levels}")
    sizes = poset.level_sizes(parse_sequence(args.spec), args.levels)
    count = poset.count_max_chains_between(sizes, k, n, args.mode)
    for _ in sizes:
        pass
    payload = {"spec": args.spec, "levels": args.levels, "from_level": k, "to_level": n}
    return 0, {**payload, "mode": args.mode, "count": str(count)}

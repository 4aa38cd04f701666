"""What the dense exports share, loaded by the ``cobweb poset
zeta|mobius|dot|dim2`` calls, the enumerate walk of ``poset chains`` and
``poset.labels_json`` when they run, so that no other call compiles it: the
price of the call read off its level sizes, and the text of a label list.

The handlers of ``cobweb poset`` refuse before they return.  A dense export
and the enumerate walk are priced by ``poset.check_work`` on running totals
of the level sizes as ``poset.level_sizes`` reads them, and built from the
sizes the price read (``_priced_poset``): a refusal reads no term past the
first level over the bound.  The poset's functions are called through
``poset``, so what that module holds at the time of the call runs: a
variant under test, or a tracing wrapper.
"""

from __future__ import annotations

from itertools import tee
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from . import poset
from .fseq import parse_sequence
from .poset import LABEL_BLOCK, CobwebPoset

if TYPE_CHECKING:
    from types import SimpleNamespace


def _priced_poset(
    args: SimpleNamespace, price: Callable[[Iterator[int]], Iterable[int]], unit: str
) -> CobwebPoset:
    """The poset of ``args``, refused by ``check_work`` at the first running
    total past the bound that ``price`` reads off its level sizes.  Each term
    is read once, by the price, and the poset is built from the sizes it read."""
    F = parse_sequence(args.spec)
    priced, kept = tee(poset.level_sizes(F, args.levels))
    poset.check_work(price(priced), unit)
    return CobwebPoset(F, kept)


def _labels_chunks(order: tuple[range, ...]) -> Iterator[str]:
    """``poset.labels_json``'s text.  Digits and commas need no escaping."""
    yield "["
    separator = ""
    for s, js in enumerate(order):
        for start in range(0, len(js), LABEL_BLOCK):
            yield separator + ", ".join([f'"{j},{s}"' for j in js[start:start + LABEL_BLOCK]])
            separator = ", "
    yield "]"

"""What the dense exports share, loaded by ``incidence`` and by the DOT and
dim2 code when it runs, so that no call but ``cobweb poset
zeta|mobius|dot|dim2`` compiles it: the price of the call read off its level
sizes, the contract ordering read off them one level at a time as it is
written, and the text of a label list.

The handlers of ``cobweb poset`` refuse before they return.  A dense export
is priced by ``poset.check_work`` on running totals of the level sizes as
``poset.level_sizes`` reads them, and built from the sizes the price read
(``_priced_poset``): a refusal reads no term past the first level over the
bound.  The poset's functions are called through ``poset``, so what that
module holds at the time of the call runs: a variant under test, or a
tracing wrapper.
"""

from __future__ import annotations

from itertools import islice, tee
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from . import poset
from .fseq import parse_sequence
from .poset import CobwebPoset

if TYPE_CHECKING:
    from types import SimpleNamespace

# Labels to one chunk of a streamed label list: about 40 KiB of text.
LABEL_BLOCK = 4096


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


def _contract_order(sizes: Iterable[int]) -> Iterator[range]:
    """The contract vertex ordering, level-major, j ascending: one range of j
    per level size, made as it is read."""
    for size in sizes:
        yield range(1, size + 1)


def _labels_chunks(order: Iterable[range]) -> Iterator[str]:
    """The ``json.dumps`` text of an order's labels, ``LABEL_BLOCK`` to a
    chunk across level boundaries, so a level of one vertex costs no chunk."""
    labels = (f'"{j},{s}"' for s, js in enumerate(order) for j in js)
    yield "["
    separator = ""
    while block := ", ".join(islice(labels, LABEL_BLOCK)):
        yield separator + block
        separator = ", "
    yield "]"

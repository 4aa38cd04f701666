"""The printed coefficient triangle: the exact ``Decimal`` context of the
row recurrence, the exporters' bodies and the ``cobweb fnomial triangle``
handler, loaded by a ``Decimal`` row generator, by ``fnomial``'s exporters
when they run and by a ``fnomial triangle`` call, so that no other call
compiles them.

The handler calls the rows and the exporters through ``fnomial``, so it
runs what that module holds at the time of the call: a variant under test,
or a tracing wrapper.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from . import fnomial
from .fseq import parse_sequence

if TYPE_CHECKING:
    from decimal import Context
    from types import SimpleNamespace


def _exact_context() -> Context:
    """The Decimal context of the row recurrence, fixed in full so that no
    setting of the caller's context reaches it: integer products and integer
    divisions stay exact up to MAX_PREC digits, and a result that is not is
    trapped."""
    from decimal import (
        MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, DivisionByZero, Inexact,
        InvalidOperation, Overflow, Rounded,
    )

    return Context(
        prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX, capitals=1,
        clamp=0, flags=[],
        traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
    )


def _row_chunks(row: list, separator: str) -> Iterator[str]:
    """A palindromic row's entries as text, in two joins on ``separator``:
    the left half converted once, then its mirror, with the separator
    between them a chunk of its own.  A consumer that writes each chunk as
    it comes has let go of the first join before the second is made, so no
    more than half the row's text is joined at a time."""
    left = list(map(str, islice(row, (len(row) + 1) // 2)))
    yield separator.join(left)
    if len(row) > 1:
        yield separator
        yield separator.join(left[len(row) // 2 - 1 :: -1])


def _csv_chunks(triangle: Iterable[list]) -> Iterator[str]:
    """``fnomial.triangle_to_csv``, each row's texts from ``_row_chunks``."""
    for n, row in enumerate(triangle):
        if n:
            yield "\n"
        yield from _row_chunks(row, ",")
    yield "\n"


def _json_chunks(triangle: Iterable[list]) -> Iterator[str]:
    """``fnomial.triangle_to_json``, each row's texts from ``_row_chunks``.
    The entries' texts (digits, sign, slash) need no escaping."""
    yield "["
    for n, row in enumerate(triangle):
        yield ', ["' if n else '["'
        yield from _row_chunks(row, '", "')
        yield '"]'
    yield "]"


def _cmd_fnomial_triangle(args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """``cobweb fnomial triangle``: rows printed through ``Decimal``."""
    from decimal import Decimal

    rows = fnomial.triangle_rows(parse_sequence(args.spec), args.rows, Decimal)
    if args.format == "csv":
        return 0, fnomial.triangle_to_csv(rows)
    return 0, chain(fnomial.triangle_to_json(rows), "\n")

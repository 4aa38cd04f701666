"""The finite sequences of ``custom:`` and ``file:`` specs, loaded by
``fseq.parse_sequence`` for such a spec, so that no call on another spec
compiles them.
"""

from __future__ import annotations

import json

from .fseq import FSequence, SequenceError, parse_int


def _finite(values: list[int], spec: str) -> FSequence:
    """The finite sequence F_1, ..., F_len(values), refused at a zero term."""
    for i, v in enumerate(values, start=1):
        if v == 0:
            raise SequenceError(f"{spec!r} has a zero term at index {i}")

    def term(n: int) -> int:
        if n == 0:
            return 0
        if n > len(values):
            raise SequenceError(
                f"{spec!r} defines only {len(values)} terms, index {n} requested"
            )
        return values[n - 1]

    return FSequence(spec, term)


def _finite_spec(head: str, tail: str, spec: str) -> FSequence:
    """The sequence of a ``custom:`` list or a ``file:`` JSON array, for the
    nonempty ``tail`` after the colon of ``spec``."""
    if head == "custom":
        return _finite([parse_int(piece) for piece in tail.split(",")], spec)
    try:
        with open(tail, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SequenceError(f"cannot read sequence file {tail!r}: {exc}") from None
    if not isinstance(data, list) or not all(type(v) is int for v in data):
        raise SequenceError(f"{tail!r} must hold a JSON array of integers")
    return _finite(data, spec)

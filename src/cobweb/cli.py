"""Command-line front end: one machine-readable payload per invocation.

Standard output carries valid JSON (or CSV/DOT where a format flag says so)
and nothing else; diagnostics go to standard error.  Exit codes: 0 success,
1 a verification or tightness check failed, or standard output could not be
written, 2 usage or input error.  Output is deterministic for identical
arguments, including the seed.

Every handler returns its exit code and either a payload dict, which
``main`` writes as one line of JSON (``_json``, whose text is
``fseq._json_text``'s: ``json.dumps``'s, written without importing ``json``
where no string needs an escape), or its standard output as an
iterable of text chunks, which ``main`` writes as they come: a large payload
is never held whole.  ``_write`` gathers small chunks into one write batch
of about ``WRITE_BATCH`` characters and hands a larger chunk to the stream
as it is, never copied into a batch: a streamed payload holds at once the
chunks of one row (a triangle row's left-half texts, one dense row, one
level size) and one write batch.  A handler refuses before it returns, so
exit code 2 always comes with empty standard output.  How each command
prices or checks its work before it returns is written at its handler.
Every ``error:`` line goes through ``_error``, which drops it if standard
error cannot take it.  A payload that standard output cannot take (a closed
pipe, a full device, no standard output at all) ends the call with exit
code 1 and one ``error: cannot write standard output`` line, not a
traceback.

A process enters at ``run`` (the ``cobweb`` console script and the
``__main__`` block): it ends the process with ``os._exit`` and ``main``'s
code, which comes back with the payload written and flushed.  That skips
the interpreter's teardown (clearing every module, collecting garbage), about
10 ms of every call, and with it every ``atexit`` handler and finalizer.
Help, a usage error (``SystemExit``) and any exception still take the
normal exit.

One table, ``COMMANDS``, declares every command once: its help, handler and
options.  A valid call is read straight from the row its leading words name
(``fast_parse``) and never imports ``argparse``, which with ``gettext`` and
``locale`` and the parser build would cost it about 6.7 ms of start-up.
Help, a usage error and any spelling ``fast_parse`` declines (an
abbreviation, ``--flag=value``, a value starting with ``-``) go to the
argparse parser of every row (``build_parser``), which writes all help and
usage text.

A row names its handler as ``module:function``; ``main`` imports that
module when it dispatches the call, so a call compiles the code of its own
command only.  Where bytecode is not cached (``PYTHONDONTWRITEBYTECODE``),
every call compiles each module it loads (about 2.5 us an AST node on a
2-vCPU x86 VM), and the largest compile sets a floor under the call's peak RSS; this module,
which every call compiles, is kept small for that reason, and the argparse
parser is built in ``_parser``.  Every call loads ``fseq``; a layer module
(``fnomial``, ``poset``, ``prefab``, ``series``) holds the code every call
of its group runs, and a private module the code of one command: ``_scans``
(``seq check``), ``_triangle`` (``fnomial triangle``), ``_chains``,
``_packing`` and ``_exports`` (``poset chains``, ``pack`` and
``build|dot|dim2``, with ``_dense`` for the priced ones), ``_laws``
(``prefab laws``) and ``_brute`` (``series --oracle``); ``poset
zeta|mobius`` is ``incidence``'s.  A ``custom:`` or ``file:`` spec loads
``_finite``.  ``json`` loads only to read a ``file:`` spec's terms, or to
write a payload string that needs an escape (a non-ASCII ``file:`` path, a
control character); every other call writes its JSON through
``fseq._json_text``, which saves it about 1.6 ms of start-up.
Rational arithmetic (``fractions``, which imports ``decimal`` and
``numbers``) loads only where a value is fractional: an integral coefficient,
packing quotient or count is an ``int`` from one ``divmod``, so the calls on
an admissible sequence (``fnomial``, ``seq check``, ``poset pack``, ``prefab
compose``), ``series qbell``, ``series bell`` with an integral value and
every other ``poset`` call load none of the three, which saves each such
call about 2 ms of start-up.  ``fnomial triangle`` loads ``decimal`` alone,
and ``series expf|enumerator`` print ``Fraction`` coefficients.
"""

from __future__ import annotations

import errno
import os
import sys
from collections.abc import Iterable
from importlib import import_module
from types import SimpleNamespace

# Series order for ``series expf`` and ``series enumerator`` without --order.
DEFAULT_ORDER = 16

# Characters gathered into one write of standard output.  An unbuffered
# stream (PYTHONUNBUFFERED) makes every write a system call, so writing
# chunk by chunk would cost one call per line of a DOT or CSV payload.
WRITE_BATCH = 1 << 16


def _json(payload: dict) -> tuple[str, str]:
    from .fseq import _json_text

    return _json_text(payload), "\n"


def integer(text: str) -> int:
    """Argument type of every integer option: the spec grammar ``-?[0-9]+``."""
    from .fseq import parse_int

    return parse_int(text)


# Option declarations: (flag, add_argument keywords).  The shared ones are
# declared once and reused by every row that takes them.
FLAG = {"action": "store_true"}
REQUIRED_INT = {"type": integer, "required": True}
SPEC = ("--spec", {"required": True})
LEVELS = ("--levels", REQUIRED_INT)
FORMAT = ("--format", {"choices": ("csv", "json"), "default": "json"})
ORACLE = ("--oracle", FLAG)
ORDER = ("--order", {"type": integer, "default": DEFAULT_ORDER})

# One row per command: (group, subcommand) -> (help, handler, options).  A
# (group, None) row is the group itself; its handler, if any, answers the
# group word alone (the ``fnomial`` point query), and without one a
# subcommand is required.  A handler is named "module:function", a module
# of the package and the function's name there; ``main`` imports the module
# when it dispatches the call.  Parsers are added in table order.
COMMANDS: dict[tuple[str, str | None], tuple] = {
    ("seq", None): ("sequence checks", None, ()),
    ("seq", "check"): (
        "admissibility / gcd-morphism scan", "_scans:_cmd_seq_check",
        (SPEC, ("--upto", REQUIRED_INT), ("--admissible", FLAG), ("--gcd-morphic", FLAG))),
    ("fnomial", None): (
        "coefficients and triangles", "fnomial:_cmd_fnomial",
        (("--spec", {}), ("--n", {"type": integer}), ("--k", {"type": integer}))),
    ("fnomial", "triangle"): (
        "tabulate rows 0..rows-1", "_triangle:_cmd_fnomial_triangle",
        (SPEC, ("--rows", REQUIRED_INT), FORMAT)),
    ("poset", None): ("poset construction and verification", None, ()),
    ("poset", "build"): (
        "level-size dump", "_exports:_cmd_poset_build", (SPEC, LEVELS)),
    ("poset", "dot"): (
        "DOT export of the Hasse digraph", "_exports:_cmd_poset_dot", (SPEC, LEVELS)),
    ("poset", "chains"): (
        "saturated-chain counts", "_chains:_cmd_poset_chains",
        (SPEC, LEVELS, ("--from-level", REQUIRED_INT), ("--to-level", REQUIRED_INT),
         ("--mode", {"choices": ("enumerate", "product", "matrix"), "required": True}))),
    ("poset", "pack"): (
        "exact max-disjoint packing", "_packing:_cmd_poset_pack",
        (SPEC, ("--root-level", REQUIRED_INT), ("--m", REQUIRED_INT))),
    ("poset", "zeta"): (
        "incidence matrix", "incidence:_cmd_poset_matrix", (SPEC, LEVELS, FORMAT)),
    ("poset", "mobius"): (
        "inverse incidence matrix", "incidence:_cmd_poset_matrix",
        (SPEC, LEVELS, FORMAT)),
    ("poset", "dim2"): (
        "two-linear-order realizer", "_exports:_cmd_poset_dim2", (SPEC, LEVELS)),
    ("prefab", None): ("layer composition algebras", None, ()),
    ("prefab", "compose"): (
        "compose two elements", "prefab:_cmd_prefab_compose",
        (("--op", {"choices": ("odot", "circ"), "required": True}),
         ("--a", {"required": True, "metavar": "i|k,n"}),
         ("--b", {"required": True, "metavar": "i|k,n"}), SPEC)),
    ("prefab", "laws"): (
        "sampled law check with witnesses", "_laws:_cmd_prefab_laws",
        (SPEC, ("--samples", REQUIRED_INT), ("--seed", REQUIRED_INT))),
    ("series", None): ("exact generating series", None, ()),
    ("series", "expf"): (
        "sequence exponential", "series:_cmd_series", (SPEC, ORDER)),
    ("series", "enumerator"): (
        "exp(exp_F - 1)", "series:_cmd_series", (SPEC, ORDER)),
    ("series", "bell"): (
        "factorial-scaled enumerator coefficient", "series:_cmd_series_bell",
        (SPEC, ("--n", REQUIRED_INT), ORACLE)),
    ("series", "qbell"): (
        "vector-space decomposition counts", "series:_cmd_series_qbell",
        (("--q", REQUIRED_INT), ("--n", REQUIRED_INT), ORACLE)),
}


def fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed call, read straight from
    the ``COMMANDS`` row with a handler that argv's leading words name; None
    where argparse must read the call.

    Each option is an exact long flag of the row: a store-true flag alone,
    any other flag followed by one value not starting with ``-``.  A value
    is converted by the option's ``type`` and checked against its
    ``choices``; a repeated flag keeps its last value.  The namespace holds
    the same fields as argparse's: ``command``, ``subcommand``, the group
    row's option defaults, the row's options and ``handler``, but no
    ``parser``.  Help, an abbreviation, ``--flag=value``, a value starting
    with ``-``, an unknown token and a malformed value decline, and so does
    an option left without a value: a required one, or one of the three of a
    ``fnomial`` point query."""
    if tuple(argv[:2]) in COMMANDS:
        group, name = argv[:2]
    elif argv:
        group, name = argv[0], None
    else:
        return None
    _, handler, options = COMMANDS.get((group, name), (None, None, ()))
    if handler is None:
        return None
    declared = dict(options)
    given = {}
    tokens = iter(argv[2 if name else 1:])
    for flag in tokens:
        keywords = declared.get(flag)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    args = {"command": group, "subcommand": name}
    for flag, keywords in COMMANDS[group, None][2] if name else ():
        args[_dest(flag)] = keywords.get("default")
    for flag, keywords in options:
        default = False if keywords.get("action") == "store_true" else keywords.get("default")
        args[_dest(flag)] = value = given.get(flag, default)
        if value is None:  # a required option, or one of a point query's three
            return None
    return SimpleNamespace(**args, handler=handler)


def _dest(flag: str) -> str:
    """The attribute argparse stores a long flag's value under."""
    return flag[2:].replace("-", "_")


def build_parser():
    """The argparse parser of every row of ``COMMANDS``: it reads the calls
    ``fast_parse`` declines, and writes all help and usage text.  It is
    built in ``_parser``, which no other call loads."""
    from ._parser import _build_parser

    return _build_parser(COMMANDS)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = fast_parse(argv)
    if args is None:  # help, a usage error, or a spelling only argparse reads
        args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
    module, name = args.handler.split(":")
    handler = getattr(import_module(f".{module}", __package__), name)
    # Exact results may have more decimal digits than the interpreter's
    # int/str conversion limit (Python >= 3.10.7); lift it for this command
    # only, so library callers keep their own setting.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            code, output = handler(args)
        except (ValueError, ArithmeticError) as exc:
            _error(exc)
            return 2
        try:
            if sys.stdout is None:  # descriptor 1 was closed at start
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            _write(_json(output) if isinstance(output, dict) else output)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full device
            _error(f"cannot write standard output: {exc}")
            return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    return code


def _error(message: object) -> None:
    """One ``error:`` line on standard error, dropped if the stream cannot
    take it."""
    try:
        sys.stderr.write(f"error: {message}\n")
        sys.stderr.flush()
    except (AttributeError, OSError):  # no standard error, or a broken one
        pass


def run() -> None:
    """The process entry: ``os._exit`` with ``main``'s code.

    The interpreter's teardown is safe to skip: the package registers no
    ``atexit`` handler, starts no thread and closes every file it opens, and
    ``main`` flushes what it writes.  A missing standard error (descriptor 2
    closed at start) becomes ``os.devnull`` first, so neither an ``error:``
    line nor argparse's usage text falls back to standard output.  Only a
    code that ``main`` returns ends this way; ``SystemExit`` (help, a usage
    error), an interrupt and any other exception leave through the normal
    exit."""
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    os._exit(main())


def _write(chunks: Iterable[str]) -> None:
    """Writes the chunks to the standard output of the moment: small ones
    gathered into batches of about ``WRITE_BATCH`` characters, and one of
    ``WRITE_BATCH`` or more as it is, after the batch pending before it, so
    no large chunk is copied into a batch."""
    out = sys.stdout
    batch: list[str] = []
    size = 0
    for chunk in chunks:
        if len(chunk) >= WRITE_BATCH:
            if batch:
                out.write("".join(batch))
                batch, size = [], 0
            out.write(chunk)
            continue
        batch.append(chunk)
        size += len(chunk)
        if size >= WRITE_BATCH:
            out.write("".join(batch))
            batch, size = [], 0
    out.write("".join(batch))


if __name__ == "__main__":
    run()

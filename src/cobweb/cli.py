"""Command-line front end: one machine-readable payload per invocation.

Standard output carries valid JSON (or CSV/DOT where a format flag says so)
and nothing else; diagnostics go to standard error.  Exit codes: 0 success,
1 a verification or tightness check failed, or standard output could not be
written (a closed pipe, a full device), 2 usage or input error.  Output is
deterministic for identical arguments, including the seed.

Every handler returns its exit code and its standard output as an iterable
of text chunks, which ``main`` writes as they come: a large payload is never
held whole.  ``_write`` gathers small chunks into one write batch of about
``WRITE_BATCH`` characters and hands a larger chunk to the stream as it is,
never copied into a batch: a streamed payload holds at once the chunks of
one row (a triangle row's left-half texts, one dense row, one level size)
and one write batch.  A handler refuses before it returns, so
exit code 2 always comes with empty standard output.  A dense export
(``poset zeta|mobius|dot|dim2``) and the enumerate walk of ``poset chains``
are priced by ``poset.check_work``, the one bound of every walk and export,
on running totals of the level sizes as ``poset.level_sizes`` reads them,
and built from the sizes the price read: a refusal reads no term past the
first level over the bound.
A failed write ends the call with one ``error:`` line on standard error,
not a traceback.

A process enters at ``run`` (the ``cobweb`` console script and the
``__main__`` block): it runs ``main``, flushes the standard streams and ends
the process with ``os._exit`` and ``main``'s code.  That skips the
interpreter's teardown (clearing every module, collecting garbage), about
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
usage text.  The handler imports the package modules it runs when dispatched:
a ``fnomial`` call loads ``fseq`` and ``fnomial``, a ``poset`` call ``fseq``
and ``poset``; ``incidence``, ``prefab`` and ``series`` load where used.
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

import json
import os
import sys
from collections.abc import Iterable
from itertools import accumulate, chain, islice, pairwise, starmap, tee
from operator import mul
from types import SimpleNamespace

# Series order for ``series expf`` and ``series enumerator`` without --order.
DEFAULT_ORDER = 16

# Characters gathered into one write of standard output.  An unbuffered
# stream (PYTHONUNBUFFERED) makes every write a system call, so writing
# chunk by chunk would cost one call per line of a DOT or CSV payload.
WRITE_BATCH = 1 << 16

Output = tuple[int, Iterable[str]]


def _json(payload: dict | list) -> tuple[str, str]:
    return json.dumps(payload), "\n"


def _line(chunks: Iterable[str]) -> Iterable[str]:
    """A streamed payload and its closing newline."""
    return chain(chunks, ("\n",))


def integer(text: str) -> int:
    """Argument type of every integer option: the spec grammar ``-?[0-9]+``."""
    from .fseq import parse_int

    return parse_int(text)


def _poset(args: SimpleNamespace, levels: int | None = None):
    from . import fseq, poset

    F = fseq.parse_sequence(args.spec)
    return poset.build_poset(F, args.levels if levels is None else levels)


def _priced_poset(args: SimpleNamespace, price, unit: str):
    """The poset of ``args``, refused by ``poset.check_work`` at the first
    running total past the bound that ``price`` reads off its level sizes.
    Each term is read once, by the price, and the poset is built from the
    sizes it read."""
    from . import fseq, poset

    F = fseq.parse_sequence(args.spec)
    priced, kept = tee(poset.level_sizes(F, args.levels))
    poset.check_work(price(priced), unit)
    return poset.CobwebPoset(F, kept)


def _cmd_seq_check(args: SimpleNamespace) -> Output:
    from . import fseq

    F = fseq.parse_sequence(args.spec)
    payload: dict = {"spec": args.spec, "upto": args.upto}
    failed = False
    for key, scan in (
        ("admissible", fseq.is_cobweb_admissible_prefix),
        ("gcd_morphic", fseq.is_gcd_morphic_prefix),
    ):
        if getattr(args, key) or not (args.admissible or args.gcd_morphic):
            report = scan(F, args.upto)
            body = report.to_json_dict()
            body.pop("spec")
            body.pop("upto")
            payload[key] = body
            failed |= not getattr(report, key)  # the verdict, named like the key
    return (1 if failed else 0), _json(payload)


def _cmd_fnomial(args: SimpleNamespace) -> Output:
    from . import fnomial, fseq

    if args.spec is None or args.n is None or args.k is None:
        args.parser.error("--spec, --n and --k are required")
    value = fnomial.f_nomial(fseq.parse_sequence(args.spec), args.n, args.k)
    return 0, _json({"value": str(value), "integral": value.denominator == 1})


def _cmd_fnomial_triangle(args: SimpleNamespace) -> Output:
    from decimal import Decimal

    from . import fnomial, fseq

    rows = fnomial.triangle_rows(fseq.parse_sequence(args.spec), args.rows, Decimal)
    if args.format == "csv":
        return 0, fnomial.triangle_to_csv(rows)
    return 0, _line(fnomial.triangle_to_json(rows))


def _cmd_poset_build(args: SimpleNamespace) -> Output:
    return 0, _line(_poset(args).to_json())


def _cmd_poset_dot(args: SimpleNamespace) -> Output:
    from . import poset

    P = _priced_poset(args, lambda sizes: accumulate(starmap(mul, pairwise(sizes))), "edges")
    return 0, poset.export_dot(P)


def _cmd_poset_chains(args: SimpleNamespace) -> Output:
    from . import poset

    k, n = args.from_level, args.to_level
    # before any term is read; a negative level count keeps its own refusal
    if args.levels >= 0 and not 0 <= k < n <= args.levels:
        raise ValueError(f"need 0 <= from-level < to-level <= {args.levels}")
    if args.mode == "enumerate":
        P = _priced_poset(args, lambda sizes: accumulate(islice(sizes, k + 1, n + 1), mul),
                          "chains")
    else:
        P = _poset(args)
    count = poset.count_max_chains_between(P, k, n, args.mode)
    payload = {"spec": args.spec, "levels": P.L, "from_level": k, "to_level": n}
    return 0, _json({**payload, "mode": args.mode, "count": str(count)})


def _cmd_poset_pack(args: SimpleNamespace) -> Output:
    from . import poset

    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    P = _poset(args, args.root_level + args.m)
    report = poset.max_disjoint_packing(P, args.root_level, args.m, cap=args.cap)
    return (0 if report.tight else 1), _json(report.to_json_dict())


def _cmd_poset_matrix(args: SimpleNamespace) -> Output:
    from . import incidence

    P = _priced_poset(args, lambda sizes: (N * N for N in accumulate(sizes)), "matrix entries")
    M = (incidence.mobius_matrix if args.subcommand == "mobius" else incidence.zeta_matrix)(P)
    if args.format == "csv":
        return 0, M.to_csv()
    return 0, _line(M.to_json())


def _cmd_poset_dim2(args: SimpleNamespace) -> Output:
    from . import poset

    P = _priced_poset(args, lambda sizes: (2 * N for N in accumulate(sizes)), "labels")
    realizer = poset.dim2_realizer(P)
    # the realizer is correct by construction; tests/oracles.py checks its N^2 pairs
    head = json.dumps({"spec": args.spec, "levels": P.L, "verified": True})
    return 0, _line(chain(
        (head[:-1], ', "l1": '), poset.labels_json(realizer.order_a),
        (', "l2": ',), poset.labels_json(realizer.order_b), ("}",),
    ))


def _cmd_prefab_compose(args: SimpleNamespace) -> Output:
    from . import fnomial, fseq, prefab

    F = fseq.parse_sequence(args.spec)
    a = prefab.Prefabiant.parse(args.a)
    b = prefab.Prefabiant.parse(args.b)
    compose = prefab.odot if args.op == "odot" else prefab.circ
    result = compose(a, b)
    payload: dict = {
        "op": args.op,
        "a": str(a),
        "b": str(b),
        "result": str(result),
        "width": result.width,
    }
    if not result.is_empty:
        coefficient = fnomial.f_nomial(F, result.n, result.k)
        payload["coefficient"] = str(coefficient)
        payload["integral"] = coefficient.denominator == 1
        if args.op == "odot":
            payload["f_size"] = str(prefab.f_size(F, result, "odot"))
    return 0, _json(payload)


def _cmd_prefab_laws(args: SimpleNamespace) -> Output:
    from . import fseq, prefab

    fseq.parse_sequence(args.spec)  # a malformed spec is still refused
    report = prefab.check_algebra_laws(args.samples, args.seed)
    return (0 if report.all_hold else 1), _json(report.to_json_dict())


def _cmd_series(args: SimpleNamespace) -> Output:
    from . import fseq, series

    F = fseq.parse_sequence(args.spec)
    build = series.exp_f_series if args.subcommand == "expf" else series.prefab_enumerator
    return 0, _line(build(F, args.order).to_json())


def _with_oracle(args: SimpleNamespace, payload: dict, key: str, formula, oracle) -> Output:
    """The formula's value under ``key``; with --oracle also the independent
    route's value and the verdict.  The oracle runs first and checks its
    arguments before it reads any term or lists any subspace: first as the
    formula checks them, so a malformed input gets the formula's own
    refusal, then against its size bound, so that it refuses before the
    formula runs.  ``series bell``'s bound is on n alone, so it checks n
    before any term is read."""
    expected = oracle() if args.oracle else None
    payload[key] = str(value := formula())
    if args.oracle:
        payload["oracle"] = str(expected)
        payload["match"] = value == expected
    return (0 if payload.get("match", True) else 1), _json(payload)


def _cmd_series_bell(args: SimpleNamespace) -> Output:
    from . import fseq, series

    F = fseq.parse_sequence(args.spec)
    return _with_oracle(args, {"spec": args.spec, "n": args.n}, "value",
                        lambda: series.bell_f(F, args.n),
                        lambda: series.bell_by_partitions(F, args.n))


def _cmd_series_qbell(args: SimpleNamespace) -> Output:
    from . import series

    return _with_oracle(args, {"q": args.q, "n": args.n}, "formula",
                        lambda: series.q_bell(args.q, args.n),
                        lambda: series.decomposition_oracle(args.q, args.n))


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
# subcommand is required.  Parsers are added in table order.
COMMANDS: dict[tuple[str, str | None], tuple] = {
    ("seq", None): ("sequence checks", None, ()),
    ("seq", "check"): ("admissibility / gcd-morphism scan", _cmd_seq_check, (
        SPEC, ("--upto", REQUIRED_INT), ("--admissible", FLAG), ("--gcd-morphic", FLAG))),
    ("fnomial", None): ("coefficients and triangles", _cmd_fnomial, (
        ("--spec", {}), ("--n", {"type": integer}), ("--k", {"type": integer}))),
    ("fnomial", "triangle"): ("tabulate rows 0..rows-1", _cmd_fnomial_triangle, (
        SPEC, ("--rows", REQUIRED_INT), FORMAT)),
    ("poset", None): ("poset construction and verification", None, ()),
    ("poset", "build"): ("level-size dump", _cmd_poset_build, (SPEC, LEVELS)),
    ("poset", "dot"): ("DOT export of the Hasse digraph", _cmd_poset_dot, (SPEC, LEVELS)),
    ("poset", "chains"): ("saturated-chain counts", _cmd_poset_chains, (
        SPEC, LEVELS, ("--from-level", REQUIRED_INT), ("--to-level", REQUIRED_INT),
        ("--mode", {"choices": ("enumerate", "product", "matrix"), "required": True}))),
    ("poset", "pack"): ("exact max-disjoint packing", _cmd_poset_pack, (
        SPEC, ("--root-level", REQUIRED_INT), ("--m", REQUIRED_INT),
        ("--cap", {"type": integer, "default": 5000}))),
    ("poset", "zeta"): ("incidence matrix", _cmd_poset_matrix, (SPEC, LEVELS, FORMAT)),
    ("poset", "mobius"): ("inverse incidence matrix", _cmd_poset_matrix, (
        SPEC, LEVELS, FORMAT)),
    ("poset", "dim2"): ("two-linear-order realizer", _cmd_poset_dim2, (SPEC, LEVELS)),
    ("prefab", None): ("layer composition algebras", None, ()),
    ("prefab", "compose"): ("compose two elements", _cmd_prefab_compose, (
        ("--op", {"choices": ("odot", "circ"), "required": True}),
        ("--a", {"required": True, "metavar": "i|k,n"}),
        ("--b", {"required": True, "metavar": "i|k,n"}), SPEC)),
    ("prefab", "laws"): ("sampled law check with witnesses", _cmd_prefab_laws, (
        SPEC, ("--samples", REQUIRED_INT), ("--seed", REQUIRED_INT))),
    ("series", None): ("exact generating series", None, ()),
    ("series", "expf"): ("sequence exponential", _cmd_series, (SPEC, ORDER)),
    ("series", "enumerator"): ("exp(exp_F - 1)", _cmd_series, (SPEC, ORDER)),
    ("series", "bell"): ("factorial-scaled enumerator coefficient", _cmd_series_bell, (
        SPEC, ("--n", REQUIRED_INT), ORACLE)),
    ("series", "qbell"): ("vector-space decomposition counts", _cmd_series_qbell, (
        ("--q", REQUIRED_INT), ("--n", REQUIRED_INT), ORACLE)),
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
    ``fast_parse`` declines, and writes all help and usage text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact cobweb-poset computations with verification oracles.",
    )
    subparsers = {None: parser.add_subparsers(dest="command", required=True)}
    for (group, name), (help_text, handler, options) in COMMANDS.items():
        sub = subparsers[group if name else None].add_parser(name or group, help=help_text)
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
        if handler is not None:
            sub.set_defaults(handler=handler, parser=sub)
        if name is None:
            subparsers[group] = sub.add_subparsers(dest="subcommand", required=handler is None)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = fast_parse(argv)
    if args is None:  # help, a usage error, or a spelling only argparse reads
        args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
    # Exact results may have more decimal digits than the interpreter's
    # int/str conversion limit (Python >= 3.10.7); lift it for this command
    # only, so library callers keep their own setting.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            code, chunks = args.handler(args)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            _write(chunks)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe or a full device
            return _write_failed(exc)
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    return code


def _write_failed(exc: OSError) -> int:
    """Exit code 1 and one ``error:`` line for a write to standard output
    that failed."""
    print(f"error: cannot write standard output: {exc}", file=sys.stderr)
    # what is still buffered goes nowhere, so a later flush fails no second time
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


def run() -> None:
    """The process entry: ``main``'s code, then ``os._exit`` at the last flush.

    The interpreter's teardown is safe to skip: the package registers no
    ``atexit`` handler, starts no thread and closes every file it opens, so
    the standard streams are the only state left, and they are flushed
    here.  Only a code that ``main`` returns ends this way; ``SystemExit``
    (help, a usage error), an interrupt and any other exception leave
    through the normal exit."""
    code = main()
    try:
        if sys.stdout is not None:  # None when descriptor 1 was closed at start
            sys.stdout.flush()
    except OSError as exc:
        code = _write_failed(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


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

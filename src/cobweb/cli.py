"""Command-line front end: one machine-readable payload per invocation.

Standard output carries valid JSON (or CSV/DOT where a format flag says so)
and nothing else; diagnostics go to standard error.  Exit codes: 0 success,
1 a verification or tightness check failed, 2 usage or input error.  Output
is deterministic for identical arguments, including the seed.

Each handler imports the package modules it runs when it is dispatched, so
a call loads only what its subcommand needs: a ``fnomial`` call loads
``fseq`` and ``fnomial``, and ``poset``, ``incidence``, ``prefab`` and
``series`` load only for the subcommands that use them.
"""

from __future__ import annotations

import argparse
import json
import sys

# Series order for ``series expf`` and ``series enumerator`` without --order.
DEFAULT_ORDER = 16


def _json(payload: dict | list) -> str:
    return json.dumps(payload)


def integer(text: str) -> int:
    """Argument type of every integer option: the spec grammar ``-?[0-9]+``."""
    from .fseq import parse_int

    return parse_int(text)


def _cmd_seq_check(args: argparse.Namespace) -> tuple[int, str]:
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


def _cmd_fnomial(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[int, str]:
    from . import fnomial, fseq

    if args.spec is None or args.n is None or args.k is None:
        parser.error("--spec, --n and --k are required")
    F = fseq.parse_sequence(args.spec)
    value = fnomial.f_nomial(F, args.n, args.k)
    return 0, _json({"value": str(value), "integral": value.denominator == 1})


def _cmd_fnomial_triangle(args: argparse.Namespace) -> tuple[int, str]:
    from . import fnomial, fseq

    F = fseq.parse_sequence(args.spec)
    triangle = fnomial.f_nomial_triangle(F, args.rows)
    if args.format == "csv":
        return 0, fnomial.triangle_to_csv(triangle).rstrip("\n")
    return 0, fnomial.triangle_to_json(triangle)


def _build(args: argparse.Namespace):
    from . import fseq, poset

    return poset.build_poset(fseq.parse_sequence(args.spec), args.levels)


def _cmd_poset_build(args: argparse.Namespace) -> tuple[int, str]:
    return 0, _json(_build(args).to_json_dict())


def _cmd_poset_dot(args: argparse.Namespace) -> tuple[int, str]:
    from . import poset

    return 0, poset.export_dot(_build(args)).rstrip("\n")


def _cmd_poset_chains(args: argparse.Namespace) -> tuple[int, str]:
    from . import poset

    P = _build(args)
    k, n = args.from_level, args.to_level
    if not 0 <= k < n <= P.L:
        raise ValueError(f"need 0 <= from-level < to-level <= {P.L}")
    count = poset.count_max_chains_between(P, poset.Vertex(1, k), n, args.mode)
    return 0, _json(
        {
            "spec": args.spec,
            "levels": P.L,
            "from_level": k,
            "to_level": n,
            "mode": args.mode,
            "count": str(count),
        }
    )


def _cmd_poset_pack(args: argparse.Namespace) -> tuple[int, str]:
    from . import fseq, poset

    P = poset.build_poset(
        fseq.parse_sequence(args.spec), args.root_level + args.m
    )
    report = poset.max_disjoint_packing(
        P, poset.Vertex(1, args.root_level), args.m, cap=args.cap
    )
    return (0 if report.tight else 1), _json(report.to_json_dict())


def _cmd_poset_matrix(args: argparse.Namespace) -> tuple[int, str]:
    from . import incidence

    M = incidence.zeta_matrix(_build(args))
    if args.subcommand == "mobius":
        M = incidence.mobius_matrix(M)
    if args.format == "csv":
        return 0, M.to_csv().rstrip("\n")
    return 0, M.to_json()


def _cmd_poset_dim2(args: argparse.Namespace) -> tuple[int, str]:
    from . import poset

    P = _build(args)
    realizer = poset.dim2_realizer(P)
    payload = {
        "spec": args.spec,
        "levels": P.L,
        "verified": realizer.verified,
        "l1": [str(v) for v in realizer.order_a],
        "l2": [str(v) for v in realizer.order_b],
    }
    return (0 if realizer.verified else 1), _json(payload)


def _cmd_prefab_compose(args: argparse.Namespace) -> tuple[int, str]:
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


def _cmd_prefab_laws(args: argparse.Namespace) -> tuple[int, str]:
    from . import fseq, prefab

    fseq.parse_sequence(args.spec)  # a malformed spec is still refused
    report = prefab.check_algebra_laws(args.samples, args.seed)
    return (0 if report.all_hold else 1), _json(report.to_json_dict())


def _cmd_series(args: argparse.Namespace) -> tuple[int, str]:
    from . import fseq, series

    F = fseq.parse_sequence(args.spec)
    build = series.exp_f_series if args.subcommand == "expf" else series.prefab_enumerator
    return 0, build(F, args.order).to_json()


def _cmd_series_bell(args: argparse.Namespace) -> tuple[int, str]:
    from . import fnomial, fseq, series

    F = fseq.parse_sequence(args.spec)
    value = series.bell_f(F, args.n)
    payload: dict = {"spec": args.spec, "n": args.n, "value": str(value)}
    code = 0
    if args.oracle:
        oracle = fnomial.f_factorial(F, args.n) * series.enumerator_coeff_by_partitions(
            F, args.n
        )
        payload["oracle"] = str(oracle)
        payload["match"] = value == oracle
        code = 0 if payload["match"] else 1
    return code, _json(payload)


def _cmd_series_qbell(args: argparse.Namespace) -> tuple[int, str]:
    from . import series

    value = series.q_bell(args.q, args.n)
    payload: dict = {"q": args.q, "n": args.n, "formula": str(value)}
    code = 0
    if args.oracle:
        oracle = series.decomposition_oracle(args.q, args.n)
        payload["oracle"] = str(oracle)
        payload["match"] = value == oracle
        code = 0 if payload["match"] else 1
    return code, _json(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact cobweb-poset computations with verification oracles.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    seq = top.add_parser("seq", help="sequence checks")
    seq_sub = seq.add_subparsers(dest="subcommand", required=True)
    check = seq_sub.add_parser("check", help="admissibility / gcd-morphism scan")
    check.add_argument("--spec", required=True)
    check.add_argument("--upto", type=integer, required=True)
    check.add_argument("--admissible", action="store_true")
    check.add_argument("--gcd-morphic", action="store_true")
    check.set_defaults(handler=_cmd_seq_check)

    fn = top.add_parser("fnomial", help="coefficients and triangles")
    fn.add_argument("--spec")
    fn.add_argument("--n", type=integer)
    fn.add_argument("--k", type=integer)
    fn.set_defaults(handler=lambda args: _cmd_fnomial(args, fn))
    fn_sub = fn.add_subparsers(dest="subcommand")
    triangle = fn_sub.add_parser("triangle", help="tabulate rows 0..rows-1")
    triangle.add_argument("--spec", required=True)
    triangle.add_argument("--rows", type=integer, required=True)
    triangle.add_argument("--format", choices=("csv", "json"), default="json")
    triangle.set_defaults(handler=_cmd_fnomial_triangle)

    po = top.add_parser("poset", help="poset construction and verification")
    po_sub = po.add_subparsers(dest="subcommand", required=True)

    build = po_sub.add_parser("build", help="level-size dump")
    dot = po_sub.add_parser("dot", help="DOT export of the Hasse digraph")
    for sub, handler in ((build, _cmd_poset_build), (dot, _cmd_poset_dot)):
        sub.add_argument("--spec", required=True)
        sub.add_argument("--levels", type=integer, required=True)
        sub.set_defaults(handler=handler)

    chains = po_sub.add_parser("chains", help="saturated-chain counts")
    chains.add_argument("--spec", required=True)
    chains.add_argument("--levels", type=integer, required=True)
    chains.add_argument("--from-level", type=integer, required=True)
    chains.add_argument("--to-level", type=integer, required=True)
    chains.add_argument(
        "--mode", choices=("enumerate", "product", "matrix"), required=True
    )
    chains.set_defaults(handler=_cmd_poset_chains)

    pack = po_sub.add_parser("pack", help="exact max-disjoint packing")
    pack.add_argument("--spec", required=True)
    pack.add_argument("--root-level", type=integer, required=True)
    pack.add_argument("--m", type=integer, required=True)
    pack.add_argument("--cap", type=integer, default=5000)
    pack.set_defaults(handler=_cmd_poset_pack)

    zeta = po_sub.add_parser("zeta", help="incidence matrix")
    mobius = po_sub.add_parser("mobius", help="inverse incidence matrix")
    for sub in (zeta, mobius):
        sub.add_argument("--spec", required=True)
        sub.add_argument("--levels", type=integer, required=True)
        sub.add_argument("--format", choices=("csv", "json"), default="json")
        sub.set_defaults(handler=_cmd_poset_matrix)

    dim2 = po_sub.add_parser("dim2", help="two-linear-order realizer")
    dim2.add_argument("--spec", required=True)
    dim2.add_argument("--levels", type=integer, required=True)
    dim2.set_defaults(handler=_cmd_poset_dim2)

    pf = top.add_parser("prefab", help="layer composition algebras")
    pf_sub = pf.add_subparsers(dest="subcommand", required=True)
    compose = pf_sub.add_parser("compose", help="compose two elements")
    compose.add_argument("--op", choices=("odot", "circ"), required=True)
    compose.add_argument("--a", required=True, metavar="i|k,n")
    compose.add_argument("--b", required=True, metavar="i|k,n")
    compose.add_argument("--spec", required=True)
    compose.set_defaults(handler=_cmd_prefab_compose)
    laws = pf_sub.add_parser("laws", help="sampled law check with witnesses")
    laws.add_argument("--spec", required=True)
    laws.add_argument("--samples", type=integer, required=True)
    laws.add_argument("--seed", type=integer, required=True)
    laws.set_defaults(handler=_cmd_prefab_laws)

    se = top.add_parser("series", help="exact generating series")
    se_sub = se.add_subparsers(dest="subcommand", required=True)
    expf = se_sub.add_parser("expf", help="sequence exponential")
    enumerator = se_sub.add_parser("enumerator", help="exp(exp_F - 1)")
    for sub in (expf, enumerator):
        sub.add_argument("--spec", required=True)
        sub.add_argument("--order", type=integer, default=DEFAULT_ORDER)
        sub.set_defaults(handler=_cmd_series)
    bell = se_sub.add_parser("bell", help="factorial-scaled enumerator coefficient")
    bell.add_argument("--spec", required=True)
    bell.add_argument("--n", type=integer, required=True)
    bell.add_argument("--oracle", action="store_true")
    bell.set_defaults(handler=_cmd_series_bell)
    qbell = se_sub.add_parser("qbell", help="vector-space decomposition counts")
    qbell.add_argument("--q", type=integer, required=True)
    qbell.add_argument("--n", type=integer, required=True)
    qbell.add_argument("--oracle", action="store_true")
    qbell.set_defaults(handler=_cmd_series_qbell)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact results may have more decimal digits than the interpreter's
    # int/str conversion limit (Python >= 3.10.7); lift it for this command
    # only, so library callers keep their own setting.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code, payload = args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    print(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())

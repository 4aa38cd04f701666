import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import cli, fnomial, fseq, incidence, poset, prefab
from cobweb.cli import COMMANDS, DEFAULT_ORDER, build_parser, fast_parse, main
from oracles import expand_order, triangle_text


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fnomial_payload(capsys):
    code, out, err = run(capsys, "fnomial", "--spec", "fibonacci", "--n", "5", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"value": "15", "integral": True}
    assert err == ""


def test_fnomial_matches_library(capsys):
    _, out, _ = run(capsys, "fnomial", "--spec", "gauss:2", "--n", "4", "--k", "2")
    value = fnomial.f_nomial(fseq.parse_sequence("gauss:2"), 4, 2)
    assert json.loads(out) == {"value": str(value), "integral": value.denominator == 1}


def test_fnomial_missing_args_usage_error(capsys):
    code, _out, err = run(capsys, "fnomial", "--spec", "fibonacci", "--n", "5")
    assert code == 2
    assert "required" in err


def test_fnomial_triangle_formats(capsys):
    F = fseq.parse_sequence("fibonacci")
    triangle = list(fnomial.triangle_rows(F, 5))
    code, out, _ = run(capsys, "fnomial", "triangle", "--spec", "fibonacci", "--rows", "5")
    assert code == 0
    assert out.strip() == "".join(fnomial.triangle_to_json(triangle))
    code, out, _ = run(
        capsys, "fnomial", "triangle", "--spec", "fibonacci", "--rows", "5",
        "--format", "csv",
    )
    assert code == 0
    assert out == "".join(fnomial.triangle_to_csv(triangle))
    code, _, _ = run(
        capsys, "fnomial", "triangle", "--spec", "fibonacci", "--rows", "5",
        "--format", "dot",
    )
    assert code == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-30, max_value=30).filter(bool), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(["json", "csv"]),
)
def test_triangle_stdout_is_the_joined_text_byte_for_byte(terms, rows, fmt):
    # random custom: specs, negative and non-admissible terms included; a
    # spec that runs out before row rows-1 is refused with nothing written
    spec = "custom:" + ",".join(map(str, terms))
    out = _call(["fnomial", "triangle", "--spec", spec, "--rows", str(rows), "--format", fmt])
    if rows - 1 > len(terms):
        assert out == (2, "")
    else:
        assert out == (0, triangle_text(fseq.parse_sequence(spec), rows, fmt))


def _call(argv):
    """Exit code and standard output of one in-process call."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, sink.getvalue()


@pytest.mark.parametrize("rows", ["10", "-1"])
def test_triangle_refusals_come_before_any_output(capsys, rows):
    code, out, err = run(capsys, "fnomial", "triangle", "--spec", "custom:1,2,3", "--rows", rows)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_triangle_prints_a_fraction_above_the_digit_limit(capsys):
    # (2 over 1) = F_2 / F_1 = (10^5000 + 1) / 3, printed while the command
    # writes its chunks
    big = "1" + "0" * 4999 + "1"
    code, out, _ = run(capsys, "fnomial", "triangle", "--spec", f"custom:3,{big}", "--rows", "3")
    assert code == 0
    assert json.loads(out) == [["1"], ["1", "1"], ["1", big + "/3", "1"]]


class HashingSink:
    """A text stream that keeps only the SHA-256 of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_a_large_triangle_streams_in_bounded_memory(monkeypatch):
    # 13.9 MB of JSON; the whole payload held at once peaks above 13.8 MB
    sink = HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["fnomial", "triangle", "--spec", "fibonacci", "--rows", "200"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5 * 2**20
    assert sink.digest.hexdigest() == (
        "a0f4d2e9465e5dc765c5689d45e81f3649f79a5ae133af4dda2a91d1165080d0"
    )


def test_seq_check_admissible(capsys):
    code, out, _ = run(capsys, "seq", "check", "--spec", "fibonacci", "--upto", "15",
                       "--admissible")
    assert code == 0
    body = json.loads(out)
    assert body["admissible"]["verdict"] == "admissible"
    assert "gcd_morphic" not in body


def test_seq_check_gcd_violation_exits_1(capsys):
    code, out, _ = run(capsys, "seq", "check", "--spec", "bg:2", "--upto", "10",
                       "--gcd-morphic")
    assert code == 1
    body = json.loads(out)
    assert body["gcd_morphic"]["first_violation"] == {"n": 3, "m": 2}


def test_seq_check_defaults_to_both(capsys):
    code, out, _ = run(capsys, "seq", "check", "--spec", "natural", "--upto", "10")
    body = json.loads(out)
    assert code == 0
    assert set(body) == {"spec", "upto", "admissible", "gcd_morphic"}


def test_seq_check_keeps_violations_found_before_a_finite_spec_ends(capsys):
    code, out, _ = run(capsys, "seq", "check", "--spec", "custom:1,2,3,5", "--upto", "10")
    assert code == 1
    body = json.loads(out)
    assert body["admissible"]["first_violation"] == {"n": 4, "k": 2, "value": "15/2"}
    assert body["gcd_morphic"]["first_violation"] == {"n": 4, "m": 2}
    # a spec that runs out before any violation is still an input error
    code, out, err = run(capsys, "seq", "check", "--spec", "custom:1,2,3", "--upto", "10")
    assert code == 2
    assert out == ""
    assert "defines only 3 terms" in err


def test_seq_check_gcd_violation_before_a_finite_spec_ends(capsys):
    code, out, _ = run(capsys, "seq", "check", "--spec", "custom:1,1,2,3,5,8,4", "--upto", "9",
                       "--gcd-morphic")
    assert code == 1
    assert json.loads(out)["gcd_morphic"] == {
        "gcd_morphic": False, "first_violation": {"n": 7, "m": 3}}


def test_seq_check_bound_zero_is_vacuous_and_negative_refused(capsys):
    code, out, _ = run(capsys, "seq", "check", "--spec", "gauss:2", "--upto", "0")
    assert code == 0
    assert json.loads(out) == {"spec": "gauss:2", "upto": 0, "admissible": {"verdict": "admissible"},
                               "gcd_morphic": {"gcd_morphic": True}}
    code, out, err = run(capsys, "seq", "check", "--spec", "gauss:2", "--upto", "-1")
    assert code == 2
    assert out == ""
    assert "bound must be nonnegative, got -1" in err


def test_poset_build_payload(capsys):
    code, out, _ = run(capsys, "poset", "build", "--spec", "fibonacci", "--levels", "5")
    assert code == 0
    assert json.loads(out) == {"spec": "fibonacci", "levels": ["1", "1", "1", "2", "3", "5"]}


def test_poset_dot_matches_library(capsys):
    code, out, _ = run(capsys, "poset", "dot", "--spec", "const:1", "--levels", "1")
    assert code == 0
    expected = "".join(poset.export_dot(
        poset.build_poset(fseq.parse_sequence("const:1"), 1)
    ))
    assert out == expected


def test_poset_chains_modes_agree(capsys):
    counts = {}
    for mode in ("enumerate", "product", "matrix"):
        code, out, _ = run(
            capsys, "poset", "chains", "--spec", "fibonacci", "--levels", "5",
            "--from-level", "2", "--to-level", "5", "--mode", mode,
        )
        assert code == 0
        counts[mode] = json.loads(out)["count"]
    assert len(set(counts.values())) == 1
    assert counts["product"] == "30"


def test_poset_chains_from_root(capsys):
    code, out, _ = run(
        capsys, "poset", "chains", "--spec", "natural", "--levels", "4",
        "--from-level", "0", "--to-level", "4", "--mode", "enumerate",
    )
    assert code == 0
    assert json.loads(out)["count"] == "24"


def test_poset_chains_prints_counts_of_any_size(capsys):
    limit = sys.get_int_max_str_digits()
    expected = fnomial.f_factorial(fseq.parse_sequence("gauss:2"), 200)
    for mode in ("product", "matrix"):
        code, out, _ = run(
            capsys, "poset", "chains", "--spec", "gauss:2", "--levels", "200",
            "--from-level", "0", "--to-level", "200", "--mode", mode,
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit  # lifted for the command only
        count = json.loads(out)["count"]
        assert len(count) > 4300
        sys.set_int_max_str_digits(0)
        try:
            assert int(count) == expected
        finally:
            sys.set_int_max_str_digits(limit)


def test_poset_chains_enumerates_deep_posets(capsys):
    # 3000 levels: a walk that recursed once per level would pass the limit
    counts = {}
    for mode in ("enumerate", "product"):
        code, out, err = run(
            capsys, "poset", "chains", "--spec", "const:1", "--levels", "3000",
            "--from-level", "0", "--to-level", "3000", "--mode", mode,
        )
        assert (code, err) == (0, "")
        counts[mode] = json.loads(out)["count"]
    assert counts == {"enumerate": "1", "product": "1"}


def test_poset_chains_bad_range(capsys):
    code, _, err = run(
        capsys, "poset", "chains", "--spec", "natural", "--levels", "3",
        "--from-level", "2", "--to-level", "2", "--mode", "product",
    )
    assert code == 2
    assert "error" in err


def test_poset_pack_exit_codes(capsys):
    code, out, _ = run(
        capsys, "poset", "pack", "--spec", "natural", "--root-level", "2", "--m", "2",
    )
    assert code == 0
    body = json.loads(out)
    assert body["tight"] is True and body["max_packing"] == "6"
    code, out, _ = run(
        capsys, "poset", "pack", "--spec", "natural", "--root-level", "1", "--m", "2",
    )
    assert code == 1
    body = json.loads(out)
    assert body["max_packing"] == "2" and body["quotient_bound"] == "3"
    code, out, _ = run(
        capsys, "poset", "pack", "--spec", "natural", "--root-level", "5", "--m", "2",
    )
    assert code == 1
    body = json.loads(out)
    assert body["max_packing"] == "18" and body["quotient_bound"] == "21"
    code, _, err = run(
        capsys, "poset", "pack", "--spec", "even", "--root-level", "1", "--m", "2",
        "--cap", "10",
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_poset_pack_refuses_a_cap_below_one(capsys, cap):
    # every instance has at least one copy, so such a cap is malformed input
    code, out, err = run(
        capsys, "poset", "pack", "--spec", "natural", "--root-level", "1", "--m", "2",
        "--cap", cap,
    )
    assert (code, out) == (2, "")
    assert "--cap" in err


def test_poset_pack_refused_by_node_budget(capsys):
    # 1296 copies, under the cap, no F_j = 1 level to factor out
    start = time.perf_counter()
    code, out, err = run(
        capsys, "poset", "pack", "--spec", "custom:2,2,9,9", "--root-level", "2", "--m", "2",
    )
    assert time.perf_counter() - start < 10
    assert code == 2
    assert out == ""
    assert "node budget" in err


def test_poset_zeta_and_mobius(capsys):
    P = poset.build_poset(fseq.parse_sequence("const:1"), 2)
    Z = incidence.zeta_matrix(P)
    code, out, _ = run(capsys, "poset", "zeta", "--spec", "const:1", "--levels", "2",
                       "--format", "csv")
    assert code == 0
    assert out == "".join(Z.to_csv())
    code, out, _ = run(capsys, "poset", "mobius", "--spec", "const:1", "--levels", "2")
    assert code == 0
    assert json.loads(out) == incidence.mobius_matrix(Z).to_json_dict()


def test_poset_dim2(capsys):
    code, out, _ = run(capsys, "poset", "dim2", "--spec", "fibonacci", "--levels", "4")
    assert code == 0
    body = json.loads(out)
    assert body["verified"] is True
    assert body["l1"][0] == "1,0"
    assert len(body["l1"]) == len(body["l2"]) == 8


def _dim2_text(spec, levels):
    """The payload as the command printed it before it streamed: one
    ``json.dumps`` of the whole dict."""
    realizer = poset.dim2_realizer(poset.build_poset(fseq.parse_sequence(spec), levels))
    return json.dumps({
        "spec": spec,
        "levels": levels,
        "verified": realizer.verified,
        "l1": [str(v) for v in expand_order(realizer.order_a)],
        "l2": [str(v) for v in expand_order(realizer.order_b)],
    }) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    st.data(),
    st.text(alphabet='"\\\t é☃/\x7f', max_size=6),
)
def test_dim2_streams_the_json_dumps_text(tmp_path_factory, terms, data, name):
    levels = data.draw(st.integers(min_value=0, max_value=len(terms)))
    spec = "custom:" + ",".join(map(str, terms))
    if name.strip("/"):  # the same levels read from a file whose path needs escaping
        path = tmp_path_factory.mktemp("dim2") / name.replace("/", "_")
        path.write_text(json.dumps(terms), encoding="utf-8")
        spec = f"file:{path}"
    assert _call(["poset", "dim2", "--spec", spec, "--levels", str(levels)]) == (
        0, _dim2_text(spec, levels))


def test_dim2_streams_in_the_memory_of_its_realizer(monkeypatch):
    # N = 200,002 vertices, 2.2 MB of JSON; the realizer is one range per
    # level, so the call holds one block of labels at a time, where two
    # tuples of vertex records would hold 400k records
    tracemalloc.start()
    try:
        monkeypatch.setattr(sys, "stdout", HashingSink())
        code = main(["poset", "dim2", "--spec", "custom:1,200000", "--levels", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20
    assert sys.stdout.digest.hexdigest() == hashlib.sha256(
        _dim2_text("custom:1,200000", 2).encode()).hexdigest()


# Standard output of poset exports, as sha256 of the bytes the package wrote
# while it still built vertex records for them.
EXPORT_DIGESTS = {
    "dot --spec gauss:2 --levels 8":
        "f6f4f5f193ee8bbc91a5b01ba66f8891d5166c2d1ae9c7262131044506c86a05",
    "dot --spec fibonacci --levels 12":
        "432082468117baac63694317b154d7011d4ca85afd0c5d4e17db267cf9df0672",
    "dot --spec custom:3,1,4,1,5 --levels 5":
        "0be9fde4f0a12ade28b0e1d2f65d3ef1b256001d3d2eca4a2c077a768f1707c0",
    "dim2 --spec fibonacci --levels 22":
        "0f34073e3a87841b8035ff314dd42cc6297f0c45b652858ad79f47eff224dcb1",
    "dim2 --spec custom:3,1,4,1,5 --levels 5":
        "f31c57aa3eeeb4b01d0a33a281bdf70991e3c0afb637726dc915d3a127dc8d18",
    "zeta --spec fibonacci --levels 9 --format json":
        "dda8b1c22e0c0c6511f25682e037948f4828bcc4b019bad1121a8faea730e91a",
    "mobius --spec gauss:2 --levels 6 --format json":
        "5f63af7954989459f817e2e602072e4c547b35da547d403549d420b6bc0642a4",
    "mobius --spec gauss:2 --levels 6 --format csv":
        "27541461a662468cc673fc42decb64c4d2341e08ee3178d198b85de3b0955236",
}


def _export_digest(call):
    sink = HashingSink()
    with contextlib.redirect_stdout(sink):
        code = main(["poset", *call.split()])
    return code, sink.digest.hexdigest()


@pytest.mark.parametrize("call", EXPORT_DIGESTS)
def test_export_bytes_are_pinned(call):
    assert _export_digest(call) == (0, EXPORT_DIGESTS[call])


def test_no_export_builds_vertex_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an export built vertex records")

    for name in ("vertices", "level", "hasse_edges"):
        monkeypatch.setattr(poset.CobwebPoset, name, refuse)
    for call in ("dot --spec custom:3,1,4,1,5 --levels 5",
                 "dim2 --spec custom:3,1,4,1,5 --levels 5",
                 "zeta --spec fibonacci --levels 9 --format json",
                 "mobius --spec gauss:2 --levels 6 --format csv"):
        assert _export_digest(call) == (0, EXPORT_DIGESTS[call])


def test_prefab_compose(capsys):
    code, out, _ = run(
        capsys, "prefab", "compose", "--op", "odot", "--a", "0,2", "--b", "0,3",
        "--spec", "fibonacci",
    )
    assert code == 0
    body = json.loads(out)
    assert body["result"] == "2,5"
    assert body["coefficient"] == "15"
    assert body["f_size"] == "30"
    code, out, _ = run(
        capsys, "prefab", "compose", "--op", "circ", "--a", "i", "--b", "4,7",
        "--spec", "natural",
    )
    assert code == 0
    assert json.loads(out)["result"] == "4,7"
    code, _, _ = run(
        capsys, "prefab", "compose", "--op", "odot", "--a", "5,2", "--b", "i",
        "--spec", "natural",
    )
    assert code == 2


def test_prefab_laws_payload_and_determinism(capsys):
    code, out1, _ = run(
        capsys, "prefab", "laws", "--spec", "fibonacci", "--samples", "300",
        "--seed", "42",
    )
    assert code == 0
    body = json.loads(out1)
    assert all(law["holds"] for law in body["laws"])
    assert {w["law"] for w in body["witnesses"]} >= {
        "odot_noncommutativity",
        "odot_nonassociativity",
    }
    _, out2, _ = run(
        capsys, "prefab", "laws", "--spec", "fibonacci", "--samples", "300",
        "--seed", "42",
    )
    assert out1 == out2


def test_prefab_laws_refuses_a_malformed_spec_and_ignores_a_valid_one(capsys):
    code, out, err = run(
        capsys, "prefab", "laws", "--spec", "mult:1_0", "--samples", "10", "--seed", "3",
    )
    assert (code, out) == (2, "")
    assert "error" in err
    # the laws concern layer bounds only, so the sequence does not change them
    payloads = set()
    for spec in ("fibonacci", "gauss:3"):
        code, out, _ = run(
            capsys, "prefab", "laws", "--spec", spec, "--samples", "200", "--seed", "3",
        )
        assert code == 0
        payloads.add(out)
    assert len(payloads) == 1


def test_prefab_laws_exits_1_on_a_broken_law(capsys, monkeypatch):
    # a stand-in circ that keeps the bounds of its left operand
    monkeypatch.setattr(prefab, "circ", lambda a, b: b if a.is_empty else a)
    code, out, _ = run(
        capsys, "prefab", "laws", "--spec", "fibonacci", "--samples", "200", "--seed", "5",
    )
    assert code == 1
    laws = {law["law"]: law for law in json.loads(out)["laws"]}
    assert laws["commutativity_circ"]["violations"] > 0


def test_prefab_compose_reports_why_a_layer_is_out_of_range(capsys):
    code, out, err = run(
        capsys, "prefab", "compose", "--op", "odot", "--a", "5,3", "--b", "i",
        "--spec", "fibonacci",
    )
    assert (code, out) == (2, "")
    assert err == "error: layer needs 0 <= k < n, got (5, 3)\n"


MALFORMED_INTEGERS = [
    pytest.param(["fnomial", "--spec", "natural", "--n", "1_0", "--k", "3"], id="underscore"),
    pytest.param(["fnomial", "--spec", "natural", "--n", "10", "--k", " 3"], id="space"),
    pytest.param(["poset", "build", "--spec", "natural", "--levels", "+3"], id="plus"),
    pytest.param(
        ["poset", "chains", "--spec", "natural", "--levels", "4", "--from-level", "0",
         "--to-level", "\u0664", "--mode", "product"],
        id="arabic-indic-digit",
    ),
    pytest.param(["series", "qbell", "--q", "2", "--n", "3\n"], id="newline"),
    pytest.param(
        ["prefab", "compose", "--op", "odot", "--a", "1_0,2_0", "--b", "0,1",
         "--spec", "natural"],
        id="layer-underscore",
    ),
    pytest.param(
        ["prefab", "compose", "--op", "odot", "--a", "\u0661,\u0663", "--b", "0,1",
         "--spec", "natural"],
        id="layer-arabic-indic-digits",
    ),
]


@pytest.mark.parametrize("argv", MALFORMED_INTEGERS)
def test_integers_have_one_grammar(capsys, argv):
    # options and layer bounds read integers as spec integers do: -?[0-9]+
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "integer" in err or "prefabiant" in err


def test_series_expf_payload(capsys):
    code, out, _ = run(capsys, "series", "expf", "--spec", "fibonacci", "--order", "5")
    assert code == 0
    assert json.loads(out) == ["1", "1", "1", "1/2", "1/6", "1/30"]


def test_series_default_order(capsys):
    code, out, _ = run(capsys, "series", "enumerator", "--spec", "natural")
    assert code == 0
    assert len(json.loads(out)) == DEFAULT_ORDER + 1


def test_series_bell_oracle(capsys):
    code, out, _ = run(capsys, "series", "bell", "--spec", "natural", "--n", "5",
                       "--oracle")
    assert code == 0
    assert json.loads(out) == {
        "spec": "natural", "n": 5, "value": "52", "oracle": "52", "match": True,
    }
    code, out, _ = run(capsys, "series", "bell", "--spec", "fibonacci", "--n", "4")
    assert code == 0
    assert "oracle" not in json.loads(out)


def test_series_qbell(capsys):
    code, out, _ = run(capsys, "series", "qbell", "--q", "2", "--n", "3", "--oracle")
    assert code == 0
    assert json.loads(out) == {
        "q": 2, "n": 3, "formula": "57", "oracle": "57", "match": True,
    }
    code, _, err = run(capsys, "series", "qbell", "--q", "4", "--n", "2")
    assert code == 2
    assert "prime" in err


def test_series_qbell_large_field_sizes(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "series", "qbell", "--q", "1000000000000000003", "--n", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == {"q": 1000000000000000003, "n": 1, "formula": "1"}
    code, out, err = run(capsys, "series", "qbell", "--q", str(2**89 - 1), "--n", "1")
    assert (code, out) == (2, "")
    assert "below 3317044064679887385961981" in err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["series", "qbell", "--q", "5", "--n", "4", "--oracle"], "200 nonzero subspaces"),
        (["series", "qbell", "--q", "13", "--n", "3", "--oracle"], "200 nonzero subspaces"),
        (["series", "bell", "--spec", "natural", "--n", "75", "--oracle"], "40000 partitions"),
        # the formula alone would take seconds here: the bound refuses first
        (["series", "qbell", "--q", "2", "--n", "250", "--oracle"], "200 nonzero subspaces"),
        (["series", "bell", "--spec", "fibonacci", "--n", "300", "--oracle"], "40000 partitions"),
        # 14! and about 1.6e12 chains to walk: priced from the level sizes first
        (["poset", "chains", "--spec", "natural", "--levels", "14", "--from-level", "0",
          "--to-level", "14", "--mode", "enumerate"], "enumeration bound of 10000000 chains"),
        (["poset", "chains", "--spec", "fibonacci", "--levels", "12", "--from-level", "0",
          "--to-level", "12", "--mode", "enumerate"], "enumeration bound of 10000000 chains"),
    ],
)
def test_oracles_refuse_large_inputs_fast(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert bound in err


@pytest.mark.parametrize("argv", [
    ["series", "qbell", "--q", "4", "--n", "0"],
    ["series", "qbell", "--q", "4", "--n", "2"],
    ["series", "bell", "--spec", "natural", "--n", "-1"],
    # past the partition bound, and past the end of the sequence
    ["series", "bell", "--spec", "custom:1,2", "--n", "50"],
])
def test_oracle_calls_refuse_bad_input_as_the_formula_does(capsys, argv):
    refusal = run(capsys, *argv)
    assert refusal[:2] == (2, "")
    assert run(capsys, *argv, "--oracle") == refusal


def test_oracles_answer_the_largest_benchmark_inputs(capsys):
    for argv in (
        ["series", "qbell", "--q", "2", "--n", "4", "--oracle"],
        ["series", "qbell", "--q", "5", "--n", "3", "--oracle"],
        ["series", "bell", "--spec", "natural", "--n", "32", "--oracle"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["match"] is True


# One argv per command row that has a handler.
ROW_ARGV = {
    ("seq", "check"): "seq check --spec fibonacci --upto 10 --gcd-morphic",
    ("fnomial", None): "fnomial --spec fibonacci --n 5 --k 2",
    ("fnomial", "triangle"): "fnomial triangle --spec natural --rows 4 --format csv",
    ("poset", "build"): "poset build --spec natural --levels 3",
    ("poset", "dot"): "poset dot --spec natural --levels 3",
    ("poset", "chains"): "poset chains --spec natural --levels 4 --from-level 1 "
                         "--to-level 3 --mode matrix",
    ("poset", "pack"): "poset pack --spec natural --root-level 1 --m 2 --cap 9",
    ("poset", "zeta"): "poset zeta --spec natural --levels 3",
    ("poset", "mobius"): "poset mobius --spec natural --levels 3 --format csv",
    ("poset", "dim2"): "poset dim2 --spec even --levels 4",
    ("prefab", "compose"): "prefab compose --op circ --a i --b 4,7 --spec natural",
    ("prefab", "laws"): "prefab laws --spec fibonacci --samples 10 --seed 3",
    ("series", "expf"): "series expf --spec fibonacci",
    ("series", "enumerator"): "series enumerator --spec natural --order 5",
    ("series", "bell"): "series bell --spec natural --n 5 --oracle",
    ("series", "qbell"): "series qbell --q 2 --n 3",
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """The parsers one level below ``parser``, by name."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def _argparse_reading(argv: list[str]) -> tuple[dict, list[str]] | None:
    """The full parser's namespace (without ``parser``) and leftover
    arguments for argv, or None where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extras = build_parser().parse_known_args(argv)
        except SystemExit:
            return None
    args = vars(args)
    del args["parser"]
    return args, extras


def test_every_command_row_has_a_sample_argv():
    assert set(ROW_ARGV) == {key for key, row in COMMANDS.items() if row[1] is not None}


@pytest.mark.parametrize("key", list(ROW_ARGV), ids=lambda key: " ".join(filter(None, key)))
def test_a_command_parses_alike_under_its_own_parser_and_the_full_one(key):
    # its own parser is the fast reading of its COMMANDS row
    argv = ROW_ARGV[key].split()
    fast = fast_parse(argv)
    assert fast.handler is COMMANDS[key][1]
    assert _argparse_reading(argv) == (vars(fast), [])


def test_a_call_builds_only_the_command_it_names(capsys, monkeypatch):
    # a well-formed call builds no argparse parser, and prints what it
    # prints when argparse reads it
    with monkeypatch.context() as patch:
        patch.setattr(cli, "fast_parse", lambda argv: None)
        by_argparse = {key: run(capsys, *argv.split()) for key, argv in ROW_ARGV.items()}

    def refuse():
        raise AssertionError("a well-formed call built the argparse parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for key, argv in ROW_ARGV.items():
        assert run(capsys, *argv.split()) == by_argparse[key], argv


# Option values: those the fast parse reads, then malformed ones, which it
# declines or argparse refuses (or, for a negative integer, reads alike).
INTEGER_TEXT = st.integers(0, 40).map(str)
PLAIN_TEXT = st.sampled_from(["natural", "fibonacci", "0,2", "i", "", "a=b"])
BAD_INTEGER_TEXT = st.one_of(
    st.integers(-3, -1).map(str), st.sampled_from(["1_0", "+3", " 3", "x", "", "\u0663"])
)
BAD_PLAIN_TEXT = st.sampled_from(["-x", "--spec", "-1"])
STRAY = st.sampled_from(["-h", "--help", "stray", "--x", "-1", "--", "triangle", "pack"])


@st.composite
def _option_tokens(draw, flag: str, keywords: dict, defect: str | None) -> list[str]:
    """One occurrence of an option: an exact flag with a value of its type
    and choices, or with the one defect named."""
    malformed = defect == "malformed"
    if keywords.get("action") == "store_true":
        return [flag, "yes"] if malformed else [flag]
    if "choices" in keywords:
        value = draw(st.sampled_from(["nope"] if malformed else keywords["choices"]))
    elif "type" in keywords:
        value = draw(BAD_INTEGER_TEXT if malformed else INTEGER_TEXT)
    else:
        value = draw(BAD_PLAIN_TEXT if malformed else PLAIN_TEXT)
    if defect == "abbreviated" and len(flag) > 3:
        flag = flag[:draw(st.integers(3, len(flag) - 1))]
    return [f"{flag}={value}"] if defect == "equals" else [flag, value]


DEFECTS = [None, "abbreviated", "equals", "malformed", "stray"]


@st.composite
def cli_argvs(draw) -> list[str]:
    """An argv for one COMMANDS row: its options in any order, some left out
    or repeated, and at most one defect: one option abbreviated, spelled
    ``--flag=value`` or given a malformed value, or a stray token."""
    group, name = key = draw(st.sampled_from(list(COMMANDS)))
    options = COMMANDS[key][2]
    chosen = [option for option in draw(st.permutations(options)) if draw(st.integers(0, 7))]
    if options:
        chosen += draw(st.lists(st.sampled_from(options), max_size=2))
    defect = draw(st.sampled_from(DEFECTS))
    target = draw(st.integers(0, len(chosen) - 1)) if chosen else None
    argv = [group, *filter(None, [name])]
    for i, (flag, keywords) in enumerate(chosen):
        argv += draw(_option_tokens(flag, keywords, defect if i == target else None))
    if defect == "stray":
        argv.insert(draw(st.integers(0, len(argv))), draw(STRAY))
    return argv


@settings(max_examples=400, deadline=None)
@given(cli_argvs())
def test_the_fast_parse_agrees_with_argparse_or_declines(argv):
    fast = fast_parse(argv)
    if fast is not None:
        assert _argparse_reading(argv) == (vars(fast), [])


def _usage(words: list[str]) -> str:
    """The usage line of the full parser's deepest command that words name."""
    parser = build_parser()
    for word in words:
        parser = _subparsers(parser).get(word, parser)
    return parser.format_usage()


@pytest.mark.parametrize("argv", [[], ["--help"], ["nope"], ["--x", "poset", "pack"]])
def test_top_level_help_matches_the_full_parser(capsys, argv):
    code, out, err = run(capsys, *argv)
    if argv == ["--help"]:
        assert (code, out, err) == (0, build_parser().format_help(), "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith(_usage(argv))


GROUPS = [group for group, name in COMMANDS if name is None]


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("words", [[], ["--help"], ["nope"], ["--x"]])
def test_group_help_matches_the_full_parser(capsys, group, words):
    code, out, err = run(capsys, group, *words)
    if words == ["--help"]:
        assert (code, out, err) == (0, _subparsers(build_parser())[group].format_help(), "")
        return
    assert (code, out) == (2, "")
    if COMMANDS[group, None][1] is not None and words == ["--x"]:
        # a group that answers alone leaves --x over, reported at the top
        assert err.startswith(_usage([]))
    else:
        assert err.startswith(_usage([group]))


def test_unrecognized_arguments_are_reported_with_the_full_usage(capsys):
    code, out, err = run(capsys, "poset", "build", "--spec", "natural", "--levels", "3", "--x")
    assert (code, out) == (2, "")
    assert err.startswith("usage: cobweb [-h] {seq,fnomial,poset,prefab,series} ...\n")
    assert err.endswith("error: unrecognized arguments: --x\n")


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "nope")
    assert code == 2
    assert "usage" in err


def test_bad_spec_is_input_error(capsys):
    code, out, err = run(capsys, "fnomial", "--spec", "wat", "--n", "3", "--k", "1")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_stdout_is_pure_json(capsys):
    _, out, _ = run(capsys, "seq", "check", "--spec", "even", "--upto", "12")
    json.loads(out)  # a single JSON document and nothing else
    assert out.count("\n") == 1


def _child(argv, buffered, **streams):
    """One ``python -m cobweb.cli`` process, its standard output buffered or
    not (the unbuffered one fails at a write, the buffered one at the flush)."""
    env = dict(os.environ)
    src = str(Path(fnomial.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "cobweb.cli", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **streams)


def _assert_one_write_error(child):
    """Exit code 1 and one ``error:`` line on standard error, no traceback."""
    _, err = child.communicate(timeout=60)
    assert child.returncode == 1
    assert err.startswith("error: cannot write standard output: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("buffered", [False, True])
def test_a_closed_pipe_ends_the_call_with_one_error_line(buffered):
    # as in ``cobweb fnomial triangle ... | head -c 100``
    argv = ["fnomial", "triangle", "--spec", "fibonacci", "--rows", "300", "--format", "csv"]
    child = _child(argv, buffered, stdout=subprocess.PIPE)
    child.stdout.read(100)
    child.stdout.close()
    _assert_one_write_error(child)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True])
def test_a_full_device_ends_the_call_with_one_error_line(buffered):
    with open("/dev/full", "w") as full:
        child = _child(["fnomial", "--spec", "fibonacci", "--n", "5", "--k", "2"],
                       buffered, stdout=full)
        _assert_one_write_error(child)

import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import cli, fnomial, fseq, incidence, poset, prefab
from cobweb.cli import COMMANDS, DEFAULT_ORDER, build_parser, fast_parse, main
from oracles import build_poset, dim2_pairwise, expand_order, triangle_text


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


class DiscardingSink:
    """A text stream that drops what is written."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_triangle_row_passes_through_memory_once(monkeypatch, fmt):
    # row 199 is 275 KB of text.  Its exporter joins the left half and its
    # mirror as two chunks, each handed to the stream as it is, so the call
    # holds the left half's texts, one join of them and the row's numbers:
    # under three half rows.  Joining the whole row, prefixing it, batching
    # it and joining the batch held more than six.
    row = list(fnomial.triangle_rows(fseq.parse_sequence("fibonacci"), 200))[-1]
    half = sum(len(str(entry)) for entry in row[:100])
    monkeypatch.setattr(sys, "stdout", DiscardingSink())
    tracemalloc.start()
    try:
        code = main(["fnomial", "triangle", "--spec", "fibonacci", "--rows", "200",
                     "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * half


def test_a_large_chunk_reaches_the_stream_as_it_is(monkeypatch):
    written = []

    class Spy:
        def write(self, text):
            written.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Spy())
    big = "x" * cli.WRITE_BATCH
    bigger = "y" * (cli.WRITE_BATCH + 1)
    almost = "z" * (cli.WRITE_BATCH - 1)
    cli._write(["a", "b", big, bigger, "c", almost, "d", "e"])
    # the pending small chunks go first, each large one as its own write,
    # and small chunks still batch up to WRITE_BATCH characters
    assert written == ["ab", big, bigger, "c" + almost, "de"]
    assert written[1] is big and written[2] is bigger


@pytest.mark.parametrize("argv, sha256", [
    pytest.param(
        "fnomial triangle --spec fibonacci --rows 200 --format csv",
        "dbaecdefbb36b6a764137545d9a4feba7bfe59e12ee7d083ac7514b5fef97725",
        id="triangle-csv-200",
    ),
    # levels of up to 3.4 KB of digits, 3.4 MB in all
    pytest.param(
        "poset build --spec bg:7 --levels 2000",
        "b5ded145c5c14104bfbf4d45eb5a212f2e543a037c5f86f59c0d7196d974898b",
        id="build-bg7-2000",
    ),
])
def test_streamed_payload_digest_at_benchmark_scale(capsys, argv, sha256):
    # payloads streamed a half row or a level at a time keep the text of the
    # whole-payload exporters they replaced; the json triangle is pinned by
    # test_a_large_triangle_streams_in_bounded_memory
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_poset_build_escapes_the_spec_as_json_does(capsys, tmp_path):
    path = tmp_path / 'quote"\\ and \u00e9.json'
    path.write_text("[3, 1, 4]", encoding="utf-8")
    spec = f"file:{path}"
    code, out, _ = run(capsys, "poset", "build", "--spec", spec, "--levels", "3")
    assert code == 0
    assert out == json.dumps({"spec": spec, "levels": ["1", "3", "1", "4"]}) + "\n"


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
        build_poset(fseq.parse_sequence("const:1"), 1)
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


@pytest.mark.parametrize("mode", ["product", "enumerate", "matrix"])
def test_poset_chains_holds_no_level_above_its_count(capsys, mode):
    # the count reads levels 0..5 and the check of the rest holds one level;
    # building levels 0..200000 first peaked at 8.3 MB (10.0 MB to enumerate)
    argv = ["poset", "chains", "--spec", "natural", "--from-level", "0", "--to-level", "5",
            "--mode", mode, "--levels"]
    assert run(capsys, *argv, "5")[0] == 0  # loads the modules the call runs
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "200000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, json.loads(out)["count"], err) == (0, "120", "")
    assert peak < 2**17


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
    # C(8, 2) * C(10, 4) = 5880 copies
    code, out, err = run(
        capsys, "poset", "pack", "--spec", "even", "--root-level", "3", "--m", "2",
    )
    assert (code, out, err) == (2, "", "error: instance has more copies than the cap of 5000\n")


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


def test_a_pack_refusal_holds_only_the_levels_it_checks(capsys):
    # the copy shape reads levels 1..10 and 29991..30000; the 30000 sizes of
    # gauss:3, held whole to refuse, came to about 107 MB
    tracemalloc.start()
    try:
        code = main(["poset", "pack", "--spec", "gauss:3", "--root-level", "29990",
                     "--m", "10"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: instance has more copies than the cap of 5000\n")
    assert peak < 2**20


@pytest.mark.parametrize("argv, reason", [
    ("--spec custom:1,2,3 --root-level 2 --m 2",
     "'custom:1,2,3' defines only 3 terms, index 4 requested"),
    ("--spec custom:1,-2 --root-level 1 --m 1",
     "'custom:1,-2' gives nonpositive level size -2 at level 2"),
    # the height and the range are checked before any term is read
    ("--spec natural --root-level 1 --m -1", "height must be nonnegative, got -1"),
    ("--spec natural --root-level -1 --m 2", "copy levels -1..1 outside 0..1"),
    ("--spec custom:1,5,2,1 --root-level 2 --m 2", "level 4 has 1 vertices, copy needs 5"),
    ("--spec even --root-level 3 --m 2", "instance has more copies than the cap of 5000"),
], ids=["finite", "nonpositive", "height", "range", "need", "copies"])
def test_a_pack_refusal_keeps_its_order_and_message(capsys, argv, reason):
    assert run(capsys, "poset", "pack", *argv.split()) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("argv", [
    "fnomial --spec fibonacci --n 3 --k 5",
    "fnomial triangle --spec fibonacci --rows -1",
    "series expf --spec fibonacci --order -1",
    "series enumerator --spec fibonacci --order -1",
    "series bell --spec fibonacci --n -1",
    "series bell --spec fibonacci --n -1 --oracle",
    "seq check --spec fibonacci --upto -1",
    "poset chains --spec fibonacci --levels 1000 --from-level 5 --to-level 2 --mode product",
    *(f"poset {command} --spec fibonacci --levels -1"
      for command in ("build", "dot", "dim2", "zeta", "mobius")),
    "prefab compose --spec fibonacci --op odot --a 3,1 --b 0,1",
    # the packing read 999 terms before refusing the height
    "poset pack --spec natural --root-level 1000 --m -1",
    "poset pack --spec natural --root-level -5 --m 2",
])
def test_a_malformed_argument_is_refused_before_any_term_is_read(capsys, monkeypatch, argv):
    reads = 0
    term = fseq.FSequence.term

    def counted(self, n):
        nonlocal reads
        reads += 1
        return term(self, n)

    monkeypatch.setattr(fseq.FSequence, "term", counted)
    code, out, err = run(capsys, *argv.split())
    assert (code, out, reads) == (2, "", 0)
    assert err.startswith("error: ")


def test_poset_build_holds_one_level_at_a_time(monkeypatch):
    # the 6000 sizes of gauss:3 alone take about 3.6 MB
    F = fseq.parse_sequence("gauss:3")
    sizes = [str(size) for size in poset.level_sizes(F, 6000)]
    text = json.dumps({"spec": "gauss:3", "levels": sizes}) + "\n"
    sink = HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["poset", "build", "--spec", "gauss:3", "--levels", "6000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20
    assert sink.digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", ["dot", "dim2"])
def test_poset_dot_and_dim2_hold_only_their_level_sizes(capsys, monkeypatch, command):
    # the 200,001 level sizes take 1.6 MB; one range per level, held for the
    # whole write, took the peak to 12.5 MiB (dot) and 23.2 MiB (dim2)
    argv = ["poset", command, "--spec", "const:1", "--levels"]
    assert run(capsys, *argv, "2")[0] == 0  # loads the modules the call runs
    monkeypatch.setattr(sys, "stdout", DiscardingSink())
    tracemalloc.start()
    try:
        code = main(argv + ["200000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


def test_a_label_list_comes_in_blocks_across_narrow_levels():
    # a chunk a level would be 10,003 chunks of about 12 bytes, each a list and a join
    from cobweb._dense import LABEL_BLOCK, _contract_order, _labels_chunks

    sizes = [1] * 10001
    chunks = list(_labels_chunks(_contract_order(sizes)))
    assert len(chunks) <= math.ceil(len(sizes) / LABEL_BLOCK) + 2
    assert "".join(chunks) == json.dumps([f"1,{s}" for s in range(len(sizes))])


@pytest.mark.parametrize("spec, reason", [
    ("custom:1,2,3", "'custom:1,2,3' defines only 3 terms, index 4 requested"),
    ("custom:1,2,-3,4,5", "'custom:1,2,-3,4,5' gives nonpositive level size -3 at level 3"),
])
def test_poset_build_refuses_a_bad_level_before_any_text(capsys, spec, reason):
    # the payload streams, so every level is checked by a first read
    assert run(capsys, "poset", "build", "--spec", spec, "--levels", "5") == (
        2, "", f"error: {reason}\n")


def test_poset_zeta_and_mobius(capsys):
    P = build_poset(fseq.parse_sequence("const:1"), 2)
    Z = incidence.zeta_matrix(P)
    code, out, _ = run(capsys, "poset", "zeta", "--spec", "const:1", "--levels", "2",
                       "--format", "csv")
    assert code == 0
    assert out == "".join(Z.to_csv())
    code, out, _ = run(capsys, "poset", "mobius", "--spec", "const:1", "--levels", "2")
    assert code == 0
    assert json.loads(out) == incidence.mobius_matrix(P).to_json_dict()


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
    order_a, order_b = poset.dim2_realizer(build_poset(fseq.parse_sequence(spec), levels))
    return json.dumps({
        "spec": spec,
        "levels": levels,
        "verified": True,
        "l1": [str(v) for v in expand_order(order_a)],
        "l2": [str(v) for v in expand_order(order_b)],
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5), st.data())
def test_the_printed_dim2_orders_pass_the_pairwise_certificate(terms, data):
    # the certificate checks the orders the command prints, read back into
    # vertex records, not the library's realizer
    levels = data.draw(st.integers(min_value=0, max_value=len(terms)))
    spec = "custom:" + ",".join(map(str, terms))
    code, out = _call(["poset", "dim2", "--spec", spec, "--levels", str(levels)])
    assert code == 0
    body = json.loads(out)
    order_a, order_b = (
        tuple(poset.Vertex(*map(int, label.split(","))) for label in body[key])
        for key in ("l1", "l2")
    )
    assert dim2_pairwise(build_poset(fseq.parse_sequence(spec), levels), order_a, order_b)


def test_dim2_streams_in_the_memory_of_its_realizer(monkeypatch):
    # N = 200,002 vertices, 2.2 MB of JSON; the realizer reads one range per
    # level off the level sizes as the labels are written, so the call holds
    # one block of labels at a time, where two tuples of vertex records
    # would hold 400k records
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


@pytest.mark.parametrize("command, bound", [("zeta", 49), ("mobius", 49), ("dot", 9), ("dim2", 14)])
def test_a_dense_export_is_refused_past_the_bound(capsys, monkeypatch, command, bound):
    # natural levels 0..3 have 1, 1, 2 and 3 vertices: 7^2 = 49 entries,
    # 1 + 2 + 6 = 9 edges, 2 * 7 = 14 labels; levels 0..4 have 11 vertices
    unit = {"dot": "edges", "dim2": "labels"}.get(command, "matrix entries")
    monkeypatch.setattr(poset, "WORK_BOUND", bound)
    code, out, _ = run(capsys, "poset", command, "--spec", "natural", "--levels", "3")
    assert code == 0 and out
    code, out, err = run(capsys, "poset", command, "--spec", "natural", "--levels", "4")
    assert (code, out) == (2, "")
    assert err == f"error: call passes the work bound of {bound} {unit}\n"


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
       st.one_of(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=800)))
def test_each_running_price_refuses_exactly_when_its_whole_total_passes(terms, bound):
    # the totals as once priced whole from the level sizes, against the
    # running prices that stop at the first level past the bound
    sizes = [1, *terms]
    N = sum(sizes)
    spec, levels = "custom:" + ",".join(map(str, terms)), str(len(terms))
    totals = {
        ("zeta", "matrix entries"): N * N,
        ("mobius", "matrix entries"): N * N,
        ("dot", "edges"): sum(a * b for a, b in zip(sizes, sizes[1:])),
        ("dim2", "labels"): 2 * N,
    }
    with mock.patch.object(poset, "WORK_BOUND", bound):
        P = build_poset(fseq.parse_sequence(spec), len(terms))
        if math.prod(sizes) > bound:
            with pytest.raises(ValueError, match=f"work bound of {bound} chains"):
                poset.count_max_chains_between(P.level_sizes, 0, P.L, "enumerate")
        else:
            count = poset.count_max_chains_between(P.level_sizes, 0, P.L, "enumerate")
            assert count == math.prod(sizes)
        for (command, unit), total in totals.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["poset", command, "--spec", spec, "--levels", levels])
            if total > bound:
                refusal = f"error: call passes the work bound of {bound} {unit}\n"
                assert (code, out.getvalue(), err.getvalue()) == (2, "", refusal)
            else:
                assert (code, err.getvalue()) == (0, "") and out.getvalue()


def test_a_dense_matrix_is_priced_from_the_level_count_before_any_level_is_built(
    capsys, monkeypatch
):
    # the running N^2 is read level by level, so the refusal reads the
    # terms up to level 11, the first whose N = 2^12 - 12 passes sqrt(10^7);
    # building the 40000 levels first took about 2.5 s
    reads = 0
    term = fseq.FSequence.term

    def counted(self, n):
        nonlocal reads
        reads += 1
        return term(self, n)

    monkeypatch.setattr(fseq.FSequence, "term", counted)
    start = time.perf_counter()
    code, out, err = run(capsys, "poset", "mobius", "--spec", "gauss:2", "--levels", "40000")
    assert time.perf_counter() - start < 0.5
    assert (code, out, reads) == (2, "", 11)
    assert err == "error: call passes the work bound of 10000000 matrix entries\n"
    # the spec is parsed before the price, and the level count checked after it
    assert run(capsys, "poset", "zeta", "--spec", "custom:1,x", "--levels", "40000") == (
        2, "", "error: malformed integer 'x'\n")
    assert run(capsys, "poset", "zeta", "--spec", "natural", "--levels", "-40000") == (
        2, "", "error: level count must be nonnegative, got -40000\n")


@pytest.mark.parametrize("command, unit, last", [
    # const:1000 has N = 1 + 1000 s through level s: the N^2 matrix entries
    # pass 10^7 at s = 4, the 1000 + 10^6 (s - 1) edges at s = 11 and the
    # 2N labels at s = 5000
    ("mobius", "matrix entries", 4), ("dot", "edges", 11), ("dim2", "labels", 5000),
])
def test_a_price_reads_no_term_past_the_first_level_over_the_bound(
    capsys, monkeypatch, command, unit, last
):
    term = fseq.FSequence.term

    def spy(self, n):
        if n > last:
            raise AssertionError(f"term {n} read past level {last}")
        return term(self, n)

    monkeypatch.setattr(fseq.FSequence, "term", spy)
    assert run(capsys, "poset", command, "--spec", "const:1000", "--levels", "6000") == (
        2, "", f"error: call passes the work bound of 10000000 {unit}\n")


@pytest.mark.parametrize("from_level, last", [(0, 3), (2, 5)])
def test_an_enumerate_refusal_reads_no_term_past_the_first_level_over_the_bound(
    capsys, monkeypatch, from_level, last
):
    # const:1000 has 1000^(s - k) chains from level k through level s, past
    # 10^7 at s = k + 3; building the 6000 levels first read every term
    term = fseq.FSequence.term

    def spy(self, n):
        if n > last:
            raise AssertionError(f"term {n} read past level {last}")
        return term(self, n)

    monkeypatch.setattr(fseq.FSequence, "term", spy)
    argv = ["poset", "chains", "--spec", "const:1000", "--levels", "6000", "--mode", "enumerate",
            "--from-level", str(from_level), "--to-level"]
    assert run(capsys, *argv, "6000") == (
        2, "", "error: call passes the work bound of 10000000 chains\n")
    # the levels are checked against --levels before any term is read
    last = 0
    assert run(capsys, *argv, "6001") == (
        2, "", "error: need 0 <= from-level < to-level <= 6000\n")


def test_dot_and_dim2_refuse_a_long_gauss_spec_fast(capsys):
    # building the 30000 levels first took about 4.3 s a call
    for command in ("dot", "dim2"):
        start = time.perf_counter()
        code, out, _ = run(capsys, "poset", command, "--spec", "gauss:3", "--levels", "30000")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")


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
        (["series", "bell", "--spec", "natural", "--n", "75", "--oracle"],
         "oracle is bounded to n <= 40, got 75"),
        # the formula alone would take seconds here: the bound refuses first
        (["series", "qbell", "--q", "2", "--n", "250", "--oracle"], "200 nonzero subspaces"),
        (["series", "bell", "--spec", "fibonacci", "--n", "300", "--oracle"],
         "oracle is bounded to n <= 40, got 300"),
        # 14! and about 1.6e12 chains to walk: priced from the level sizes first
        (["poset", "chains", "--spec", "natural", "--levels", "14", "--from-level", "0",
          "--to-level", "14", "--mode", "enumerate"], "work bound of 10000000 chains"),
        (["poset", "chains", "--spec", "fibonacci", "--levels", "12", "--from-level", "0",
          "--to-level", "12", "--mode", "enumerate"], "work bound of 10000000 chains"),
        # N = 131,055: about 34 GB of CSV, priced from the level sizes first
        (["poset", "zeta", "--spec", "gauss:2", "--levels", "16", "--format", "csv"],
         "work bound of 10000000 matrix entries"),
        (["poset", "dot", "--spec", "gauss:2", "--levels", "16"], "work bound of 10000000 edges"),
        # N is about 7.7e17 at 30 levels; at 40, level 40 has more vertices than a range can count
        (["poset", "dim2", "--spec", "bg:2", "--levels", "30"], "work bound of 10000000 labels"),
        (["poset", "dim2", "--spec", "bg:2", "--levels", "40"], "work bound of 10000000 labels"),
        # past the end of the sequence too: n is refused before any term is read
        (["series", "bell", "--spec", "custom:1,2", "--n", "50", "--oracle"],
         "oracle is bounded to n <= 40, got 50"),
        # about 70 minutes of draws: refused before the first
        (["prefab", "laws", "--spec", "natural", "--samples", "1000000000", "--seed", "1"],
         "work bound of 10000000 samples"),
    ],
)
def test_oracles_refuse_large_inputs_fast(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert bound in err


def test_bell_oracle_refuses_before_reading_a_term(capsys, monkeypatch):
    reads = 0
    term = fseq.FSequence.term

    def counted(self, n):
        nonlocal reads
        reads += 1
        return term(self, n)

    monkeypatch.setattr(fseq.FSequence, "term", counted)
    argv = ["series", "bell", "--spec", "fibonacci", "--n", "40000", "--oracle"]
    code, out, err = run(capsys, *argv)
    assert (code, out, reads) == (2, "", 0)
    assert "oracle is bounded to n <= 40, got 40000" in err
    # the same patch counts the terms a call does read
    assert run(capsys, *argv[:5], "5", "--oracle")[0] == 0
    assert reads > 0


@pytest.mark.parametrize("argv", [
    ["series", "qbell", "--q", "4", "--n", "0"],
    ["series", "qbell", "--q", "4", "--n", "2"],
    ["series", "bell", "--spec", "natural", "--n", "-1"],
    # within the oracle's bound, past the end of the sequence
    ["series", "bell", "--spec", "custom:1,2", "--n", "5"],
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


# Values the generated calls draw from: ordinary and degenerate specs (a
# unit or zero ratio, zero and negative terms, no terms, a missing file),
# small and negative integers, and prefab layers, well-formed or not.
FUZZ_SPECS = (
    "natural", "fibonacci", "even", "gauss:2", "bg:2", "gauss:1", "bg:1", "const:0",
    "mult:0", "custom:0,1,2", "custom:1,-2,3", "custom:2,2,0,5", "custom:",
)
FUZZ_LAYERS = ("i", "0,2", "2,1", "x", "3,-1")


def _generated_call(rng: random.Random, missing_file: str) -> list[str]:
    """One argv for a random ``COMMANDS`` row with a handler; an option is
    left out with probability 1/20 (1/2 if it is optional), and a choice may
    be one outside the row's."""
    (group, name), (_, _, options) = rng.choice(
        [row for row in COMMANDS.items() if row[1][1] is not None]
    )
    argv = [group] + ([name] if name else [])
    for flag, keywords in options:
        if rng.random() < (0.05 if keywords.get("required") else 0.5):
            continue
        if keywords.get("action") == "store_true":
            argv.append(flag)
        elif "choices" in keywords:
            argv += [flag, rng.choice([*keywords["choices"], "bogus"])]
        elif flag == "--spec":
            argv += [flag, rng.choice([*FUZZ_SPECS, f"file:{missing_file}"])]
        elif keywords.get("type") is cli.integer:
            argv += [flag, str(rng.randint(-3, 12))]
        else:  # the two layers of ``prefab compose``
            argv += [flag, rng.choice(FUZZ_LAYERS)]
    return argv


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_calls_answer_or_refuse_with_empty_output(capsys, tmp_path, seed):
    # the contract, within 5 s a call: exit 0 or 1 with a payload (JSON
    # unless CSV or DOT was asked for), or exit 2 with empty standard output
    rng = random.Random(seed)
    broken = []
    for _ in range(250):
        argv = _generated_call(rng, str(tmp_path / "missing.txt"))
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        seconds = time.perf_counter() - start
        try:
            assert seconds < 5.0
            if (code, out) != (2, ""):
                assert code in (0, 1) and out
                if not (argv[:2] == ["poset", "dot"] or "csv" in argv):
                    json.loads(out)
        except (AssertionError, ValueError):
            broken.append((argv, code, out[:80], seconds))
    assert broken == []


# One argv per command row that has a handler.
ROW_ARGV = {
    ("seq", "check"): "seq check --spec fibonacci --upto 10 --gcd-morphic",
    ("fnomial", None): "fnomial --spec fibonacci --n 5 --k 2",
    ("fnomial", "triangle"): "fnomial triangle --spec natural --rows 4 --format csv",
    ("poset", "build"): "poset build --spec natural --levels 3",
    ("poset", "dot"): "poset dot --spec natural --levels 3",
    ("poset", "chains"): "poset chains --spec natural --levels 4 --from-level 1 "
                         "--to-level 3 --mode matrix",
    ("poset", "pack"): "poset pack --spec natural --root-level 1 --m 2",
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


# One call per command that writes JSON (``poset dot`` writes DOT text), and
# a file: spec whose path holds characters that JSON escapes, with the first
# twenty natural numbers as its terms.
JSON_ROWS = [key for key in ROW_ARGV if key != ("poset", "dot")]
ESCAPED_NAME = 'q"b\\ del\x7f tab\t \u00e9 \U0001d53d.json'


@pytest.mark.parametrize("key, escaped", [
    *(pytest.param(key, False, id=" ".join(filter(None, key))) for key in JSON_ROWS),
    *(pytest.param(key, True, id=" ".join(filter(None, key)) + " escaped spec")
      for key in JSON_ROWS if "--spec" in ROW_ARGV[key]),
])
def test_a_json_payload_is_the_text_json_dumps_gives(capsys, tmp_path, key, escaped):
    # the payload written by fseq._json_text, or streamed with its head, is
    # byte for byte the json.dumps text of the value it reads back to; a
    # spec that needs escapes takes json.dumps itself
    argv = ROW_ARGV[key].replace("--format csv", "--format json").split()
    if escaped:
        path = tmp_path / ESCAPED_NAME
        path.write_text(json.dumps(list(range(1, 21))), encoding="utf-8")
        argv[argv.index("--spec") + 1] = f"file:{path}"
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err
    assert out == json.dumps(json.loads(out)) + "\n"


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


def _child_env(buffered):
    env = dict(os.environ)
    src = str(Path(fnomial.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _child(argv, buffered, **streams):
    """One ``python -m cobweb.cli`` process, its standard output buffered or
    not (the unbuffered one fails at a write, the buffered one at the flush)."""
    streams = {"stderr": subprocess.PIPE, **streams}
    return subprocess.Popen([sys.executable, "-m", "cobweb.cli", *argv], env=_child_env(buffered),
                            text=True, **streams)


@pytest.mark.parametrize("argv", [
    *ROW_ARGV.values(),
    "fnomial triangle --spec fibonacci --rows 120 --format csv",  # 1.8 MB, past a pipe buffer
    "poset zeta --spec gauss:2 --levels 16 --format csv",  # a refusal: exit 2
])
def test_a_process_prints_what_main_prints(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    children = [_child(argv.split(), buffered, stdout=subprocess.PIPE) for buffered in (False, True)]
    for child in children:
        payload = child.stdout.buffer.read()  # the bytes as written, undecoded
        _, child_err = child.communicate(timeout=60)
        assert (child.returncode, payload, child_err) == (code, out.encode(), err)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["poset", "build", "--spec", "natural"], 2),  # --levels is required
])
def test_help_and_usage_errors_keep_the_interpreter_exit(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    child = _child(argv, True, stdout=subprocess.PIPE)
    out, err = child.communicate(timeout=60)
    assert (child.returncode, out, err) == run(capsys, *argv)
    assert child.returncode == code
    assert (out if code == 0 else err).startswith("usage: cobweb")


def test_a_refusal_with_descriptor_1_closed_keeps_its_code():
    # the interpreter then starts with sys.stdout None, which a refusal never writes
    child = _child(["poset", "build", "--spec", "natural", "--levels", "-1"], True,
                   stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (2, "error: level count must be nonnegative, got -1\n")


@pytest.mark.parametrize("buffered", [False, True])
def test_a_payload_with_descriptor_1_closed_ends_with_one_error_line(buffered):
    child = _child(["fnomial", "--spec", "natural", "--n", "3", "--k", "1"], buffered,
                   stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    _assert_one_write_error(child)


@pytest.mark.parametrize("argv", [
    "poset build --spec natural --levels -1",  # a refusal
    "poset build --spec natural",  # a usage error: --levels is required
])
def test_a_diagnostic_with_descriptor_2_closed_stays_off_standard_output(argv):
    # the interpreter then starts with sys.stderr None, where print and
    # argparse's usage text would fall back to standard output
    child = _child(argv.split(), True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                   preexec_fn=lambda: os.close(2))
    out, _ = child.communicate(timeout=60)
    assert (child.returncode, out) == (2, "")


class BrokenStream(io.StringIO):
    """A stream whose every write and flush fails as a closed descriptor does."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")

    def flush(self):
        raise OSError(9, "Bad file descriptor")


def test_a_refusal_with_a_broken_standard_error_returns_its_code(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", BrokenStream())
    assert main(["poset", "build", "--spec", "natural", "--levels", "-1"]) == 2
    assert out.getvalue() == ""


# Runs the module as ``python -m cobweb.cli`` does, under an atexit handler.
TEARDOWN_PROBE = ("import atexit, runpy; atexit.register(print, 'teardown'); "
                  "runpy.run_module('cobweb.cli', run_name='__main__')")


@pytest.mark.parametrize("argv, code, teardown", [
    ("fnomial --spec fibonacci --n 5 --k 2", 0, False),
    ("poset zeta --spec natural --levels -1", 2, False),  # a refusal
    ("--help", 0, True),
    ("poset build --spec natural", 2, True),  # a usage error
])
def test_only_a_returned_code_skips_the_interpreter_teardown(argv, code, teardown):
    child = subprocess.run([sys.executable, "-c", TEARDOWN_PROBE, *argv.split()],
                           env=_child_env(True), capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout.endswith("teardown\n")) == (code, teardown)


def test_the_console_script_runs_what_the_main_block_runs():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    [target] = re.findall(r'^cobweb = "(.*)"$', scripts, re.M)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [block] = [node.body for node in tree.body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    [statement] = block
    assert isinstance(statement.value, ast.Call) and not statement.value.args
    assert target == f"cobweb.cli:{ast.unparse(statement.value.func)}"


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

import json
import sys
import time

import pytest

from cobweb import fnomial, fseq, incidence, poset
from cobweb.cli import DEFAULT_ORDER, main


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
    triangle = fnomial.f_nomial_triangle(F, 5)
    code, out, _ = run(capsys, "fnomial", "triangle", "--spec", "fibonacci", "--rows", "5")
    assert code == 0
    assert out.strip() == fnomial.triangle_to_json(triangle)
    code, out, _ = run(
        capsys, "fnomial", "triangle", "--spec", "fibonacci", "--rows", "5",
        "--format", "csv",
    )
    assert code == 0
    assert out == fnomial.triangle_to_csv(triangle)
    code, _, _ = run(
        capsys, "fnomial", "triangle", "--spec", "fibonacci", "--rows", "5",
        "--format", "dot",
    )
    assert code == 2


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


def test_poset_build_payload(capsys):
    code, out, _ = run(capsys, "poset", "build", "--spec", "fibonacci", "--levels", "5")
    assert code == 0
    assert json.loads(out) == {"spec": "fibonacci", "levels": ["1", "1", "1", "2", "3", "5"]}


def test_poset_dot_matches_library(capsys):
    code, out, _ = run(capsys, "poset", "dot", "--spec", "const:1", "--levels", "1")
    assert code == 0
    expected = poset.export_dot(
        poset.build_poset(fseq.parse_sequence("const:1"), 1)
    )
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
    assert out == Z.to_csv()
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

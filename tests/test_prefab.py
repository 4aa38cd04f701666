import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import _laws, prefab
from cobweb.cli import main
from cobweb.fnomial import f_factorial, f_nomial
from cobweb.fseq import parse_sequence
from cobweb.prefab import (
    EMPTY,
    Prefabiant,
    check_algebra_laws,
    circ,
    f_size,
    odot,
)
from oracles import draw_operand, law_report_by_samples

FIB = parse_sequence("fibonacci")
NAT = parse_sequence("natural")


def layers(max_bound: int = 12) -> st.SearchStrategy[Prefabiant]:
    return st.tuples(
        st.integers(min_value=0, max_value=max_bound),
        st.integers(min_value=1, max_value=max_bound),
    ).map(lambda kw: Prefabiant(kw[0], kw[0] + kw[1]))


def prefabiants() -> st.SearchStrategy[Prefabiant]:
    return st.one_of(st.just(EMPTY), layers())


def test_prefabiant_validation():
    with pytest.raises(ValueError):
        Prefabiant(2, 2)
    with pytest.raises(ValueError):
        Prefabiant(-1, 3)
    with pytest.raises(ValueError):
        Prefabiant(1, None)
    with pytest.raises(ValueError):
        Prefabiant.prime(0)
    assert Prefabiant.prime(4) == Prefabiant(0, 4)
    assert Prefabiant.prime(4).is_prime
    assert not Prefabiant(1, 4).is_prime


def test_parse_and_str_roundtrip():
    assert str(EMPTY) == "i"
    assert Prefabiant.parse("i") is EMPTY
    assert Prefabiant.parse("2,5") == Prefabiant(2, 5)
    assert str(Prefabiant(2, 5)) == "2,5"
    with pytest.raises(ValueError):
        Prefabiant.parse("2;5")
    with pytest.raises(ValueError):
        Prefabiant.parse("5,2")


def test_odot_rules():
    assert odot(Prefabiant.prime(2), Prefabiant.prime(3)) == Prefabiant(2, 5)
    assert odot(Prefabiant.prime(3), Prefabiant.prime(2)) == Prefabiant(3, 5)
    assert odot(EMPTY, Prefabiant(4, 7)) == Prefabiant(4, 7)
    assert odot(Prefabiant(4, 7), EMPTY) == Prefabiant(4, 7)
    assert odot(Prefabiant(1, 4), Prefabiant(2, 5)).width == 3


def test_odot_nonassociativity_example():
    a, b, c = Prefabiant(1, 3), Prefabiant(0, 2), Prefabiant(0, 1)
    assert odot(odot(a, b), c) == Prefabiant(5, 6)
    assert odot(a, odot(b, c)) == Prefabiant(3, 4)


def test_circ_rules():
    assert circ(Prefabiant(1, 3), Prefabiant(2, 5)) == Prefabiant(3, 8)
    assert circ(Prefabiant(2, 5), Prefabiant(1, 3)) == Prefabiant(3, 8)
    assert circ(Prefabiant.prime(2), Prefabiant.prime(3)) == Prefabiant(0, 5)
    assert circ(EMPTY, Prefabiant.prime(4)) == Prefabiant.prime(4)
    assert circ(Prefabiant.prime(4), EMPTY) == Prefabiant.prime(4)


@settings(max_examples=300, deadline=None)
@given(prefabiants(), prefabiants(), prefabiants())
def test_circ_laws_sampled(a, b, c):
    assert circ(a, b) == circ(b, a)
    assert circ(circ(a, b), c) == circ(a, circ(b, c))
    assert circ(EMPTY, a) == a
    assert odot(EMPTY, a) == a and odot(a, EMPTY) == a


def test_circ_commutativity_exhaustive_to_10():
    pool = [EMPTY] + [
        Prefabiant(k, n) for k in range(0, 10) for n in range(k + 1, 11)
    ]
    for a in pool:
        for b in pool:
            assert circ(a, b) == circ(b, a)


def test_circ_associativity_exhaustive_small():
    pool = [EMPTY] + [
        Prefabiant(k, n) for k in range(0, 7) for n in range(k + 1, 8)
    ]
    for a in pool:
        for b in pool:
            for c in pool:
                assert circ(circ(a, b), c) == circ(a, circ(b, c))


@settings(max_examples=200, deadline=None)
@given(layers(), layers())
def test_grading_laws(a, b):
    stacked = odot(a, b)
    assert stacked.k == a.n
    assert stacked.width == b.width
    added = circ(a, b)
    assert (added.k, added.n) == (a.k + b.k, a.n + b.n)


def test_layer_prime_splitting():
    for k in range(1, 12):
        for n in range(k + 1, 13):
            assert odot(Prefabiant.prime(k), Prefabiant.prime(n - k)) == Prefabiant(k, n)


def test_f_size_odot():
    assert f_size(FIB, Prefabiant.prime(5), "odot") == 30
    assert f_size(FIB, EMPTY, "odot") == 1
    p2 = Prefabiant.prime(2)
    nested = odot(odot(p2, p2), p2)
    assert nested == Prefabiant(4, 6)
    assert f_size(FIB, nested, "odot") == f_factorial(FIB, 6)


def test_f_size_circ_variants():
    assert f_size(FIB, Prefabiant(3, 7), "circ") == 1
    assert f_size(FIB, EMPTY, "circ") == 1
    assert f_size(FIB, Prefabiant(3, 7), "circ", alpha=3) == 81
    with pytest.raises(ValueError):
        f_size(FIB, Prefabiant(3, 7), "circ", alpha=0)
    with pytest.raises(ValueError):
        f_size(FIB, EMPTY, "nope")


def test_weight():
    # the monomial weight is the layer width, 0 for the empty element
    assert Prefabiant.prime(6).width == 6
    assert EMPTY.width == 0
    assert Prefabiant(2, 7).width == 5


@pytest.mark.parametrize(
    "spec", ["natural", "even", "fibonacci", "gauss:2", "const:3", "mult:2"]
)
def test_quotient_law_all_prime_pairs(spec):
    F = parse_sequence(spec)
    for k in range(1, 12):
        for m in range(1, 13 - k):
            if k == m:
                continue
            a, b = Prefabiant.prime(k), Prefabiant.prime(m)
            assert f_size(F, odot(a, b), "odot") == (
                f_size(F, a, "odot") * f_size(F, b, "odot") * f_nomial(F, k + m, k)
            )


def test_copies_chain_budget_identity():
    # copies * m_F! = falling product, restated from the quotient definition:
    # the copies of layer (k, n) are its coefficient (n over k)_F
    from cobweb.fnomial import falling_f

    for k in range(0, 8):
        for n in range(k + 1, 9):
            m = n - k
            copies = f_nomial(FIB, n, k)
            assert type(copies) is int
            assert copies * f_factorial(FIB, m) == falling_f(FIB, n, m)


def test_law_report_seed42():
    report = check_algebra_laws(1000, 42)
    assert report.all_hold
    assert {law.law for law in report.laws} == {
        "identity_odot",
        "identity_circ",
        "commutativity_circ",
        "associativity_circ",
        "grading_odot",
        "grading_circ",
        "layer_prime_splitting",
    }
    kinds = {w.law for w in report.witnesses}
    assert "odot_noncommutativity" in kinds
    assert "odot_nonassociativity" in kinds


def test_law_report_is_deterministic():
    first = check_algebra_laws(200, 7)
    second = check_algebra_laws(200, 7)
    assert first == second


def test_law_report_minimal_pool_still_emits_witnesses():
    report = check_algebra_laws(1, 0)
    kinds = {w.law for w in report.witnesses}
    assert {"odot_noncommutativity", "odot_nonassociativity"} <= kinds
    with pytest.raises(ValueError):
        check_algebra_laws(0, 0)


def test_nonassociativity_witnesses_have_the_stacking_shape():
    report = check_algebra_laws(500, 42)
    for witness in report.witnesses:
        if witness.law != "odot_nonassociativity":
            continue
        a, b, c = (Prefabiant.parse(t) for t in witness.operands)
        if a.is_empty or b.is_empty or c.is_empty:
            continue
        assert Prefabiant.parse(witness.lhs) == Prefabiant(
            a.n + b.width, a.n + b.width + c.width
        )
        assert Prefabiant.parse(witness.rhs) == Prefabiant(a.n, a.n + c.width)


NONCOMM, NONASSOC = "odot_noncommutativity", "odot_nonassociativity"
LAW_NAMES = (
    "identity_odot",
    "identity_circ",
    "commutativity_circ",
    "associativity_circ",
    "grading_odot",
    "grading_circ",
    "layer_prime_splitting",
)


def witness(law, operands, lhs, rhs):
    return {"law": law, "operands": operands, "lhs": lhs, "rhs": rhs}


CANONICAL_WITNESSES = [
    witness(NONCOMM, ["0,2", "0,3"], "2,5", "3,5"),
    witness(NONASSOC, ["1,3", "0,2", "0,1"], "5,6", "3,4"),
]


@pytest.mark.parametrize(
    "samples, seed, checked, sampled_witnesses",
    [
        pytest.param(300, 3, (300, 300, 300, 300, 224, 224, 249), [
            witness(NONCOMM, ["8,11", "9,17"], "11,19", "17,20"),
            witness(NONASSOC, ["8,11", "9,17", "1,11"], "19,29", "11,21"),
        ], id="300-3"),
        # the sampled nonassociativity witness is found first
        pytest.param(30, 248, (30, 30, 30, 30, 27, 27, 29), [
            witness(NONASSOC, ["11,19", "11,19", "5,10"], "27,32", "19,24"),
            witness(NONCOMM, ["11,19", "1,8"], "19,26", "8,16"),
        ], id="30-248"),
        # the one sample fails commutativity but associates
        pytest.param(1, 4, (1, 1, 1, 1, 1, 1, 1), [
            witness(NONCOMM, ["1,13", "2,4"], "13,15", "4,16"),
        ], id="1-4"),
    ],
)
def test_law_report_golden_payload(samples, seed, checked, sampled_witnesses):
    assert check_algebra_laws(samples, seed).to_json_dict() == {
        "seed": seed,
        "samples": samples,
        "laws": [
            {"law": law, "checked": count, "violations": 0, "holds": True}
            for law, count in zip(LAW_NAMES, checked)
        ],
        "witnesses": CANONICAL_WITNESSES + sampled_witnesses,
    }


def test_law_report_counts_a_broken_law(monkeypatch):
    # a stand-in circ that keeps the bounds of its left operand
    monkeypatch.setattr(prefab, "circ", lambda a, b: b if a.is_empty else a)
    report = check_algebra_laws(200, 5)
    results = {law.law: law for law in report.laws}
    assert results["commutativity_circ"].violations > 0
    assert not results["commutativity_circ"].holds
    assert not report.all_hold


def test_law_report_json_shape():
    body = check_algebra_laws(10, 1).to_json_dict()
    assert set(body) == {"seed", "samples", "laws", "witnesses"}
    assert all(set(w) == {"law", "operands", "lhs", "rhs"} for w in body["witnesses"])
    assert all(
        set(l) == {"law", "checked", "violations", "holds"} for l in body["laws"]
    )


def circ_keeping_left(a, b):
    """A broken circ: the bounds of its left operand, unless that is empty."""
    return b if a.is_empty else a


def odot_ignoring_identity(a, b):
    """A broken odot: stacks as if an empty operand were the one-level prime."""
    a, b = (Prefabiant.prime(1) if x.is_empty else x for x in (a, b))
    return Prefabiant(a.n, a.n + b.width)


def circ_dropping_right_lower_bound(a, b):
    """A broken circ that is asymmetric on layers: it adds the upper bounds
    but keeps the left lower bound, so grading fails exactly where b.k > 0."""
    if a.is_empty or b.is_empty:
        return b if a.is_empty else a
    return Prefabiant(a.k, a.n + b.n)


COMPOSITIONS = {
    "real": {},
    "circ-keeps-left": {"circ": circ_keeping_left},
    "odot-ignores-identity": {"odot": odot_ignoring_identity},
    # tells the (a, b) pair counts from their transpose, as the others cannot
    "circ-drops-right-lower-bound": {"circ": circ_dropping_right_lower_bound},
}


@pytest.mark.parametrize("variant", COMPOSITIONS)
@settings(max_examples=25, deadline=None)
@given(samples=st.integers(min_value=1, max_value=3000), seed=st.integers())
def test_law_report_equals_the_per_sample_oracle(variant, samples, seed):
    # counts, violations and witnesses alike, also when a composition is broken
    with pytest.MonkeyPatch.context() as patch:
        for name, composition in COMPOSITIONS[variant].items():
            patch.setattr(prefab, name, composition)
        assert check_algebra_laws(samples, seed) == law_report_by_samples(samples, seed)


@pytest.mark.parametrize("variant, broken", [
    pytest.param(variant, broken, id=variant) for variant, broken in (
        ("circ-keeps-left", {"grading_circ"}),
        ("odot-ignores-identity", {"identity_odot"}),
        ("circ-drops-right-lower-bound", {"grading_circ"}),
    )
])
def test_a_broken_composition_fails_its_laws(monkeypatch, variant, broken):
    for name, composition in COMPOSITIONS[variant].items():
        monkeypatch.setattr(prefab, name, composition)
    report = check_algebra_laws(500, 11)
    assert {law.law for law in report.laws if not law.holds} >= broken
    assert report == law_report_by_samples(500, 11)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64), st.integers(1, 3000))
def test_the_bit_draws_give_the_randint_draws(seed, count):
    # the checker's rejection loops over getrandbits pick what randint picks
    fast, reference = random.Random(seed), random.Random(seed)
    indices = [_laws._draw(fast) for _ in range(count)]
    assert indices == [_laws._POOL.index(draw_operand(reference)) for _ in range(count)]


def test_law_check_memory_does_not_grow_with_the_sample_count():
    check_algebra_laws(1, 1)  # the pool and the law table exist before tracing
    tracemalloc.start()
    try:
        check_algebra_laws(200_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("argv, sha256", [
    pytest.param(
        "--spec fibonacci --samples 20000 --seed 8",
        "94ae21ab3ba604e0be86eb4b2ceec926ae35c38ce785233f42b9fc56517afd82",
        id="fibonacci-20000-8",
    ),
    pytest.param(
        "--spec natural --samples 12500 --seed 0",
        "e814cd64f92cae55e8d1b7d60070de5ac4ec118b7cc1fb8addffda18a686293d",
        id="natural-12500-0",
    ),
    pytest.param(
        "--spec natural --samples 5000 --seed 3",
        "a0f8ee3b226a66476220bad24d7f1893a09ae9b9b1372dfbb7714863fe87bd97",
        id="natural-5000-3",
    ),
])
def test_law_payload_digest_at_benchmark_scale(capsys, argv, sha256):
    # catches a drift in the random stream that a few dozen samples would miss
    assert main(["prefab", "laws", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

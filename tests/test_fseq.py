import json
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cobweb._triangle import _exact_context
from cobweb.fseq import (
    FSequence,
    SequenceError,
    exact_quotient,
    is_cobweb_admissible_prefix,
    is_gcd_morphic_prefix,
    parse_sequence,
)
from oracles import gcd_morphic_pairwise


def test_builtin_terms():
    assert parse_sequence("natural").terms(5) == [1, 2, 3, 4, 5]
    assert parse_sequence("even").terms(4) == [2, 4, 6, 8]
    assert parse_sequence("mult:3").terms(4) == [3, 6, 9, 12]
    assert parse_sequence("fibonacci").term(6) == 8
    assert parse_sequence("fibonacci").terms(8) == [1, 1, 2, 3, 5, 8, 13, 21]
    assert parse_sequence("gauss:2").term(4) == 15
    assert parse_sequence("gauss:3").terms(3) == [1, 4, 13]
    assert parse_sequence("bg:2").term(3) == 28
    assert parse_sequence("const:7").terms(3) == [7, 7, 7]
    assert parse_sequence("const:-2").term(5) == -2
    assert parse_sequence("custom:1,3,4").terms(3) == [1, 3, 4]


def test_term_is_deterministic():
    fib = parse_sequence("fibonacci")
    assert [fib.term(20) for _ in range(3)] == [fib.term(20)] * 3


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.lists(st.integers(min_value=0, max_value=300), max_size=30),
    st.integers(min_value=0, max_value=400),
)
def test_power_specs_match_their_closed_forms_in_any_read_order(q, jumps, run):
    # gauss:q and bg:q step a running power of q from one read to the next;
    # an increasing run, a repeated read and an out-of-order read must all
    # give (q^n - 1)/(q - 1) and (q^n - 1) q^(n-1)
    reads = [n for start in jumps for n in (start, start, start + 1)] + list(range(run))
    reads += reversed(range(run // 2, run + 2))
    for spec, closed in (
        (f"gauss:{q}", lambda n: (q**n - 1) // (q - 1)),
        (f"bg:{q}", lambda n: (q**n - 1) * q ** (n - 1) if n else 0),
    ):
        F = parse_sequence(spec)
        assert [F.term(n) for n in reads] == [closed(n) for n in reads]


def test_power_specs_stay_exact_under_concurrent_reads():
    # threads interleave reads of one sequence's running powers; each swap of
    # the (n, q**n) state is one tuple, so a stale state only costs a power
    specs = {"gauss:3": lambda n: (3**n - 1) // 2, "bg:3": lambda n: (3**n - 1) * 3 ** (n - 1)}
    sequences = {spec: parse_sequence(spec) for spec in specs}
    wrong = []
    start = threading.Barrier(6, timeout=30)

    def reader(offset):
        start.wait()
        for spec, closed in specs.items():
            for n in [*range(1 + offset, 400, 3), *range(200, 1, -7 - offset)]:
                if sequences[spec].term(n) != closed(n):
                    wrong.append((spec, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i % 3,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_spec_roundtrip():
    for spec in ["natural", "even", "mult:5", "fibonacci", "gauss:2", "bg:3",
                 "const:-4", "custom:2,-1,7"]:
        F = parse_sequence(spec)
        again = parse_sequence(F.spec)
        assert again.terms(3 if spec.startswith("custom") else 10) == F.terms(
            3 if spec.startswith("custom") else 10
        )


@pytest.mark.parametrize(
    "spec",
    ["", "nope", "mult:", "mult:x", "mult:-2", "gauss:1", "bg:1", "const:",
     "const:0", "custom:", "custom:1,,2", "gauss:", "mult:1_0", "mult: 10",
     "mult:+3", "const:4 ", "gauss:2\n", "custom:1, 2", "bg:\u0663"],
)
def test_malformed_specs_rejected(spec):
    with pytest.raises(SequenceError):
        parse_sequence(spec)


def test_zero_terms_rejected():
    with pytest.raises(SequenceError):
        parse_sequence("mult:0")
    with pytest.raises(SequenceError):
        parse_sequence("custom:1,0,3")


def test_custom_exhausted():
    F = parse_sequence("custom:1,2")
    assert F.term(2) == 2
    with pytest.raises(SequenceError):
        F.term(3)


def test_negative_index_rejected():
    with pytest.raises(SequenceError):
        parse_sequence("natural").term(-1)


def test_file_sequence(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps([2, 6, 7]))
    F = parse_sequence(f"file:{path}")
    assert F.terms(3) == [2, 6, 7]
    with pytest.raises(SequenceError):
        F.term(4)


def test_file_sequence_errors(tmp_path):
    with pytest.raises(SequenceError):
        parse_sequence(f"file:{tmp_path / 'missing.json'}")
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a list"}')
    with pytest.raises(SequenceError):
        parse_sequence(f"file:{bad}")
    zero = tmp_path / "zero.json"
    zero.write_text("[1, 0]")
    with pytest.raises(SequenceError):
        parse_sequence(f"file:{zero}")
    booleans = tmp_path / "booleans.json"
    booleans.write_text("[true, 2, 3]")
    with pytest.raises(SequenceError):
        parse_sequence(f"file:{booleans}")


@pytest.mark.parametrize(
    "spec", ["natural", "even", "mult:4", "fibonacci", "gauss:2", "gauss:3", "const:7"]
)
def test_builtins_admissible_to_30(spec):
    report = is_cobweb_admissible_prefix(parse_sequence(spec), 30)
    assert report.admissible
    assert report.violation is None


def test_admissibility_of_custom_134():
    # Exact scan outcome: every coefficient for n <= 3 is a nonnegative integer.
    report = is_cobweb_admissible_prefix(parse_sequence("custom:1,3,4"), 3)
    assert report.verdict == "admissible"


def test_admissibility_violation_records_first_pair():
    report = is_cobweb_admissible_prefix(parse_sequence("custom:2,3"), 2)
    assert report.verdict == "violation"
    assert report.violation == (2, 1)
    assert report.value == Fraction(3, 2)


def test_admissibility_negative_integer_is_violation():
    report = is_cobweb_admissible_prefix(parse_sequence("custom:1,-2"), 2)
    assert report.verdict == "violation"
    assert report.violation == (2, 1)
    assert report.value == Fraction(-2)


def test_admissibility_violation_before_finite_sequence_ends():
    # the scan stops at the violation, never reaching the missing fifth term
    report = is_cobweb_admissible_prefix(parse_sequence("custom:1,2,3,5"), 10)
    assert report.verdict == "violation"
    assert report.violation == (4, 2)
    assert report.value == Fraction(15, 2)


def test_gcd_morphism_builtins():
    assert is_gcd_morphic_prefix(parse_sequence("fibonacci"), 25).gcd_morphic
    assert is_gcd_morphic_prefix(parse_sequence("natural"), 25).gcd_morphic
    assert is_gcd_morphic_prefix(parse_sequence("even"), 30).gcd_morphic
    assert is_gcd_morphic_prefix(parse_sequence("mult:5"), 30).gcd_morphic
    assert is_gcd_morphic_prefix(parse_sequence("gauss:2"), 25).gcd_morphic


def test_gcd_morphism_failure_for_bg2():
    report = is_gcd_morphic_prefix(parse_sequence("bg:2"), 4)
    assert not report.gcd_morphic
    assert report.violation == (3, 2)


def test_gcd_morphism_rejects_nonpositive_terms():
    with pytest.raises(SequenceError):
        is_gcd_morphic_prefix(parse_sequence("const:-1"), 5)


def test_gcd_morphism_bound_zero_is_vacuous_and_negative_refused():
    report = is_gcd_morphic_prefix(parse_sequence("gauss:2"), 0)
    assert report == ("gauss:2", 0, True, None)
    with pytest.raises(ValueError, match="bound must be nonnegative, got -1"):
        is_gcd_morphic_prefix(parse_sequence("gauss:2"), -1)


def test_gcd_morphism_agrees_with_pairwise_on_every_small_prefix():
    # every prefix with terms in 1..8 and length <= 5: 37,448 of them
    count = morphic = 0
    for length in range(1, 6):
        for values in product(range(1, 9), repeat=length):
            F = parse_sequence("custom:" + ",".join(map(str, values)))
            report = is_gcd_morphic_prefix(F, length)
            assert report == gcd_morphic_pairwise(F, length), values
            count += 1
            morphic += report.gcd_morphic
    assert count == 37448
    assert 0 < morphic < count


@st.composite
def chain_prefixes(draw):
    """A custom: spec whose terms follow per-prime divisibility chains
    r_1 | r_2 | ... (p^t divides F_n iff r_t | n), so gcd-morphic, with 0-2
    terms then scaled or replaced."""
    length = draw(st.integers(min_value=1, max_value=24))
    terms = [1] * length
    for p in draw(st.lists(st.sampled_from([2, 3, 5, 7]), unique=True, max_size=3)):
        r = draw(st.integers(min_value=1, max_value=6))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            for n in range(r, length + 1, r):
                terms[n - 1] *= p
            r *= draw(st.sampled_from([1, 2, 3]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=length - 1))
        if draw(st.booleans()):
            terms[i] *= draw(st.integers(min_value=2, max_value=7))
        else:
            terms[i] = draw(st.integers(min_value=1, max_value=30))
    return "custom:" + ",".join(map(str, terms))


@settings(max_examples=300, deadline=None)
@given(chain_prefixes())
def test_gcd_morphism_agrees_with_pairwise_on_divisibility_chains(spec):
    F = parse_sequence(spec)
    bound = spec.count(",") + 1
    assert is_gcd_morphic_prefix(F, bound) == gcd_morphic_pairwise(F, bound)


def test_gcd_morphism_takes_the_new_part_against_all_of_the_lcm():
    # c_8 = 315 / F_4 = 15 shares 3 with the recent factor F_4 / F_2 = 3 and 5
    # with the folded F_3 = 7 * 5^100 only; gcd(F_8, F_3) = 35 is not F_1
    five_100 = 7888609052210118054117285652827862296732064351090230047702789306640625
    assert five_100 == 5**100
    F = parse_sequence(f"custom:7,7,{7 * five_100},21,7,{7 * five_100},7,315")
    report = is_gcd_morphic_prefix(F, 8)
    assert report.violation == (8, 3)
    assert report == gcd_morphic_pairwise(F, 8)


def recorded(values):
    reads = []

    def term(n):
        reads.append(n)
        return values[n - 1]

    return FSequence("recorded", term), reads


def test_gcd_morphism_reads_no_term_after_the_failing_row():
    F, reads = recorded([1, 1, 2, 3, 5, 8, 4, 1, 1, 1])
    assert is_gcd_morphic_prefix(F, 10).violation == (7, 3)
    assert reads == [1, 2, 3, 4, 5, 6, 7]
    F, reads = recorded([1, 1, 2, 3, 5, 8, 13, 21, 34, 55])
    assert is_gcd_morphic_prefix(F, 10).gcd_morphic
    assert reads == list(range(1, 11))


def test_gcd_morphism_refuses_a_nonpositive_term_at_its_index():
    F, reads = recorded([1, 1, 2, -3, 5])
    with pytest.raises(SequenceError, match="nonpositive term at index 4"):
        is_gcd_morphic_prefix(F, 5)
    assert reads == [1, 2, 3, 4]


def test_report_json_shape():
    report = is_cobweb_admissible_prefix(parse_sequence("custom:2,3"), 2)
    body = report.to_json_dict()
    assert body["verdict"] == "violation"
    assert body["first_violation"] == {"n": 2, "k": 1, "value": "3/2"}


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=5))
def test_mult_and_gauss_admissible(c, q):
    assert is_cobweb_admissible_prefix(parse_sequence(f"mult:{c}"), 12).admissible
    assert is_cobweb_admissible_prefix(parse_sequence(f"gauss:{q}"), 12).admissible


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-10**40, max_value=10**40),
    st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    st.integers(min_value=1, max_value=10**6),
    st.booleans(),
)
def test_exact_quotient_is_of_the_integer_type_exactly_when_integral(a, b, d, multiple):
    if multiple:
        a *= b
    for numerator, number in ((a, int), (Fraction(a, d), int), (Decimal(a), Decimal)):
        value = Fraction(numerator) / b
        with localcontext(_exact_context()):
            result = exact_quotient(numerator, b, number)
        assert Fraction(result) == value
        assert type(result) is (number if value.denominator == 1 else Fraction)

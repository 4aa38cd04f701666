import decimal
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobweb.fnomial import (
    f_factorial,
    f_nomial,
    f_nomial_rows,
    falling_f,
    triangle_rows,
    triangle_to_csv,
    triangle_to_json,
)
from cobweb.fseq import is_cobweb_admissible_prefix, parse_sequence
from oracles import (
    count_complementary_pairs,
    count_subsets,
    count_subspaces,
    f_nomial_from_factorials,
)

FIB = parse_sequence("fibonacci")
NAT = parse_sequence("natural")
SPECS = [
    "natural", "even", "mult:3", "fibonacci", "gauss:2", "const:4",
    # not admissible: a late fraction, an early fraction, negative values
    "custom:1,2,3,5,8,13,21,34,55,89,144,233,377,610,987,1597,2584,4181,6765,10946",
    "custom:2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67,71",
    "custom:1,-1,2,-3,5,-8,13,-21,34,-55,89,-144,233,-377,610,-987,1597,-2584,4181,-6765",
]


def test_factorials():
    assert f_factorial(FIB, 5) == 30
    assert f_factorial(FIB, 0) == 1
    assert f_factorial(NAT, 6) == 720
    with pytest.raises(ValueError):
        f_factorial(NAT, -1)


def test_falling_products():
    assert falling_f(FIB, 4, 2) == 6
    assert falling_f(FIB, 9, 0) == 1
    assert falling_f(NAT, 5, 3) == 60
    with pytest.raises(ValueError):
        falling_f(NAT, 3, 4)


def test_coefficient_values():
    assert f_nomial(FIB, 5, 2) == 15
    assert f_nomial(FIB, 5, 2).denominator == 1
    assert f_nomial(NAT, 4, 2) == 6
    assert f_nomial(parse_sequence("gauss:2"), 4, 2) == 35
    assert f_nomial(NAT, 0, 0) == 1


def test_coefficient_range_errors():
    with pytest.raises(ValueError):
        f_nomial(NAT, 3, 4)
    with pytest.raises(ValueError):
        f_nomial(NAT, 3, -1)


def test_non_integral_coefficient_is_returned_not_raised():
    assert type(f_nomial(FIB, 5, 2)) is int
    value = f_nomial(parse_sequence("custom:2,3"), 2, 1)
    assert isinstance(value, Fraction)
    assert value.denominator != 1
    assert value == Fraction(3, 2)
    assert str(value) == "3/2"


def test_triangle_rows():
    rows = list(triangle_rows(FIB, 5))
    assert rows == [
        [1],
        [1, 1],
        [1, 1, 1],
        [1, 2, 2, 1],
        [1, 3, 6, 3, 1],
    ]
    pascal = list(triangle_rows(NAT, 4))
    assert pascal == [
        [1],
        [1, 1],
        [1, 2, 1],
        [1, 3, 3, 1],
    ]
    flat = list(triangle_rows(parse_sequence("const:3"), 4))
    assert all(v == 1 for row in flat for v in row)
    assert list(triangle_rows(NAT, 0)) == []


def test_triangle_exports():
    rows = list(triangle_rows(FIB, 4))
    assert "".join(triangle_to_csv(rows)) == "1\n1,1\n1,1,1\n1,2,2,1\n"
    assert json.loads("".join(triangle_to_json(rows))) == [
        ["1"],
        ["1", "1"],
        ["1", "1", "1"],
        ["1", "2", "2", "1"],
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SPECS),
    st.integers(min_value=0, max_value=20),
    st.data(),
)
def test_symmetry_and_quotient_identity(spec, n, data):
    F = parse_sequence(spec)
    k = data.draw(st.integers(min_value=0, max_value=n))
    left = f_nomial(F, n, k)
    assert left == f_nomial(F, n, n - k)
    assert left * f_factorial(F, k) == falling_f(F, n, k)
    assert left == f_nomial_from_factorials(F, n, k)
    # the row generator against both point routes, entry by entry
    for m, row in enumerate(triangle_rows(F, n + 1)):
        assert row == [f_nomial(F, m, j) for j in range(m + 1)]
        assert row == [f_nomial_from_factorials(F, m, j) for j in range(m + 1)]
    # the streaming scan against a point-query scan
    first = next(
        ((m, j) for m in range(n + 1) for j in range(m + 1)
         if f_nomial(F, m, j).denominator != 1 or f_nomial(F, m, j) < 0),
        None,
    )
    report = is_cobweb_admissible_prefix(F, n)
    assert report.violation == first
    assert report.value == (None if first is None else f_nomial(F, *first))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-12, max_value=12).filter(bool), min_size=1, max_size=14))
def test_rows_are_ints_exactly_where_integral(terms):
    # random custom: specs, negative and non-admissible terms included
    F = parse_sequence("custom:" + ",".join(map(str, terms)))
    for n, row in zip(range(len(terms) + 1), f_nomial_rows(F)):
        assert len(row) == n + 1
        for k, value in enumerate(row):
            exact = f_nomial(F, n, k)
            assert value == exact == f_nomial_from_factorials(F, n, k)
            assert type(value) is (int if exact.denominator == 1 else Fraction)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-12, max_value=12).filter(bool), min_size=1, max_size=14),
       st.data())
def test_point_queries_are_ints_exactly_where_integral(terms, data):
    # zero-free custom: prefixes, negative and non-admissible terms included
    F = parse_sequence("custom:" + ",".join(map(str, terms)))
    n = data.draw(st.integers(min_value=0, max_value=len(terms)))
    for k in range(n + 1):
        exact = Fraction(falling_f(F, n, k), f_factorial(F, k))
        for value in (f_nomial(F, n, k), f_nomial_from_factorials(F, n, k)):
            assert value == exact
            assert type(value) is (int if exact.denominator == 1 else Fraction)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-12, max_value=12).filter(bool), min_size=1, max_size=14))
def test_decimal_rows_are_exact_under_any_caller_context(terms):
    # the caller's context rounds to 3 digits and traps nothing; the rows
    # must neither use it nor replace it across a yield
    F = parse_sequence("custom:" + ",".join(map(str, terms)))
    caller = decimal.Context(prec=3, traps=[])
    with decimal.localcontext(caller) as active:
        rows = zip(range(len(terms) + 1), f_nomial_rows(F, Decimal), f_nomial_rows(F))
        for n, row, int_row in rows:
            assert decimal.getcontext() is active
            assert row == int_row
            for k, (value, exact) in enumerate(zip(row, int_row)):
                assert type(value) is (Decimal if type(exact) is int else Fraction)
                assert str(value) == str(exact)
        assert not any(active.flags.values())


def test_symmetry_and_quotient_exhaustive_to_30():
    for F in (FIB, parse_sequence("gauss:2")):
        for n in range(31):
            for k in range(n + 1):
                value = f_nomial(F, n, k)
                assert value == f_nomial(F, n, n - k)
                assert value * f_factorial(F, k) == falling_f(F, n, k)


def test_binomial_reduction():
    for n in range(21):
        for k in range(n + 1):
            assert f_nomial(NAT, n, k) == math.comb(n, k)


def test_multiple_cancellation():
    for c in (2, 3, 7):
        F = parse_sequence(f"mult:{c}")
        for n in range(21):
            for k in range(n + 1):
                assert f_nomial(F, n, k) == f_nomial(NAT, n, k)


def test_f_nomials_count_the_sets_they_are_read_as():
    # natural: k-subsets; gauss:q: k-dimensional subspaces of GF(q)^n;
    # bg:q: ordered pairs of complementary subspaces of dimensions k, n - k
    for n in range(9):
        assert [count_subsets(n, k) for k in range(n + 1)] == [
            f_nomial(NAT, n, k) for k in range(n + 1)]
    for q, n in ((2, 3), (2, 4), (3, 3)):
        gauss, bg = parse_sequence(f"gauss:{q}"), parse_sequence(f"bg:{q}")
        for k in range(n + 1):
            assert count_subspaces(q, n, k) == f_nomial(gauss, n, k), (q, n, k)
            assert count_complementary_pairs(q, n, k) == f_nomial(bg, n, k), (q, n, k)
    assert count_complementary_pairs(2, 4, 2) == 560
    # GF(2)^5 has 374 subspaces: refused while they are listed
    with pytest.raises(ValueError, match="bounded to 200 subspaces"):
        count_subspaces(2, 5, 1)

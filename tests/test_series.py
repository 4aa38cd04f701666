import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobweb import _brute, series
from cobweb.fnomial import f_factorial, f_nomial
from cobweb.fseq import exact_quotient, parse_sequence
from cobweb.series import (
    BELL_ORACLE_BOUND,
    PRIMALITY_BOUND,
    SUBSPACE_BOUND,
    FormalSeries,
    _is_prime,
    _scaled_enumerator,
    bell_by_partitions,
    bell_f,
    decomposition_oracle,
    enumerate_subspaces,
    exp_f_series,
    prefab_enumerator,
    q_bell,
)
from oracles import (
    count_invertible_matrices,
    count_set_partitions,
    decompositions_by_rank,
    enumerator_coeff_by_recursive_partitions,
    gl_order,
    is_prime_by_trial_division,
    partitions_recursive,
    scaled_enumerator_by_fractions,
    scaled_power_by_fractions,
    series_add,
    series_exp,
    series_mul,
    series_sub,
)

NAT = parse_sequence("natural")
FIB = parse_sequence("fibonacci")


def F(*values):
    return FormalSeries(tuple(Fraction(v) for v in values))


def test_series_basics():
    assert F(0, 1, 2).coeffs == (Fraction(0), Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        FormalSeries(())


def test_arithmetic_truncates_to_smaller_order():
    a = F(1, 2, 3, 4)
    b = F(1, 1)
    assert series_add(a, b).coeffs == (Fraction(2), Fraction(3))
    assert series_mul(a, b).coeffs == (Fraction(1), Fraction(3))
    assert series_sub(a, 1).coeffs[0] == 0
    assert series_add(a, Fraction(1, 2)).coeffs[0] == Fraction(3, 2)


def test_exp_of_zero_is_one():
    assert series_exp(F(0, 0, 0)).coeffs == (Fraction(1), Fraction(0), Fraction(0))


def test_exp_of_x_gives_reciprocal_factorials():
    s = series_exp(F(*([0, 1] + [0] * 9)))
    assert [c for c in s.coeffs] == [Fraction(1, math.factorial(n)) for n in range(11)]


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(F(1, 1))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=6), min_size=10, max_size=10),
    st.lists(st.fractions(max_denominator=6), min_size=10, max_size=10),
)
def test_exp_turns_addition_into_multiplication(a_tail, b_tail):
    a = F(0, *a_tail)
    b = F(0, *b_tail)
    assert series_exp(series_add(a, b)) == series_mul(series_exp(a), series_exp(b))


@pytest.mark.parametrize(
    "spec",
    ["natural", "even", "mult:3", "fibonacci", "gauss:2", "const:2", "bg:2"],
)
def test_exp_f_coefficients(spec):
    Fs = parse_sequence(spec)
    series = exp_f_series(Fs, 30)
    for n in range(31):
        assert series.coeffs[n] == Fraction(1, f_factorial(Fs, n))


def test_exp_f_examples():
    assert exp_f_series(FIB, 5).coeffs == (
        Fraction(1),
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 30),
    )
    assert exp_f_series(NAT, 8) == series_exp(F(0, 1, *[0] * 7))
    assert all(c == 1 for c in exp_f_series(parse_sequence("const:1"), 4).coeffs)


def test_enumerator_against_partition_sum():
    for spec in ("natural", "even", "fibonacci", "gauss:2", "const:3"):
        Fs = parse_sequence(spec)
        enum = prefab_enumerator(Fs, 10)
        for n in range(11):
            assert enum.coeffs[n] * f_factorial(Fs, n) == bell_by_partitions(Fs, n)


def test_enumerator_examples():
    assert prefab_enumerator(NAT, 0).coeffs == (Fraction(1),)
    assert prefab_enumerator(FIB, 3).coeffs[3] == Fraction(5, 3)
    scaled = [
        prefab_enumerator(NAT, 5).coeffs[n] * math.factorial(n) for n in range(6)
    ]
    assert scaled == [1, 1, 2, 5, 15, 52]


def test_enumerator_coefficients_nonnegative_for_positive_sequences():
    for spec in ("natural", "even", "fibonacci", "gauss:2", "const:2"):
        enum = prefab_enumerator(parse_sequence(spec), 20)
        assert all(c >= 0 for c in enum.coeffs)


def test_bell_reduction_to_set_partitions():
    for n in range(9):
        assert bell_f(NAT, n) == count_set_partitions(n)


def test_bell_examples():
    assert bell_f(NAT, 4) == 15
    assert bell_f(NAT, 5) == 52
    assert bell_f(FIB, 0) == 1
    assert bell_f(parse_sequence("gauss:3"), 0) == 1
    # both routes refuse a negative index with one message
    for route in (bell_f, bell_by_partitions):
        with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
            route(NAT, -1)


def test_gl_order_values_and_oracle():
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 168
    assert gl_order(5, 0) == 1
    for q in (2, 3):
        bg = parse_sequence(f"bg:{q}")
        for n in range(4):
            assert f_factorial(bg, n) == gl_order(q, n) == count_invertible_matrices(q, n)
    with pytest.raises(ValueError):
        gl_order(1, 2)


def test_bg_factorials_agree_with_gl_orders():
    for q in (2, 3):
        bg = parse_sequence(f"bg:{q}")
        for n in range(7):
            assert f_factorial(bg, n) == gl_order(q, n)


def test_q_bell_values_and_oracle():
    expected = {(2, 1): 1, (2, 2): 4, (2, 3): 57, (3, 1): 1, (3, 2): 7}
    for (q, n), value in expected.items():
        assert q_bell(q, n) == value
        assert decomposition_oracle(q, n) == value
    # the bg:q factorials are the linear-group orders
    for q in (2, 3, 5):
        bg = parse_sequence(f"bg:{q}")
        for n in range(1, 12):
            assert q_bell(q, n) == bell_f(bg, n)


def test_primality_agrees_with_trial_division_below_10_5():
    assert all(_is_prime(q) == is_prime_by_trial_division(q) for q in range(-2, 10**5))


def test_field_size_primality_is_decided_fast_or_refused():
    # 10**18 + 3 is prime; 10**18 + 1 = 101 * 9901 * 999999000001
    start = time.perf_counter()
    assert q_bell(10**18 + 3, 1) == 1
    with pytest.raises(ValueError, match="must be prime"):
        q_bell(10**18 + 1, 1)
    assert time.perf_counter() - start < 1.0
    # the least strong pseudoprime to the bases 2..37; base 41 exposes it
    assert not _is_prime(318665857834031151167461)
    # the bound is the least strong pseudoprime to all 13 bases
    assert _is_prime(PRIMALITY_BOUND)
    for q in (PRIMALITY_BOUND, 2**89 - 1):  # the latter a Mersenne prime
        with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
            q_bell(q, 1)


def test_q_bell_dimension_four_cross_check():
    # both routes at the oracle's guard boundary
    assert q_bell(2, 4) == decomposition_oracle(2, 4) == 2921


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9).filter(bool), min_size=1, max_size=12))
def test_enumerator_recurrence_matches_series_exp(terms):
    # random custom: specs, negative and non-admissible terms included
    Fs = parse_sequence("custom:" + ",".join(map(str, terms)))
    n = len(terms)
    enum = prefab_enumerator(Fs, n)
    assert enum == series_exp(series_sub(exp_f_series(Fs, n), 1))
    for m in range(n + 1):
        value = bell_f(Fs, m)
        exact = f_factorial(Fs, m) * enum.coeffs[m]
        assert value == exact
        assert type(value) is (int if exact.denominator == 1 else Fraction)
        partitioned = bell_by_partitions(Fs, m)
        assert partitioned == exact
        assert type(partitioned) is type(value)


def typed(values):
    return [(type(v), v) for v in values]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9).filter(bool), min_size=1, max_size=10))
def test_scaled_recurrences_match_the_per_term_fraction_route(terms):
    # zero-free custom: prefixes, negative and non-admissible terms included:
    # same values and same types (int where integral) entry by entry
    Fs = parse_sequence("custom:" + ",".join(map(str, terms)))
    n = len(terms)
    expected = scaled_enumerator_by_fractions(Fs, n)
    assert typed(_scaled_enumerator(Fs, n)) == typed(expected)
    assert typed([bell_f(Fs, n)]) == typed(expected[n:])


def test_scaled_recurrences_over_fractional_rows():
    # negative terms with integral values, then rows with Fraction entries and
    # B values whose common denominator grows (7/4, 33/8, 2369/192, ...)
    for spec, fractional in (("custom:1,-2,3,-4,5,6,7", False), ("custom:2,3,5,7,11", True),
                             ("custom:2,-3,4", True)):
        Fs = parse_sequence(spec)
        n = len(spec.split(","))
        expected = scaled_enumerator_by_fractions(Fs, n)
        assert (Fraction in {type(v) for v in expected}) is fractional
        assert typed(_scaled_enumerator(Fs, n)) == typed(expected)
    # fibonacci and gauss:2 B values are fractional from B_3 on
    for spec in ("fibonacci", "gauss:2"):
        Fs = parse_sequence(spec)
        assert typed(_scaled_enumerator(Fs, 24)) == typed(scaled_enumerator_by_fractions(Fs, 24))


def test_k_summand_counts_match_series_powers_and_sum_to_q_bell():
    for q in (2, 3, 5):
        bg = parse_sequence(f"bg:{q}")
        for n in range(1, 11):
            counts = [scaled_power_by_fractions(bg, n, k) for k in range(1, n + 1)]
            assert sum(counts) == q_bell(q, n)
            if n > 6:
                continue
            # the k-fold series product route: F_n! [x^n] (E - 1)^k / k!
            primes = series_sub(exp_f_series(bg, n), 1)
            power = F(*([1] + [0] * n))
            for k, count in enumerate(counts, 1):
                power = series_mul(power, primes)
                assert count == f_factorial(bg, n) * power.coeffs[n] / math.factorial(k)


def test_q_bell_rejects_bad_input():
    with pytest.raises(ValueError):
        q_bell(4, 2)  # composite
    with pytest.raises(ValueError):
        q_bell(9, 2)  # prime power, not prime
    with pytest.raises(ValueError):
        q_bell(2, 0)


def test_decomposition_oracle_guard():
    with pytest.raises(ValueError):
        decomposition_oracle(2, 5)
    with pytest.raises(ValueError):
        decomposition_oracle(6, 2)
    assert decomposition_oracle(2, 1) == 1


def test_decomposition_oracle_refuses_past_the_subspace_bound():
    # the bound is on the nonzero subspaces, counted here by enumerating them
    for q, n in ((3, 4), (11, 3), (13, 3), (5, 4), (199, 2), (2, 5)):
        assert len(enumerate_subspaces(q, n)) - 1 > SUBSPACE_BOUND
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{SUBSPACE_BOUND} nonzero subspaces"):
            decomposition_oracle(q, n)
        assert time.perf_counter() - start < 1.0
    for q, n in ((5, 3), (197, 2)):
        assert len(enumerate_subspaces(q, n)) - 1 <= SUBSPACE_BOUND
        assert decomposition_oracle(q, n) == q_bell(q, n)


def test_partition_oracle_refuses_past_the_partition_bound():
    # p(40) = 37,338 partitions <= 40,000 < p(41) = 44,583: the bound is on n
    assert BELL_ORACLE_BOUND == 40
    start = time.perf_counter()
    for n in (41, 75, 10**6):
        with pytest.raises(ValueError, match=f"oracle is bounded to n <= 40, got {n}$"):
            bell_by_partitions(NAT, n)
    # n is refused before any term is read, so past the end of a sequence too
    with pytest.raises(ValueError, match="oracle is bounded to n <= 40, got 50$"):
        bell_by_partitions(parse_sequence("custom:1,2"), 50)
    assert time.perf_counter() - start < 1.0
    assert bell_by_partitions(NAT, 40) == bell_f(NAT, 40)


def test_partition_oracle_work_is_polynomial_in_n(monkeypatch):
    # one exact division per part size, multiplicity and entry (1,492 at
    # n = 30, 2,841 at n = 40), not one per partition
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return exact_quotient(a, b)

    # the partition sum lives in the oracle routes' module
    monkeypatch.setattr(_brute, "exact_quotient", counted)
    for n in (30, 40):
        calls = 0
        value = bell_by_partitions(NAT, n)
        assert 0 < calls < sum(1 for _ in partitions_recursive(n))
        assert value == bell_f(NAT, n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6).filter(bool), min_size=1, max_size=9),
       st.data())
def test_part_by_part_sum_matches_the_recursive_partition_sum(terms, data):
    # custom: prefixes with ones, repeats and negative terms: the same value
    # and type (an int exactly where B_n is integral) as the literal sum over
    # partitions and as bell_f
    Fs = parse_sequence("custom:" + ",".join(map(str, terms)))
    n = data.draw(st.integers(min_value=0, max_value=len(terms)))
    expected = f_factorial(Fs, n) * enumerator_coeff_by_recursive_partitions(Fs, n)
    value, formula = bell_by_partitions(Fs, n), bell_f(Fs, n)
    assert value == expected == formula
    assert type(value) is type(formula) is (int if expected.denominator == 1 else Fraction)


@pytest.mark.parametrize("spec", ["natural", "fibonacci", "gauss:2", "bg:3"])
def test_partition_sum_matches_the_recursive_route(spec):
    # B_n by partitions equals the recursive partition sum, and bell_f in
    # value and in type: an int exactly where B_n is integral
    Fs = parse_sequence(spec)
    for n in range(26):
        expected = f_factorial(Fs, n) * enumerator_coeff_by_recursive_partitions(Fs, n)
        value, formula = bell_by_partitions(Fs, n), bell_f(Fs, n)
        assert value == expected == formula
        assert type(value) is type(formula)


def test_decomposition_oracle_matches_the_rank_from_scratch_walk():
    cases = [(197, 2)]
    for q in (2, 3, 5, 7):
        n = 1
        while len(enumerate_subspaces(q, n)) - 1 <= SUBSPACE_BOUND:
            cases.append((q, n))
            n += 1
    assert {(2, 4), (3, 3), (5, 3), (7, 3)} <= set(cases)
    for q, n in cases:
        assert decomposition_oracle(q, n) == decompositions_by_rank(q, n), (q, n)


def test_subspace_counts_match_gaussian_binomials():
    for q in (2, 3):
        gauss = parse_sequence(f"gauss:{q}")
        for n in range(4):
            spaces = enumerate_subspaces(q, n)
            by_dim: dict[int, int] = {}
            for s in spaces:
                by_dim[len(s)] = by_dim.get(len(s), 0) + 1
            for d in range(n + 1):
                assert by_dim.get(d, 0) == f_nomial(gauss, n, d)
            assert len(spaces) == len(set(spaces))


def test_matrix_enumeration_guard():
    with pytest.raises(ValueError):
        count_invertible_matrices(2, 4)


def test_series_json():
    assert json.loads("".join(exp_f_series(FIB, 3).to_json())) == ["1", "1", "1", "1/2"]
    # byte-identical to json.dumps of the coefficient strings
    for s in (prefab_enumerator(FIB, 12), F(0, -3, Fraction(-5, 7)), F(1)):
        assert "".join(s.to_json()) == json.dumps([str(c) for c in s.coeffs])

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cobweb.fnomial import f_factorial, f_nomial, falling_f
from cobweb.fseq import parse_sequence
from cobweb.poset import (
    PackingCapError,
    Vertex,
    build_poset,
    count_max_chains_between,
    dim2_realizer,
    export_dot,
    max_disjoint_packing,
)
from oracles import (
    brute_max_packing,
    enumerate_copies,
    hasse_is_acyclic,
    hasse_topological_order,
)

NAT = parse_sequence("natural")
FIB = parse_sequence("fibonacci")
EVEN = parse_sequence("even")
BUILTINS = [NAT, EVEN, FIB, parse_sequence("gauss:2"), parse_sequence("const:2")]


def test_build_sizes_and_counts():
    P = build_poset(FIB, 5)
    assert P.level_sizes == (1, 1, 1, 2, 3, 5)
    assert P.vertex_count == 13
    Q = build_poset(NAT, 3)
    assert Q.level_sizes == (1, 1, 2, 3)
    assert Q.vertex_count == 7
    chain = build_poset(parse_sequence("const:1"), 4)
    assert chain.vertex_count == 5
    assert all(size == 1 for size in chain.level_sizes)


def test_build_rejects_nonpositive_level():
    with pytest.raises(ValueError):
        build_poset(parse_sequence("const:-2"), 3)
    with pytest.raises(ValueError):
        build_poset(NAT, -1)


def test_vertex_membership_and_order():
    P = build_poset(NAT, 2)
    assert [str(v) for v in P.vertices()] == ["1,0", "1,1", "1,2", "2,2"]
    assert P.contains(Vertex(2, 2))
    assert not P.contains(Vertex(3, 2))
    assert not P.contains(Vertex(1, 3))
    with pytest.raises(ValueError):
        P.check_vertex(Vertex(0, 1))


def test_comparability_is_level_based():
    P = build_poset(NAT, 3)
    assert P.leq(Vertex(1, 1), Vertex(3, 3))
    assert P.leq(Vertex(2, 2), Vertex(2, 2))
    assert not P.leq(Vertex(1, 2), Vertex(2, 2))
    assert not P.leq(Vertex(1, 2), Vertex(1, 1))


@pytest.mark.parametrize("F", BUILTINS, ids=lambda F: F.spec)
def test_root_chain_counts_match_factorial(F):
    P = build_poset(F, 6)
    for n in range(7):
        enumerated = count_max_chains_between(P, Vertex(1, 0), n, "enumerate")
        assert enumerated == count_max_chains_between(P, Vertex(1, 0), n, "product")
        assert enumerated == f_factorial(F, n)


def test_root_chain_count_examples():
    assert count_max_chains_between(build_poset(FIB, 4), Vertex(1, 0), 4, "enumerate") == 6
    assert count_max_chains_between(build_poset(NAT, 4), Vertex(1, 0), 4, "enumerate") == 24
    assert count_max_chains_between(build_poset(NAT, 4), Vertex(1, 0), 0, "enumerate") == 1


def test_between_chain_counts():
    P = build_poset(FIB, 4)
    assert count_max_chains_between(P, Vertex(1, 2), 4, "enumerate") == 6
    assert count_max_chains_between(P, Vertex(1, 2), 4, "product") == 6
    Q = build_poset(NAT, 3)
    assert count_max_chains_between(Q, Vertex(1, 1), 3, "enumerate") == 6
    # one step up: the size of the next level
    assert count_max_chains_between(Q, Vertex(1, 2), 3) == 3


@pytest.mark.parametrize("F", BUILTINS, ids=lambda F: F.spec)
def test_between_counts_independent_of_vertex_choice(F):
    P = build_poset(F, 5)
    for k in range(1, 5):
        for n in range(k + 1, 6):
            counts = {
                count_max_chains_between(P, v, n, "enumerate") for v in P.level(k)
            }
            assert counts == {falling_f(F, n, n - k)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
def test_chain_modes_agree_on_random_level_sizes(sizes):
    P = build_poset(parse_sequence("custom:" + ",".join(map(str, sizes))), len(sizes))
    for k in range(P.L + 1):
        v = Vertex(P.level_size(k), k)
        for n in range(k, P.L + 1):
            counts = {
                mode: count_max_chains_between(P, v, n, mode)
                for mode in ("product", "enumerate", "matrix")
            }
            assert set(counts.values()) == {math.prod(sizes[k:n])}  # 1 at n = k


def test_between_range_errors():
    P = build_poset(NAT, 3)
    assert count_max_chains_between(P, Vertex(1, 2), 2) == 1
    with pytest.raises(ValueError):
        count_max_chains_between(P, Vertex(1, 2), 1)
    with pytest.raises(ValueError):
        count_max_chains_between(P, Vertex(1, 2), 4)
    with pytest.raises(ValueError):
        count_max_chains_between(P, Vertex(1, 0), 4)
    with pytest.raises(ValueError):
        count_max_chains_between(P, Vertex(1, 0), 2, "nope")


def test_enumerate_copies_counts():
    P = build_poset(FIB, 4)
    copies = enumerate_copies(P, Vertex(1, 2), 2)
    assert len(copies) == 6  # C(2,1) * C(3,1)
    Q = build_poset(NAT, 3)
    assert len(enumerate_copies(Q, Vertex(1, 1), 2)) == 6  # C(2,1) * C(3,2)
    assert len(enumerate_copies(Q, Vertex(1, 1), 0)) == 1


@pytest.mark.parametrize("F", BUILTINS, ids=lambda F: F.spec)
def test_copies_formula_and_chain_counts(F):
    P = build_poset(F, 4)
    for k in range(3):
        for m in range(0, 4 - k):
            if any(F.term(k + j) < F.term(j) for j in range(1, m + 1)):
                continue
            copies = enumerate_copies(P, Vertex(1, k), m)
            expected = math.prod(
                math.comb(F.term(k + j), F.term(j)) for j in range(1, m + 1)
            )
            assert len(copies) == expected
            chains = f_factorial(F, m)
            assert all(c.max_chain_count() == chains for c in copies)


def test_enumerate_copies_width_error():
    F = parse_sequence("custom:3,1")
    P = build_poset(F, 2)
    with pytest.raises(ValueError):
        enumerate_copies(P, Vertex(1, 1), 1)  # needs 3 vertices, level 2 has 1


def test_packing_reports_match_brute_force():
    cases = [
        (NAT, 1, 2, 2, Fraction(3), False),
        (NAT, 2, 2, 6, Fraction(6), True),
        (FIB, 2, 2, 6, Fraction(6), True),
        (EVEN, 1, 2, 2, Fraction(3), False),
    ]
    for F, k, m, expected, quotient, tight in cases:
        P = build_poset(F, k + m)
        report = max_disjoint_packing(P, Vertex(1, k), m)
        assert report.max_packing == expected
        assert report.quotient_bound == quotient
        assert report.tight is tight
        assert report.max_packing == brute_max_packing(
            enumerate_copies(P, Vertex(1, k), m)
        )
        assert report.max_packing * f_factorial(F, m) <= report.chains_total
        assert report.quotient_bound == f_nomial(F, k + m, k)


def test_packing_random_instances_match_brute_force():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        terms = [rng.randint(1, 4) for _ in range(4)]
        F = parse_sequence("custom:" + ",".join(map(str, terms)))
        k = rng.randint(0, 2)
        m = rng.randint(1, min(2, 4 - k))
        try:
            P = build_poset(F, k + m)
            copies = enumerate_copies(P, Vertex(1, k), m)
        except ValueError:
            continue
        if len(copies) > 40:
            continue
        report = max_disjoint_packing(P, Vertex(1, k), m, cap=10000)
        assert report.max_packing == brute_max_packing(copies)
        checked += 1


def test_packing_trivial_cases():
    P = build_poset(NAT, 2)
    report = max_disjoint_packing(P, Vertex(1, 0), 2)
    assert report.copies_total == 1
    assert report.max_packing == 1
    assert report.tight


def test_packing_handles_instances_with_many_copies():
    # 1050 candidate copies: C(6,2) * C(8,4); search must not recurse per copy
    P = build_poset(EVEN, 4)
    report = max_disjoint_packing(P, Vertex(1, 2), 2)
    assert report.copies_total == 1050
    assert report.max_packing == 6
    assert report.tight


def test_packing_cap_refused():
    P = build_poset(EVEN, 3)
    with pytest.raises(PackingCapError):
        max_disjoint_packing(P, Vertex(1, 1), 2, cap=10)


def test_packing_cap_refused_before_the_count_is_built():
    # the full copy count has about 1.4 million bits; the refusal must not need it
    P = build_poset(parse_sequence("gauss:2"), 35)
    with pytest.raises(PackingCapError, match="cap"):
        max_disjoint_packing(P, Vertex(1, 20), 15)
    # a level too small for a copy is still reported as such, cap or not
    P = build_poset(parse_sequence("custom:1,3,5,1"), 4)
    with pytest.raises(ValueError, match="copy needs"):
        max_disjoint_packing(P, Vertex(1, 1), 3, cap=1)


@st.composite
def packing_instances(draw):
    """A custom: spec, root level k and height m <= 3 with every level wide enough."""
    m = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=0, max_value=3))
    terms = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=k + m, max_size=k + m))
    for j in range(1, m + 1):  # ascending, so a raised need is itself met later
        terms[k + j - 1] = max(terms[k + j - 1], terms[j - 1])
    return terms, k, m


@settings(max_examples=150, deadline=None)
@given(packing_instances())
def test_packing_matches_brute_force_on_random_levels(instance):
    terms, k, m = instance
    needs, avails = terms[:m], terms[k : k + m]
    copies_total = math.prod(math.comb(a, n) for a, n in zip(avails, needs))
    assume(copies_total <= 40)
    # the oracle visits every chain-disjoint family, at most
    # sum_{i <= budget} C(copies, i) of them; keep that small
    budget = math.prod(avails) // math.prod(needs)
    assume(sum(math.comb(copies_total, i) for i in range(budget + 1)) <= 20000)
    P = build_poset(parse_sequence("custom:" + ",".join(map(str, terms))), k + m)
    report = max_disjoint_packing(P, Vertex(1, k), m)
    assert report.copies_total == copies_total
    assert report.max_packing == brute_max_packing(enumerate_copies(P, Vertex(1, k), m))


def test_packing_exact_values_on_larger_instances():
    report = max_disjoint_packing(build_poset(NAT, 7), Vertex(1, 5), 2)
    assert (report.copies_total, report.max_packing) == (126, 18)
    assert report.quotient_bound == 21 and not report.tight
    report = max_disjoint_packing(build_poset(NAT, 9), Vertex(1, 7), 2)
    assert (report.copies_total, report.max_packing) == (288, 32)
    report = max_disjoint_packing(build_poset(FIB, 7), Vertex(1, 4), 3)
    assert (report.copies_total, report.max_packing) == (3120, 240)


@pytest.mark.parametrize("k", range(9))
def test_packing_with_unit_first_level_closed_form(k):
    # m = 2 with F_1 = 1: one vertex of level k+1, then disjoint F_2-subsets
    P = build_poset(NAT, k + 2)
    report = max_disjoint_packing(P, Vertex(1, k), 2)
    assert report.max_packing == NAT.term(k + 1) * (NAT.term(k + 2) // NAT.term(2))


@pytest.mark.parametrize("F", BUILTINS, ids=lambda F: F.spec)
def test_dim2_realizer_verifies(F):
    for levels in range(1, 7):
        realizer = dim2_realizer(build_poset(F, levels))
        assert realizer.verified


def test_dim2_chain_case():
    realizer = dim2_realizer(build_poset(parse_sequence("const:1"), 3))
    assert realizer.verified
    assert realizer.order_a == realizer.order_b


def test_dot_export_counts():
    def counts(text):
        lines = text.splitlines()
        return (
            sum(1 for l in lines if "[label=" in l),
            sum(1 for l in lines if "->" in l),
        )

    assert counts(export_dot(build_poset(parse_sequence("const:1"), 1))) == (2, 1)
    assert counts(export_dot(build_poset(NAT, 2))) == (4, 3)
    assert counts(export_dot(build_poset(FIB, 3))) == (5, 4)


def test_dot_export_is_deterministic_and_ordered():
    text = export_dot(build_poset(NAT, 2))
    assert text == export_dot(build_poset(NAT, 2))
    assert text.index('"1,0"') < text.index('"1,1"') < text.index('"2,2"')


@pytest.mark.parametrize("F", BUILTINS, ids=lambda F: F.spec)
def test_hasse_edge_counts_and_acyclicity(F):
    P = build_poset(F, 5)
    edges = P.hasse_edges()
    by_level: dict[int, int] = {}
    for u, _v in edges:
        by_level[u.s] = by_level.get(u.s, 0) + 1
    for s in range(5):
        assert by_level[s] == P.level_size(s) * P.level_size(s + 1)
    assert hasse_is_acyclic(P)
    order = hasse_topological_order(P)
    assert order is not None and len(order) == P.vertex_count


def test_json_dump_shape():
    assert build_poset(FIB, 3).to_json_dict() == {
        "spec": "fibonacci",
        "levels": ["1", "1", "1", "2"],
    }

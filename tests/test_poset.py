import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cobweb.cli import main
from cobweb.fnomial import f_factorial, f_nomial, falling_f
from cobweb import poset
from cobweb.fseq import parse_sequence
from cobweb._exports import _levels_json
from cobweb._packing import _level_bound
from cobweb.poset import (
    CobwebPoset,
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
    check_vertex,
    contains,
    dim2_pairwise,
    dot_text,
    enumerate_copies,
    expand_order,
    hasse_is_acyclic,
    hasse_topological_order,
    leq,
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
    assert contains(P, Vertex(2, 2))
    assert not contains(P, Vertex(3, 2))
    assert not contains(P, Vertex(1, 3))
    with pytest.raises(ValueError):
        check_vertex(P, Vertex(0, 1))


def test_comparability_is_level_based():
    P = build_poset(NAT, 3)
    assert leq(P, Vertex(1, 1), Vertex(3, 3))
    assert leq(P, Vertex(2, 2), Vertex(2, 2))
    assert not leq(P, Vertex(1, 2), Vertex(2, 2))
    assert not leq(P, Vertex(1, 2), Vertex(1, 1))


@pytest.mark.parametrize("F", BUILTINS, ids=lambda F: F.spec)
def test_root_chain_counts_match_factorial(F):
    P = build_poset(F, 6)
    for n in range(7):
        enumerated = count_max_chains_between(P, 0, n, "enumerate")
        assert enumerated == count_max_chains_between(P, 0, n, "product")
        assert enumerated == f_factorial(F, n)


def test_root_chain_count_examples():
    assert count_max_chains_between(build_poset(FIB, 4), 0, 4, "enumerate") == 6
    assert count_max_chains_between(build_poset(NAT, 4), 0, 4, "enumerate") == 24
    assert count_max_chains_between(build_poset(NAT, 4), 0, 0, "enumerate") == 1


def test_between_chain_counts():
    P = build_poset(FIB, 4)
    assert count_max_chains_between(P, 2, 4, "enumerate") == 6
    assert count_max_chains_between(P, 2, 4, "product") == 6
    Q = build_poset(NAT, 3)
    assert count_max_chains_between(Q, 1, 3, "enumerate") == 6
    # one step up: the size of the next level
    assert count_max_chains_between(Q, 2, 3) == 3
    for F in BUILTINS:  # F_(k+1) * ... * F_n, a falling F-factorial
        P = build_poset(F, 5)
        assert all(
            count_max_chains_between(P, k, n, "enumerate") == falling_f(F, n, n - k)
            for k in range(6) for n in range(k, 6)
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
def test_chain_modes_agree_on_random_level_sizes(sizes):
    P = build_poset(parse_sequence("custom:" + ",".join(map(str, sizes))), len(sizes))
    for k in range(P.L + 1):
        for n in range(k, P.L + 1):
            counts = {
                mode: count_max_chains_between(P, k, n, mode)
                for mode in ("product", "enumerate", "matrix")
            }
            assert set(counts.values()) == {math.prod(sizes[k:n])}  # 1 at n = k


def test_enumerate_builds_only_the_levels_it_walks(monkeypatch):
    # the walk runs over level sizes alone: it builds no level at all
    def no_level(self, s):
        raise AssertionError(f"level {s} was built")

    monkeypatch.setattr(CobwebPoset, "level", no_level)
    P = build_poset(NAT, 8)
    assert count_max_chains_between(P, 2, 5, "enumerate") == 3 * 4 * 5
    assert count_max_chains_between(P, 4, 4, "enumerate") == 1


def test_enumerate_refuses_a_walk_past_the_bound(monkeypatch):
    monkeypatch.setattr(poset, "WORK_BOUND", 3 * 4 * 5)
    P = build_poset(NAT, 8)
    assert count_max_chains_between(P, 2, 5, "enumerate") == 60
    with pytest.raises(ValueError, match="work bound of 60 chains"):
        count_max_chains_between(P, 1, 5, "enumerate")
    # the other routes count without walking
    assert count_max_chains_between(P, 1, 5, "product") == 120


def test_check_work_reads_no_total_past_the_first_over_the_bound():
    def totals():
        yield from (0, poset.WORK_BOUND, poset.WORK_BOUND + 1)
        raise AssertionError("a total past the first over the bound was read")

    with pytest.raises(ValueError, match="work bound of 10000000 units"):
        poset.check_work(totals(), "units")
    poset.check_work([0, poset.WORK_BOUND], "units")
    poset.check_work([], "units")


def test_between_range_errors():
    P = build_poset(NAT, 3)
    assert count_max_chains_between(P, 2, 2) == 1
    with pytest.raises(ValueError):
        count_max_chains_between(P, 2, 1)
    with pytest.raises(ValueError):
        count_max_chains_between(P, 2, 4)
    with pytest.raises(ValueError):
        count_max_chains_between(P, 0, 4)
    with pytest.raises(ValueError, match="levels -1..2 outside 0..3"):
        count_max_chains_between(P, -1, 2)
    with pytest.raises(ValueError):
        count_max_chains_between(P, 0, 2, "nope")


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
        report = max_disjoint_packing(P, k, m)
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
        report = max_disjoint_packing(P, k, m, cap=10000)
        assert report.max_packing == brute_max_packing(copies)
        checked += 1


def test_packing_trivial_cases():
    P = build_poset(NAT, 2)
    report = max_disjoint_packing(P, 0, 2)
    assert report.copies_total == 1
    assert report.max_packing == 1
    assert report.tight


def test_packing_handles_instances_with_many_copies():
    # 1050 candidate copies: C(6,2) * C(8,4); search must not recurse per copy
    P = build_poset(EVEN, 4)
    report = max_disjoint_packing(P, 2, 2)
    assert report.copies_total == 1050
    assert report.max_packing == 6
    assert report.tight


def test_packing_refuses_levels_outside_the_poset():
    P = build_poset(NAT, 3)
    for k, m in ((-1, 1), (3, 1), (4, 0)):
        with pytest.raises(ValueError, match=f"copy levels {k}..{k + m} outside 0..3"):
            max_disjoint_packing(P, k, m)


def test_packing_cap_refused():
    P = build_poset(EVEN, 3)
    with pytest.raises(PackingCapError):
        max_disjoint_packing(P, 1, 2, cap=10)


def test_packing_cap_refused_before_the_count_is_built():
    # the full copy count has about 1.4 million bits; the refusal must not need it
    P = build_poset(parse_sequence("gauss:2"), 35)
    with pytest.raises(PackingCapError, match="cap"):
        max_disjoint_packing(P, 20, 15)
    # a level too small for a copy is still reported as such, cap or not
    P = build_poset(parse_sequence("custom:1,3,5,1"), 4)
    with pytest.raises(ValueError, match="copy needs"):
        max_disjoint_packing(P, 1, 3, cap=1)
    # a cap below 1 is refused before any work, the level check included
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            max_disjoint_packing(P, 1, 3, cap=cap)


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
    report = max_disjoint_packing(P, k, m)
    assert report.copies_total == copies_total
    assert report.max_packing == brute_max_packing(enumerate_copies(P, Vertex(1, k), m))


@st.composite
def unitless_layers(draw):
    """custom:needs,fill,avails with every need F_1..F_m >= 2, the layer at
    root level k = m (+ one filler level) and the copy height m <= 2."""
    m = draw(st.integers(min_value=1, max_value=2))
    needs = draw(st.lists(st.integers(min_value=2, max_value=3), min_size=m, max_size=m))
    avails = [draw(st.integers(min_value=n, max_value=n + 3)) for n in needs]
    fill = draw(st.lists(st.just(2), max_size=1))
    return needs + fill + avails, m + len(fill), m


@settings(max_examples=100, deadline=None)
@given(unitless_layers())
def test_level_bound_and_packing_on_layers_without_unit_levels(instance):
    terms, k, m = instance
    needs, avails = terms[:m], terms[k:]
    copies_total = math.prod(math.comb(a, n) for a, n in zip(avails, needs))
    assume(copies_total <= 40)
    budget = math.prod(avails) // math.prod(needs)
    assume(sum(math.comb(copies_total, i) for i in range(budget + 1)) <= 20000)
    P = build_poset(parse_sequence("custom:" + ",".join(map(str, terms))), k + m)
    best = brute_max_packing(enumerate_copies(P, Vertex(1, k), m))
    assert max_disjoint_packing(P, k, m).max_packing == best
    # the search budget: the level bound over the levels where copies can miss
    spread = [(a, n) for a, n in zip(avails, needs) if 2 * n <= a]
    assert best <= _level_bound(spread) <= max(budget, 1)


def test_level_bound_values():
    assert _level_bound([]) == 1
    assert _level_bound([(7, 2)]) == 3  # natural 5/2: 6 * 3 = 18 copies
    assert _level_bound([(7, 2), (7, 2)]) == 10  # floor(7 * 3 / 2), below 49 // 4
    assert _level_bound([(9, 2), (9, 2)]) == 18


def test_packing_closes_a_layer_without_unit_levels(capsys):
    # 441 copies; the node budget refused it under the chain budget 49 // 4 = 12,
    # and the level bound 10 is reached by the first families the search meets
    P = build_poset(parse_sequence("custom:2,2,7,7"), 4)
    start = time.perf_counter()
    report = max_disjoint_packing(P, 2, 2)
    assert time.perf_counter() - start < 1.0
    assert (report.copies_total, report.max_packing) == (441, 10)
    assert report.quotient_bound == Fraction(49, 4) and not report.tight
    # min(floor(9 * 3 / 2), floor(9 * 4 / 3)) = 12 over levels of 9 for copies of 2, 3
    P = build_poset(parse_sequence("custom:2,3,9,9"), 4)
    report = max_disjoint_packing(P, 2, 2)
    assert (report.copies_total, report.max_packing) == (3024, 12)
    argv = ["poset", "pack", "--spec", "custom:2,2,7,7", "--root-level", "2", "--m", "2"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "spec": "custom:2,2,7,7", "root_level": 2, "m": 2, "n": 4, "copies_total": "441",
        "chains_total": "49", "quotient_bound": "49/4", "max_packing": "10", "tight": False,
    }


def test_packing_levels_where_every_two_copies_meet_cost_no_bound_steps():
    # const:2 from level 1 up 40 levels: one copy, and no level where two
    # copies could miss each other, so the level bound has 2^0 steps, not 2^40
    start = time.perf_counter()
    report = max_disjoint_packing(build_poset(parse_sequence("const:2"), 41), 1, 40)
    assert (report.copies_total, report.max_packing, report.tight) == (1, 1, True)
    assert time.perf_counter() - start < 1.0


def test_packing_quotient_is_an_int_where_integral():
    report = max_disjoint_packing(build_poset(NAT, 4), 2, 2)
    assert type(report.quotient_bound) is int and report.quotient_bound == 6 and report.tight
    report = max_disjoint_packing(build_poset(parse_sequence("custom:2,3"), 2), 1, 1)
    assert type(report.quotient_bound) is Fraction and report.quotient_bound == Fraction(3, 2)
    assert (report.max_packing, report.tight) == (1, False)


def test_packing_exact_values_on_larger_instances():
    report = max_disjoint_packing(build_poset(NAT, 7), 5, 2)
    assert (report.copies_total, report.max_packing) == (126, 18)
    assert report.quotient_bound == 21 and not report.tight
    report = max_disjoint_packing(build_poset(NAT, 9), 7, 2)
    assert (report.copies_total, report.max_packing) == (288, 32)
    report = max_disjoint_packing(build_poset(FIB, 7), 4, 3)
    assert (report.copies_total, report.max_packing) == (3120, 240)


@pytest.mark.parametrize("k", range(9))
def test_packing_with_unit_first_level_closed_form(k):
    # m = 2 with F_1 = 1: one vertex of level k+1, then disjoint F_2-subsets
    P = build_poset(NAT, k + 2)
    report = max_disjoint_packing(P, k, 2)
    assert report.max_packing == NAT.term(k + 1) * (NAT.term(k + 2) // NAT.term(2))


@pytest.mark.parametrize("F", BUILTINS, ids=lambda F: F.spec)
def test_dim2_realizer_verifies(F):
    for levels in range(1, 7):
        P = build_poset(F, levels)
        realizer = dim2_realizer(P)
        assert dim2_pairwise(P, expand_order(realizer.order_a), expand_order(realizer.order_b))


def test_dim2_chain_case():
    P = build_poset(parse_sequence("const:1"), 3)
    realizer = dim2_realizer(P)
    assert dim2_pairwise(P, expand_order(realizer.order_a), expand_order(realizer.order_b))
    assert realizer.order_a == realizer.order_b


def test_dim2_orders_are_per_level_ranges():
    P = build_poset(NAT, 3)
    realizer = dim2_realizer(P)
    assert realizer.order_a == (range(1, 2), range(1, 2), range(1, 3), range(1, 4))
    assert realizer.order_b == (range(1, 0, -1), range(1, 0, -1), range(2, 0, -1),
                                range(3, 0, -1))
    assert expand_order(realizer.order_a) == tuple(P.vertices())
    assert expand_order(realizer.order_b) == tuple(
        v for s in range(P.L + 1) for v in reversed(P.level(s)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5), st.data())
def test_dim2_certificate_agrees_with_the_pairwise_check(terms, data):
    levels = data.draw(st.integers(min_value=0, max_value=len(terms)))
    P = build_poset(parse_sequence("custom:" + ",".join(map(str, terms))), levels)
    realizer = dim2_realizer(P)
    assert dim2_pairwise(P, expand_order(realizer.order_a), expand_order(realizer.order_b))


@pytest.mark.parametrize("broken", [
    "same order twice", "both reversed", "levels swapped", "a vertex twice", "a vertex missing",
    "a foreign vertex", "a step-2 range", "a missing level",
])
def test_dim2_certificate_rejects_broken_orders(broken):
    # the pairwise certificate can say no: each order is the realizer's
    # with one defect
    P = build_poset(NAT, 3)  # level sizes 1, 1, 2, 3
    a, b = list(dim2_realizer(P).order_a), list(dim2_realizer(P).order_b)
    if broken == "same order twice":  # the same range twice on every level
        b = list(a)
    elif broken == "both reversed":  # the levels listed top down
        a, b = a[::-1], b[::-1]
    elif broken == "levels swapped":
        a[2], a[3], b[2], b[3] = a[3], a[2], b[3], b[2]
    elif broken == "a vertex twice":  # a list, not a range: 1,1,3 and 3,1,1
        a[3], b[3] = [1, 1, 3], [3, 1, 1]
    elif broken == "a vertex missing":  # a short level: 1,2 and 2,1
        a[3], b[3] = range(1, 3), range(2, 0, -1)
    elif broken == "a foreign vertex":  # a shifted level: 2,3,4 and 4,3,2
        a[3], b[3] = range(2, 5), range(4, 1, -1)
    elif broken == "a step-2 range":  # 1,3,5 and 5,3,1
        a[3], b[3] = range(1, 6, 2), range(5, 0, -2)
    else:
        a, b = a[:-1], b[:-1]
    assert not dim2_pairwise(P, expand_order(tuple(a)), expand_order(tuple(b)))


def test_dim2_certificate_answers_a_large_poset_fast():
    P = build_poset(FIB, 22)  # 46,368 vertices; all pairs would be 2.1e9
    start = time.perf_counter()
    realizer = dim2_realizer(P)
    assert time.perf_counter() - start < 2.0
    assert [len(js) for js in realizer.order_b] == list(P.level_sizes)
    assert all(js[::-1] == ks for js, ks in zip(realizer.order_a, realizer.order_b))


def test_dot_export_counts():
    def counts(text):
        lines = text.splitlines()
        return (
            sum(1 for l in lines if "[label=" in l),
            sum(1 for l in lines if "->" in l),
        )

    assert counts("".join(export_dot(build_poset(parse_sequence("const:1"), 1)))) == (2, 1)
    assert counts("".join(export_dot(build_poset(NAT, 2)))) == (4, 3)
    assert counts("".join(export_dot(build_poset(FIB, 3)))) == (5, 4)


def test_dot_export_is_deterministic_and_ordered():
    text = "".join(export_dot(build_poset(NAT, 2)))
    assert text == "".join(export_dot(build_poset(NAT, 2)))
    assert text.index('"1,0"') < text.index('"1,1"') < text.index('"2,2"')


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5), st.data())
def test_dot_export_equals_the_record_oracle(terms, data):
    levels = data.draw(st.integers(min_value=0, max_value=len(terms)))
    P = build_poset(parse_sequence("custom:" + ",".join(map(str, terms))), levels)
    assert "".join(export_dot(P)) == dot_text(P)


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
    P = build_poset(FIB, 3)
    assert P.to_json_dict() == {
        "spec": "fibonacci",
        "levels": ["1", "1", "1", "2"],
    }
    # the poset build payload is the json.dumps text of the record
    assert "".join(_levels_json(P.F.spec, P.level_sizes)) == json.dumps(P.to_json_dict())

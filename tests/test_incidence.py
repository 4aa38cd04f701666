import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cobweb.fnomial import f_factorial
from cobweb.fseq import parse_sequence
from cobweb.incidence import (
    IncidenceMatrix,
    chain_count_matrix,
    count_chains,
    covering_matrix,
    maximal_chain_row,
    mobius_matrix,
    zeta_matrix,
)
from cobweb.poset import Vertex, build_poset, count_max_chains_between
from oracles import (
    dense_mul,
    dfs_all_chains,
    dfs_paths_to_vertex,
    maximal_chain_matrix,
    recursive_mobius,
)

NAT = parse_sequence("natural")
FIB = parse_sequence("fibonacci")
BUILTINS = [NAT, parse_sequence("even"), FIB, parse_sequence("gauss:2"),
            parse_sequence("const:2")]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_zeta_matches_comparability_predicate():
    for F in BUILTINS:
        P = build_poset(F, 5)
        Z = zeta_matrix(P)
        for x in P.vertices():
            for y in P.vertices():
                assert Z.entry(x, y) == (1 if P.leq(x, y) else 0)


def test_zeta_staircase_blocks():
    P = build_poset(FIB, 6)
    Z = zeta_matrix(P)
    for x in P.vertices():
        for y in P.vertices():
            if x.s == y.s:
                assert Z.entry(x, y) == (1 if x == y else 0)
            elif x.s < y.s:
                assert Z.entry(x, y) == 1
            else:
                assert Z.entry(x, y) == 0


def test_zeta_examples():
    chain = zeta_matrix(build_poset(parse_sequence("const:1"), 2))
    assert chain.to_dense() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    Pn = build_poset(NAT, 2)
    order = Pn.vertices()
    assert zeta_matrix(Pn).to_dense()[order.index(Vertex(1, 1))] == [0, 1, 1, 1]
    Pf = build_poset(FIB, 3)
    order = Pf.vertices()
    row = zeta_matrix(Pf).to_dense()[order.index(Vertex(1, 3))]
    assert row[order.index(Vertex(1, 3))] == 1
    assert row[order.index(Vertex(2, 3))] == 0


def test_zeta_csv_golden_bytes():
    # the export ordering is part of the contract: level-major, j ascending
    Z = zeta_matrix(build_poset(FIB, 4))
    assert "".join(Z.to_csv()) == (
        "1,1,1,1,1,1,1,1\n"
        "0,1,1,1,1,1,1,1\n"
        "0,0,1,1,1,1,1,1\n"
        "0,0,0,1,0,1,1,1\n"
        "0,0,0,0,1,1,1,1\n"
        "0,0,0,0,0,1,0,0\n"
        "0,0,0,0,0,0,1,0\n"
        "0,0,0,0,0,0,0,1\n"
    )


def test_mobius_of_chain():
    Z = zeta_matrix(build_poset(parse_sequence("const:1"), 2))
    M = mobius_matrix(Z)
    assert M.to_dense() == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]


def test_mobius_examples_and_inverse_property():
    for F in BUILTINS:
        P = build_poset(F, 5)
        Z = zeta_matrix(P)
        M = mobius_matrix(Z)
        assert Z.multiply(M).is_identity()
        assert M.multiply(Z).is_identity()
        assert dense_mul(Z.to_dense(), M.to_dense()) == identity(P.vertex_count)
    Zf = zeta_matrix(build_poset(FIB, 3))
    Mf = mobius_matrix(Zf)
    assert Mf.entry(Vertex(1, 0), Vertex(1, 2)) == 0
    assert Mf.entry(Vertex(1, 0), Vertex(1, 1)) == -1


def test_mobius_matches_interval_recursion():
    for F in (NAT, FIB):
        P = build_poset(F, 4)
        M = mobius_matrix(zeta_matrix(P))
        for x in P.vertices():
            for y in P.vertices():
                if P.leq(x, y):
                    assert M.entry(x, y) == recursive_mobius(P, x, y)


def test_mobius_is_stable_under_truncation_growth():
    # an interval [x, y] is unchanged by building more levels above y
    small = build_poset(FIB, 3)
    large = build_poset(FIB, 6)
    M_small = mobius_matrix(zeta_matrix(small))
    M_large = mobius_matrix(zeta_matrix(large))
    for x in small.vertices():
        for y in small.vertices():
            if small.leq(x, y):
                assert M_small.entry(x, y) == M_large.entry(x, y)


def test_mobius_rejects_non_unitriangular():
    P = build_poset(NAT, 2)
    for diagonal in (0, 2, -1):
        table = zeta_matrix(P).table
        table[1][1] = diagonal
        with pytest.raises(ValueError):
            mobius_matrix(IncidenceMatrix(P, table))
    # a table with entries below the diagonal is refused when it is built
    with pytest.raises(ValueError):
        IncidenceMatrix(P, [list(reversed(r)) for r in reversed(zeta_matrix(P).table)])


def test_strict_matrix_is_nilpotent():
    for F in BUILTINS:
        P = build_poset(F, 4)
        Z = zeta_matrix(P)
        eta = IncidenceMatrix(
            P, [[v if s != t else 0 for t, v in enumerate(row)] for s, row in enumerate(Z.table)]
        )
        dense_eta = eta.to_dense()
        power, dense_power = eta, dense_eta
        for _ in range(P.L - 1):
            power = power.multiply(eta)
            dense_power = dense_mul(dense_power, dense_eta)
        # eta^L still counts the chains root < level 1 < ... < level L
        assert power.to_dense() == dense_power
        assert any(map(any, power.table))
        assert not any(map(any, power.multiply(eta).table))
        assert not any(map(any, dense_mul(dense_power, dense_eta)))


def test_count_chains_against_dfs():
    for F in (NAT, FIB, parse_sequence("const:2")):
        P = build_poset(F, 4)
        counts = chain_count_matrix(P)
        for x in P.vertices():
            for y in P.vertices():
                if P.leq(x, y):
                    assert counts.entry(x, y) == dfs_all_chains(P, x, y)


def test_count_chains_closed_form():
    # chains to a fixed vertex pick any subset of the intermediate levels and
    # one vertex on each picked level, so the count is prod(1 + size_s)
    for spec, levels in (("fibonacci", 5), ("natural", 4), ("even", 4)):
        P = build_poset(parse_sequence(spec), levels)
        counts = chain_count_matrix(P)
        for n in range(1, levels + 1):
            closed = math.prod(1 + P.level_size(s) for s in range(1, n))
            for y in P.level(n):
                assert counts.entry(Vertex(1, 0), y) == closed


def test_mobius_inverts_any_unitriangular_matrix():
    rng = random.Random(7)
    for F, levels in ((NAT, 3), (FIB, 5), (parse_sequence("const:2"), 4)):
        P = build_poset(F, levels)
        n = P.L + 1
        for _ in range(5):
            table = [
                [1 if s == t else (rng.randint(-5, 5) if t > s else 0) for t in range(n)]
                for s in range(n)
            ]
            Z = IncidenceMatrix(P, table)
            M = mobius_matrix(Z)
            assert Z.multiply(M).is_identity()
            assert M.multiply(Z).is_identity()
            Zd, Md = Z.to_dense(), M.to_dense()
            assert dense_mul(Zd, Md) == dense_mul(Md, Zd) == identity(P.vertex_count)
            assert Z.multiply(Z).to_dense() == dense_mul(Zd, Zd)


def test_count_chains_examples():
    Pf = build_poset(FIB, 3)
    assert count_chains(Pf, Vertex(1, 0), Vertex(1, 3)) == 4
    assert count_chains(Pf, Vertex(1, 2), Vertex(1, 2)) == 1
    Pn = build_poset(NAT, 2)
    assert count_chains(Pn, Vertex(1, 0), Vertex(2, 2)) == 2
    with pytest.raises(ValueError):
        count_chains(Pn, Vertex(1, 2), Vertex(2, 2))


def test_maximal_chain_matrix_against_dfs():
    depth = {NAT: 6, FIB: 6, parse_sequence("const:2"): 6, parse_sequence("even"): 4}
    for F, levels in depth.items():
        P = build_poset(F, levels)
        vertices = P.vertices()
        for d in range(levels + 1):
            dense = maximal_chain_matrix(P, d)
            rows = [maximal_chain_row(P, s, d) for s in range(levels + 1)]
            for i, x in enumerate(vertices):
                for j, y in enumerate(vertices):
                    if P.leq(x, y) and y.s - x.s == d:
                        assert rows[x.s][y.s] == dense[i][j] == dfs_paths_to_vertex(P, x, y)


def test_maximal_chain_matrix_examples():
    Pf = build_poset(FIB, 3)
    root = Vertex(1, 0)
    per_vertex = [maximal_chain_row(Pf, 0, 3)[y.s] for y in Pf.level(3)]
    assert per_vertex == [1, 1]
    assert sum(per_vertex) == f_factorial(FIB, 3) == count_max_chains_between(Pf, root, 3, "matrix")
    Pn = build_poset(NAT, 3)
    per_vertex = [maximal_chain_row(Pn, 0, 3)[y.s] for y in Pn.level(3)]
    assert per_vertex == [2, 2, 2]
    assert sum(per_vertex) == 6 == count_max_chains_between(Pn, root, 3, "matrix")
    assert count_max_chains_between(Pn, Vertex(2, 2), 2, "matrix") == 1
    with pytest.raises(ValueError):
        count_max_chains_between(Pn, Vertex(1, 2), 1, "matrix")
    with pytest.raises(ValueError):
        maximal_chain_row(Pn, 2, -1)


def test_root_row_sums_give_factorials():
    for F in BUILTINS:
        P = build_poset(F, 5)
        for n in range(1, 6):
            row = maximal_chain_row(P, 0, n)
            assert sum(row[y.s] for y in P.level(n)) == f_factorial(F, n)


def test_covering_matrix_structure():
    P = build_poset(NAT, 2)
    C = covering_matrix(P)
    assert C.table == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert C.to_dense() == [
        [0, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]


def test_exports():
    Z = zeta_matrix(build_poset(parse_sequence("const:1"), 1))
    assert "".join(Z.to_csv()) == "1,1\n0,1\n"
    body = json.loads("".join(Z.to_json()))
    assert body == {"labels": ["1,0", "1,1"], "rows": [["1", "1"], ["0", "1"]]}


@pytest.mark.parametrize("spec,levels", [("const:1", 0), ("natural", 0), ("natural", 3), ("fibonacci", 6)])
def test_json_export_is_the_json_dumps_text(spec, levels):
    Z = zeta_matrix(build_poset(parse_sequence(spec), levels))
    for M in (Z, mobius_matrix(Z), chain_count_matrix(Z.poset)):
        assert "".join(M.to_json()) == json.dumps(M.to_json_dict())


def test_matrix_shape_validation():
    P = build_poset(NAT, 1)
    with pytest.raises(ValueError):
        IncidenceMatrix(P, [[1, 0]])
    with pytest.raises(ValueError):
        IncidenceMatrix(P, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # table shape must be L + 1
    Z = zeta_matrix(P)
    assert Z.dim == 2
    with pytest.raises(ValueError):
        Z.entry(Vertex(9, 9), Vertex(1, 0))
    with pytest.raises(ValueError):
        Z.multiply(zeta_matrix(build_poset(NAT, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40))
def test_block_tables_match_closed_forms(terms):
    # an ordinal sum of antichains of sizes n_0 = 1, n_1, ..., n_L
    P = build_poset(parse_sequence("custom:" + ",".join(map(str, terms))), len(terms))
    n = P.level_sizes
    Z = zeta_matrix(P)
    M = mobius_matrix(Z)
    assert Z.multiply(M).is_identity()
    assert M.multiply(Z).is_identity()
    chains = chain_count_matrix(P)
    # the geometric sum of the strict part eta, which vanishes at power L + 1
    eta = IncidenceMatrix(P, [[int(s < t) for t in range(P.L + 1)] for s in range(P.L + 1)])
    unit = IncidenceMatrix(P, [[int(s == t) for t in range(P.L + 1)] for s in range(P.L + 1)])
    total, term = unit.table, unit
    for _ in range(P.L):
        term = term.multiply(eta)
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, term.table)]
    assert term.multiply(eta) == IncidenceMatrix(P, [[0] * (P.L + 1)] * (P.L + 1))
    assert chains == IncidenceMatrix(P, total)
    C = covering_matrix(P)
    power = unit
    for d in range(P.L + 2):
        if d:
            power = power.multiply(C)
        # the covering walks read the power built by multiplication
        assert [maximal_chain_row(P, s, d) for s in range(P.L + 1)] == power.table
        for s in range(P.L + 1):
            for t in range(s, P.L + 1):
                inner = n[s + 1 : t]
                assert power.table[s][t] == (math.prod(inner) if t - s == d else 0)
                if d == 0:
                    assert M.table[s][t] == (-1) ** (t - s) * math.prod(m - 1 for m in inner)
                    assert chains.table[s][t] == math.prod(1 + m for m in inner)

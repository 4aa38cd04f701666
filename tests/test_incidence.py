import json
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cobweb.fnomial import f_factorial
from cobweb.fseq import parse_sequence
from cobweb.incidence import IncidenceMatrix, mobius_matrix, zeta_matrix
from cobweb.poset import Vertex, build_poset, count_max_chains_between
from oracles import (
    BlockTable,
    covering_matrix,
    dense_mul,
    dfs_all_chains,
    dfs_paths_to_vertex,
    entry,
    is_identity,
    leq,
    maximal_chain_matrix,
    maximal_chain_row,
    multiply,
    recursive_mobius,
    table,
    to_dense,
    unitriangular_inverse,
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
                assert entry(Z, x, y) == (1 if leq(P, x, y) else 0)


def test_zeta_staircase_blocks():
    P = build_poset(FIB, 6)
    Z = zeta_matrix(P)
    for x in P.vertices():
        for y in P.vertices():
            if x.s == y.s:
                assert entry(Z, x, y) == (1 if x == y else 0)
            elif x.s < y.s:
                assert entry(Z, x, y) == 1
            else:
                assert entry(Z, x, y) == 0


def test_zeta_examples():
    chain = zeta_matrix(build_poset(parse_sequence("const:1"), 2))
    assert to_dense(chain) == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    Pn = build_poset(NAT, 2)
    order = Pn.vertices()
    assert to_dense(zeta_matrix(Pn))[order.index(Vertex(1, 1))] == [0, 1, 1, 1]
    Pf = build_poset(FIB, 3)
    order = Pf.vertices()
    row = to_dense(zeta_matrix(Pf))[order.index(Vertex(1, 3))]
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
    M = mobius_matrix(build_poset(parse_sequence("const:1"), 2))
    assert to_dense(M) == [[1, -1, 0], [0, 1, -1], [0, 0, 1]]


def test_mobius_examples_and_inverse_property():
    for F in BUILTINS:
        P = build_poset(F, 5)
        Z = zeta_matrix(P)
        M = mobius_matrix(P)
        assert is_identity(multiply(Z, M))
        assert is_identity(multiply(M, Z))
        assert dense_mul(to_dense(Z), to_dense(M)) == identity(P.vertex_count)
    Mf = mobius_matrix(build_poset(FIB, 3))
    assert entry(Mf, Vertex(1, 0), Vertex(1, 2)) == 0
    assert entry(Mf, Vertex(1, 0), Vertex(1, 1)) == -1


def test_mobius_matches_interval_recursion():
    for F in (NAT, FIB):
        P = build_poset(F, 4)
        M = mobius_matrix(P)
        for x in P.vertices():
            for y in P.vertices():
                if leq(P, x, y):
                    assert entry(M, x, y) == recursive_mobius(P, x, y)


def test_mobius_is_stable_under_truncation_growth():
    # an interval [x, y] is unchanged by building more levels above y
    small = build_poset(FIB, 3)
    large = build_poset(FIB, 6)
    M_small = mobius_matrix(small)
    M_large = mobius_matrix(large)
    for x in small.vertices():
        for y in small.vertices():
            if leq(small, x, y):
                assert entry(M_small, x, y) == entry(M_large, x, y)


def test_mobius_rejects_non_unitriangular():
    # the general inverse of the oracle refuses a table it cannot invert
    P = build_poset(NAT, 2)
    for diagonal in (0, 2, -1):
        rows = table(zeta_matrix(P))
        rows[1][1] = diagonal
        with pytest.raises(ValueError):
            unitriangular_inverse(BlockTable(P, rows))
    # a table with entries below the diagonal is refused when it is built
    with pytest.raises(ValueError):
        BlockTable(P, [list(reversed(r)) for r in reversed(table(zeta_matrix(P)))])


def test_strict_matrix_is_nilpotent():
    for F in BUILTINS:
        P = build_poset(F, 4)
        Z = zeta_matrix(P)
        eta = BlockTable(
            P, [[v if s != t else 0 for t, v in enumerate(row)] for s, row in enumerate(table(Z))]
        )
        dense_eta = to_dense(eta)
        power, dense_power = eta, dense_eta
        for _ in range(P.L - 1):
            power = multiply(power, eta)
            dense_power = dense_mul(dense_power, dense_eta)
        # eta^L still counts the chains root < level 1 < ... < level L
        assert to_dense(power) == dense_power
        assert any(map(any, power.table))
        assert not any(map(any, multiply(power, eta).table))
        assert not any(map(any, dense_mul(dense_power, dense_eta)))


def test_count_chains_against_dfs():
    for F in (NAT, FIB, parse_sequence("const:2")):
        P = build_poset(F, 4)
        counts = IncidenceMatrix(P, 1, 1)
        for x in P.vertices():
            for y in P.vertices():
                if leq(P, x, y):
                    assert entry(counts, x, y) == dfs_all_chains(P, x, y)


def test_count_chains_closed_form():
    # chains to a fixed vertex pick any subset of the intermediate levels and
    # one vertex on each picked level, so the count is prod(1 + size_s)
    for spec, levels in (("fibonacci", 5), ("natural", 4), ("even", 4)):
        P = build_poset(parse_sequence(spec), levels)
        counts = IncidenceMatrix(P, 1, 1)
        for n in range(1, levels + 1):
            closed = math.prod(1 + P.level_size(s) for s in range(1, n))
            for y in P.level(n):
                assert entry(counts, Vertex(1, 0), y) == closed


def test_mobius_inverts_any_unitriangular_matrix():
    # the general inverse of the oracle, which the closed form is checked against
    rng = random.Random(7)
    for F, levels in ((NAT, 3), (FIB, 5), (parse_sequence("const:2"), 4)):
        P = build_poset(F, levels)
        n = P.L + 1
        for _ in range(5):
            rows = [
                [1 if s == t else (rng.randint(-5, 5) if t > s else 0) for t in range(n)]
                for s in range(n)
            ]
            Z = BlockTable(P, rows)
            M = unitriangular_inverse(Z)
            assert is_identity(multiply(Z, M))
            assert is_identity(multiply(M, Z))
            Zd, Md = to_dense(Z), to_dense(M)
            assert dense_mul(Zd, Md) == dense_mul(Md, Zd) == identity(P.vertex_count)
            assert to_dense(multiply(Z, Z)) == dense_mul(Zd, Zd)


def test_count_chains_examples():
    # the walk and the closed form (z, w) = (1, 1), read by vertex pair
    Pf, Pn = build_poset(FIB, 3), build_poset(NAT, 2)
    for P, x, y, expected in (
        (Pf, Vertex(1, 0), Vertex(1, 3), 4),
        (Pf, Vertex(1, 2), Vertex(1, 2), 1),
        (Pn, Vertex(1, 0), Vertex(2, 2), 2),
        (Pn, Vertex(1, 2), Vertex(2, 2), 0),  # incomparable: no chain
    ):
        assert dfs_all_chains(P, x, y) == entry(IncidenceMatrix(P, 1, 1), x, y) == expected
    assert not leq(Pn, Vertex(1, 2), Vertex(2, 2))


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
                    if leq(P, x, y) and y.s - x.s == d:
                        assert rows[x.s][y.s] == dense[i][j] == dfs_paths_to_vertex(P, x, y)


def test_maximal_chain_matrix_examples():
    Pf = build_poset(FIB, 3)
    per_vertex = [maximal_chain_row(Pf, 0, 3)[y.s] for y in Pf.level(3)]
    assert per_vertex == [1, 1]
    assert sum(per_vertex) == f_factorial(FIB, 3) == count_max_chains_between(Pf, 0, 3, "matrix")
    Pn = build_poset(NAT, 3)
    per_vertex = [maximal_chain_row(Pn, 0, 3)[y.s] for y in Pn.level(3)]
    assert per_vertex == [2, 2, 2]
    assert sum(per_vertex) == 6 == count_max_chains_between(Pn, 0, 3, "matrix")
    assert count_max_chains_between(Pn, 2, 2, "matrix") == 1
    with pytest.raises(ValueError):
        count_max_chains_between(Pn, 2, 1, "matrix")
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
    assert to_dense(C) == [
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
    for M in (Z, mobius_matrix(Z.poset), IncidenceMatrix(Z.poset, 1, 1)):
        assert "".join(M.to_json()) == json.dumps(M.to_json_dict())


def test_matrix_shape_validation():
    P = build_poset(NAT, 1)
    with pytest.raises(ValueError):
        BlockTable(P, [[1, 0]])
    with pytest.raises(ValueError):
        BlockTable(P, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # table shape must be L + 1
    Z = zeta_matrix(P)
    assert Z.dim == 2
    with pytest.raises(ValueError):
        entry(Z, Vertex(9, 9), Vertex(1, 0))
    with pytest.raises(ValueError):
        multiply(Z, zeta_matrix(build_poset(NAT, 2)))


# level sizes for custom: posets, ones frequent: a level of one vertex
# zeroes every Möbius value across it
SIZES = st.lists(st.one_of(st.just(1), st.integers(min_value=1, max_value=6)),
                 min_size=1, max_size=40)


def custom_poset(terms):
    """The ordinal sum of antichains of sizes n_0 = 1, n_1, ..., n_L."""
    return build_poset(parse_sequence("custom:" + ",".join(map(str, terms))), len(terms))


@settings(max_examples=60, deadline=None)
@given(SIZES)
def test_block_tables_match_closed_forms(terms):
    P = custom_poset(terms)
    n = P.level_sizes
    Z, M, chains = (BlockTable(P, table(closed))
                    for closed in (zeta_matrix(P), mobius_matrix(P), IncidenceMatrix(P, 1, 1)))
    # the closed forms against the block convolution: the general inverse
    # of zeta and of delta - eta, and the products with zeta both ways
    assert M == unitriangular_inverse(Z)
    assert is_identity(multiply(Z, M))
    assert is_identity(multiply(M, Z))
    size = P.L + 1
    eta = BlockTable(P, [[int(s < t) for t in range(size)] for s in range(size)])
    unit = BlockTable(P, [[int(s == t) for t in range(size)] for s in range(size)])
    delta_minus_eta = BlockTable(
        P, [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(unit.table, eta.table)])
    assert chains == unitriangular_inverse(delta_minus_eta)
    # the geometric sum of the strict part eta, which vanishes at power L + 1
    total, term = unit.table, unit
    for _ in range(P.L):
        term = multiply(term, eta)
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, term.table)]
    assert multiply(term, eta) == BlockTable(P, [[0] * size] * size)
    assert chains == BlockTable(P, total)
    C = covering_matrix(P)
    power = unit
    for d in range(P.L + 2):
        if d:
            power = multiply(power, C)
        # the covering walks read the power built by multiplication
        assert [maximal_chain_row(P, s, d) for s in range(size)] == power.table
        for s in range(size):
            for t in range(s, size):
                inner = n[s + 1 : t]
                assert power.table[s][t] == (math.prod(inner) if t - s == d else 0)
                if d == 0:
                    assert M.table[s][t] == (-1) ** (t - s) * math.prod(m - 1 for m in inner)
                    assert chains.table[s][t] == math.prod(1 + m for m in inner)
    if P.vertex_count <= 40:
        # the dense brute inverses: vertex matrices multiplied row by column
        I = identity(P.vertex_count)
        Zd, Md = to_dense(Z), to_dense(M)
        assert dense_mul(Zd, Md) == dense_mul(Md, Zd) == I
        assert dense_mul(to_dense(delta_minus_eta), to_dense(chains)) == I


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.just(1), st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=7))
def test_matrix_walk_matches_the_dense_covering_power(terms):
    # every pair of levels k <= n: the chains from one vertex of level k to
    # the whole of level n, summed off the dense power of the covering matrix
    P = custom_poset(terms)
    first = [sum(P.level_sizes[:s]) for s in range(P.L + 1)]
    for d in range(P.L + 1):
        dense = maximal_chain_matrix(P, d)
        for k in range(P.L + 1 - d):
            to_level = sum(dense[first[k]][first[k + d] : first[k + d] + P.level_sizes[k + d]])
            assert count_max_chains_between(P, k, k + d, "matrix") == to_level


def test_mobius_of_a_long_poset_is_built_in_closed_form():
    # const:2 L1500: mu = (-1)^(t - s) on every pair of levels s <= t, so
    # no entry is zero; the O(L^3) block inverse that built this table
    # before took about 44 s on one core of a 2-vCPU x86 VM
    P = build_poset(parse_sequence("const:2"), 1500)
    start = time.perf_counter()
    M = mobius_matrix(P)
    assert time.perf_counter() - start < 10
    alternating = [1, -1] * 751
    assert all(M.row(s) == [0] * s + alternating[: 1501 - s] for s in range(1501))


def test_matrix_walk_holds_one_row():
    # const:1 L2000: the walk keeps one (L+1)-row, never an (L+1)^2 table
    # (the covering table it once built took 61.6 MB)
    P = build_poset(parse_sequence("const:1"), 2000)
    tracemalloc.start()
    try:
        count = count_max_chains_between(P, 0, 2000, "matrix")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 1_000_000


def test_matrix_mode_counts_a_long_poset_in_one_product():
    # the (L+1)-row walk this mode once ran took 4.9 s at L10000 and 22.2 s
    # at L20000 (one core of a 2-vCPU x86 VM)
    P = build_poset(parse_sequence("const:1"), 20000)
    start = time.perf_counter()
    assert count_max_chains_between(P, 0, 20000, "matrix") == 1
    assert time.perf_counter() - start < 1


def test_a_row_is_one_level_of_the_closed_form():
    P = build_poset(parse_sequence("custom:3,1,4"), 3)
    assert mobius_matrix(P).row(0) == [1, -1, 2, 0]
    assert IncidenceMatrix(P, 1, 1).row(1) == [0, 1, 1, 2]
    assert zeta_matrix(P).row(3) == [0, 0, 0, 1]
    for s in (-1, 4):
        with pytest.raises(ValueError, match="outside 0..3"):
            zeta_matrix(P).row(s)


def test_a_dense_export_holds_one_level_row():
    # const:1 L3000: the first CSV row needs one level row, never the
    # (L+1)^2 table (that table took about 72 MB)
    P = build_poset(parse_sequence("const:1"), 3000)
    tracemalloc.start()
    try:
        line = next(zeta_matrix(P).to_csv())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert line == ",".join(["1"] * 3001) + "\n"
    assert peak < 2_000_000

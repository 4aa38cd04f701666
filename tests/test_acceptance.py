"""Acceptance suite: every criterion prints one pass/fail line.

All checks are exact (integer or rational equality); there are no numeric
tolerances anywhere.  The desk-scale built-in families used throughout are
natural, even, fibonacci, gauss:2 and const:2.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

from cobweb.fnomial import f_factorial, f_nomial
from cobweb.fseq import (
    is_cobweb_admissible_prefix,
    is_gcd_morphic_prefix,
    parse_sequence,
)
from cobweb.incidence import mobius_matrix, zeta_matrix
from cobweb.poset import (
    Vertex,
    build_poset,
    count_max_chains_between,
    dim2_realizer,
    max_disjoint_packing,
)
from cobweb.prefab import Prefabiant, check_algebra_laws, f_size, odot
from cobweb.series import (
    bell_f,
    decomposition_oracle,
    exp_f_series,
    q_bell,
    FormalSeries,
)
from oracles import (
    count_invertible_matrices,
    count_set_partitions,
    dense_mul,
    dfs_paths_to_vertex,
    dim2_pairwise,
    entry,
    expand_order,
    gl_order,
    hasse_is_acyclic,
    is_identity,
    leq,
    maximal_chain_row,
    multiply,
    scaled_power_by_fractions,
    series_exp,
    to_dense,
)

BUILTIN_SPECS = ["natural", "even", "fibonacci", "gauss:2", "const:2"]


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_criterion_01_binomial_reduction():
    with criterion("1 binomial-reduction"):
        natural = parse_sequence("natural")
        for n in range(21):
            for k in range(n + 1):
                assert f_nomial(natural, n, k) == math.comb(n, k)


def test_criterion_02_fibonomials_vs_chain_quotient_oracle():
    with criterion("2 fibonomial-chain-quotient"):
        fib = parse_sequence("fibonacci")
        assert f_nomial(fib, 4, 2) == 6
        assert f_nomial(fib, 5, 2) == 15
        assert f_nomial(fib, 6, 3) == 60
        P = build_poset(fib, 8)
        # chains walked one by one, from a level-k vertex up to level n
        dfs_between = {
            (k, n): count_max_chains_between(P, k, n, "enumerate")
            for k in range(8)
            for n in range(k + 1, 9)
        }
        for n in range(9):
            for k in range(n + 1):
                m = n - k
                if m == 0:
                    oracle = Fraction(1)
                else:
                    # chains of one embedded copy = root chains up to level m
                    oracle = Fraction(dfs_between[(k, n)], dfs_between[(0, m)])
                assert f_nomial(fib, n, k) == oracle


def test_criterion_03_root_chain_counts():
    with criterion("3 root-chain-factorials"):
        for spec in ("natural", "even", "fibonacci"):
            F = parse_sequence(spec)
            P = build_poset(F, 6)
            for n in range(7):
                assert count_max_chains_between(
                    P, 0, n, "enumerate"
                ) == f_factorial(F, n)
        fib = parse_sequence("fibonacci")
        P7 = build_poset(fib, 7)
        count = count_max_chains_between(P7, 0, 7, "enumerate")
        assert count == 3120
        assert count == f_factorial(fib, 7)


def test_criterion_04_incidence_algebra():
    with criterion("4 incidence-algebra"):
        for spec in BUILTIN_SPECS:
            F = parse_sequence(spec)
            for levels in range(1, 9):
                P = build_poset(F, levels)
                Z = zeta_matrix(P)
                M = mobius_matrix(P)
                assert is_identity(multiply(Z, M))
                if levels <= 5:
                    # the same identity on the dense vertex matrices
                    N = P.vertex_count
                    assert dense_mul(to_dense(Z), to_dense(M)) == [
                        [int(i == j) for j in range(N)] for i in range(N)
                    ]
            # entries at L=8 match the comparability predicate; smaller
            # truncations are principal corners of this matrix
            P8 = build_poset(F, 8)
            Z8 = zeta_matrix(P8)
            vertices = P8.vertices()
            dense = to_dense(Z8)
            for i, x in enumerate(vertices):
                row = dense[i]
                for j, y in enumerate(vertices):
                    assert row[j] == (1 if (x == y or x.s < y.s) else 0)
            P5 = build_poset(F, 5)
            for x in P5.vertices():
                for y in P5.vertices():
                    if leq(P5, x, y):
                        paths = dfs_paths_to_vertex(P5, x, y)
                        assert maximal_chain_row(P5, x.s, y.s - x.s)[y.s] == paths
                        # the package's walk counts the chains to all of level(y)
                        assert count_max_chains_between(P5, x.s, y.s, "matrix") == (
                            paths if x == y else P5.level_size(y.s) * paths
                        )
        # the staircase pattern of the fibonacci matrix, straight from the
        # covering-relation definition: identity inside a level, ones above
        fib8 = build_poset(parse_sequence("fibonacci"), 8)
        Zf = zeta_matrix(fib8)
        for x in fib8.vertices():
            for y in fib8.vertices():
                expected = 1 if x == y else (1 if x.s < y.s else 0)
                assert entry(Zf, x, y) == expected


def test_criterion_05_algebra_laws_seed42():
    with criterion("5 algebra-laws"):
        report = check_algebra_laws(1000, 42)
        by_name = {law.law: law for law in report.laws}
        for name in (
            "commutativity_circ",
            "associativity_circ",
            "identity_circ",
            "identity_odot",
            "grading_odot",
            "grading_circ",
        ):
            assert by_name[name].holds
            assert by_name[name].checked > 0
        kinds = [w.law for w in report.witnesses]
        assert "odot_noncommutativity" in kinds
        assert "odot_nonassociativity" in kinds
        stacking_shape_seen = False
        for w in report.witnesses:
            if w.law != "odot_nonassociativity":
                continue
            a, b, c = (Prefabiant.parse(t) for t in w.operands)
            if a.is_empty or b.is_empty or c.is_empty:
                continue
            s, q = b.width, c.width
            assert Prefabiant.parse(w.lhs) == Prefabiant(a.n + s, a.n + s + q)
            assert Prefabiant.parse(w.rhs) == Prefabiant(a.n, a.n + q)
            stacking_shape_seen = True
        assert stacking_shape_seen


def test_criterion_06_quotient_law_on_prime_pairs():
    with criterion("6 size-quotient-law"):
        for spec in ("natural", "even", "fibonacci", "gauss:2"):
            F = parse_sequence(spec)
            for k in range(1, 12):
                for m in range(1, 13 - k):
                    if k == m:
                        continue
                    a, b = Prefabiant.prime(k), Prefabiant.prime(m)
                    assert f_size(F, odot(a, b), "odot") == (
                        f_size(F, a, "odot") * f_size(F, b, "odot") * f_nomial(F, k + m, k)
                    )


def test_criterion_07_packing_oracle():
    with criterion("7 packing-oracle"):
        reports = []

        def pack(spec, k, m):
            F = parse_sequence(spec)
            P = build_poset(F, k + m)
            report = max_disjoint_packing(P, k, m)
            reports.append((F, report))
            return report

        for spec in BUILTIN_SPECS:
            for k in range(5):
                assert pack(spec, k, 1).tight
            for m in range(4):
                assert pack(spec, 0, m).tight
        for spec in ("natural", "fibonacci"):
            assert pack(spec, 2, 2).tight
        loose = pack("natural", 1, 2)
        assert loose.max_packing == 2
        assert loose.quotient_bound == 3
        assert not loose.tight
        for F, report in reports:
            assert report.max_packing * f_factorial(F, report.m) <= report.chains_total


def test_criterion_08_bell_reduction():
    with criterion("8 bell-reduction"):
        natural = parse_sequence("natural")
        values = [bell_f(natural, n) for n in range(6)]
        assert values == [1, 1, 2, 5, 15, 52]
        assert values == [count_set_partitions(n) for n in range(6)]


def test_criterion_09_vector_space_decompositions():
    with criterion("9 q-bell"):
        assert q_bell(2, 1) == 1 == decomposition_oracle(2, 1)
        assert q_bell(2, 2) == 4 == decomposition_oracle(2, 2)
        assert q_bell(2, 3) == 57 == decomposition_oracle(2, 3)
        assert q_bell(3, 2) == 7 == decomposition_oracle(3, 2)
        bg2 = parse_sequence("bg:2")
        stirling = [scaled_power_by_fractions(bg2, 3, k) for k in (1, 2, 3)]
        assert stirling == [1, 28, 28]
        assert sum(stirling) == 57 == q_bell(2, 3)
        assert f_factorial(bg2, 2) == 6 == gl_order(2, 2) == count_invertible_matrices(2, 2)
        assert f_factorial(bg2, 3) == 168 == gl_order(2, 3) == count_invertible_matrices(2, 3)


def test_criterion_10_sequence_exponential():
    with criterion("10 sequence-exponential"):
        for spec in BUILTIN_SPECS + ["bg:2", "mult:3"]:
            F = parse_sequence(spec)
            series = exp_f_series(F, 30)
            for n in range(31):
                assert series.coeffs[n] == Fraction(1, f_factorial(F, n))
        ordinary = series_exp(FormalSeries(tuple(map(Fraction, [0, 1] + [0] * 29))))
        assert exp_f_series(parse_sequence("natural"), 30) == ordinary


def test_criterion_11_dim2_and_acyclicity():
    with criterion("11 dim2-odag"):
        for spec in BUILTIN_SPECS:
            F = parse_sequence(spec)
            for levels in range(1, 9):
                P = build_poset(F, levels)
                realizer = dim2_realizer(P)
                assert dim2_pairwise(
                    P, expand_order(realizer.order_a), expand_order(realizer.order_b))
                assert hasse_is_acyclic(P)


def test_criterion_12_admissibility_and_gcd():
    with criterion("12 admissibility-gcd"):
        for spec in ("natural", "even", "fibonacci", "gauss:2", "const:2", "const:7"):
            assert is_cobweb_admissible_prefix(parse_sequence(spec), 20).admissible
        for spec in ("fibonacci", "natural", "even", "gauss:2"):
            assert is_gcd_morphic_prefix(parse_sequence(spec), 25).gcd_morphic
        report = is_gcd_morphic_prefix(parse_sequence("bg:2"), 25)
        assert not report.gcd_morphic
        assert report.violation == (3, 2)

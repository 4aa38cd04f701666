"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the package's main code paths: chain
counts walk explicit adjacency, the packing oracle is plain backtracking with
no bounds, the inverse-matrix oracle is the textbook interval recursion, the
dense product multiplies full vertex matrices row by column, saturated-chain
counts are powers of the dense covering matrix, coefficients are quotients
of three factorials, and Bell numbers come from literally enumerating set
partitions, and from a sum over the partitions of n that a recursive walk
lists.  Vector-space decompositions are counted by re-ranking the whole
stacked basis of every candidate set, and invertible matrices by
row-reducing every matrix, next to the closed form of their number.
The F-nomials of the natural, Gaussian and bg sequences are counted as the
k-subsets, the k-dimensional subspaces and the complementary pairs of
subspaces the paper reads them as, every subspace listed as a span of
vector tuples.
The algebra laws are evaluated on every sample, from the three columns of
one list of all draws.  Embedded prime copies are
listed as explicit vertex sets, the Hasse digraph is sorted by Kahn's
algorithm, the series exponential runs its derivative recurrence on
``Fraction`` coefficients, and primality is decided by trial division.  The
series algebra, the scaled series recurrences with a ``Fraction`` per term,
the stored (L+1)² level tables with their block convolution, products,
covering walks and general unitriangular inverse, the vertex readers of
the incidence functions,
the pairwise dim2 check over vertex records, the DOT text written from
``vertices()`` and ``hasse_edges()``, the triangle text built by one join of
``str`` and the gcd-morphism scan over every pair are the routes the package
replaced by recurrences, integer sums over a common denominator, a
construction on per-level ranges, closed forms in the level sizes, loops
over the level sizes, a streamed
``Decimal`` route and one gcd per row against the running lcm.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, product
from typing import Iterable, Iterator

from cobweb import prefab
from cobweb.fnomial import f_nomial
from cobweb.fseq import FSequence, GcdMorphismReport, SequenceError
from cobweb.poset import CobwebPoset, Vertex, level_sizes
from cobweb.prefab import EMPTY, LawReport, LawResult, LawWitness, Prefabiant
from cobweb.series import FormalSeries, enumerate_subspaces


def build_poset(F: FSequence, levels: int) -> CobwebPoset:
    """The truncation with levels 0..levels."""
    return CobwebPoset(F, level_sizes(F, levels))


def contains(P: CobwebPoset, v: Vertex) -> bool:
    return 0 <= v.s <= P.L and 1 <= v.j <= P.level_sizes[v.s]


def check_vertex(P: CobwebPoset, v: Vertex) -> None:
    if not contains(P, v):
        raise ValueError(f"vertex {v} is not in the poset")


def leq(P: CobwebPoset, u: Vertex, v: Vertex) -> bool:
    """Comparability: u <= v iff u = v or level(u) < level(v)."""
    check_vertex(P, u)
    check_vertex(P, v)
    return u == v or u.s < v.s


class PrimeCopy:
    """An embedded copy of the m-level bottom poset, rooted at a vertex.

    Since every cross-level vertex pair is comparable, an embedded copy rooted
    at level k is determined by nothing more than its vertex choices: a set
    S_j of F_j vertices at level k+j for each j = 1..m.  Its maximal chains
    pick the root and then one vertex from each S_j, so it has exactly
    F_1 * ... * F_m of them.
    """

    # A plain class, not a dataclass: the benchmark's checker executes this
    # file without entering it in sys.modules, and a dataclass with string
    # annotations looks its module up there.
    def __init__(self, root: Vertex, m: int, sets: tuple[frozenset[Vertex], ...]):
        self.root = root
        self.m = m
        self.sets = sets

    def max_chain_count(self) -> int:
        return math.prod(len(s) for s in self.sets)

    def shares_chain_with(self, other: "PrimeCopy") -> bool:
        """Two copies share a maximal chain iff all their level sets intersect."""
        return all(s & t for s, t in zip(self.sets, other.sets))

    def is_max_disjoint(self, other: "PrimeCopy") -> bool:
        return not self.shares_chain_with(other)


def enumerate_copies(P: CobwebPoset, root: Vertex, m: int) -> list[PrimeCopy]:
    """All embedded copies of height m rooted at the given vertex.

    There are prod_j C(F_(k+j), F_j) of them; each is checked to carry
    F_1 * ... * F_m maximal chains.
    """
    check_vertex(P, root)
    if not 0 <= m <= P.L - root.s:
        raise ValueError(f"height {m} from level {root.s} does not fit in levels 0..{P.L}")
    per_level = []
    for j in range(1, m + 1):
        level, need = P.level(root.s + j), P.F.term(j)
        if need > len(level):
            raise ValueError(f"level {root.s + j} has {len(level)} vertices, copy needs {need}")
        per_level.append([frozenset(c) for c in combinations(level, need)])
    copies = [PrimeCopy(root, m, sets) for sets in product(*per_level)]
    expected_chains = math.prod(P.F.term(j) for j in range(1, m + 1))
    if any(copy.max_chain_count() != expected_chains for copy in copies):
        raise AssertionError("embedded copy with wrong chain count")
    return copies


def dfs_paths_to_vertex(P: CobwebPoset, x: Vertex, y: Vertex) -> int:
    """Saturated chains from x that end exactly at y, walked one by one."""
    if x.s > y.s:
        return 0
    levels = [P.level(s) for s in range(y.s + 1)]
    count = 0

    def walk(v: Vertex) -> None:
        nonlocal count
        if v.s == y.s:
            if v == y:
                count += 1
            return
        for w in levels[v.s + 1]:
            walk(w)

    walk(x)
    return count


def dfs_all_chains(P: CobwebPoset, x: Vertex, y: Vertex) -> int:
    """Chains x = z_0 < z_1 < ... < z_t = y of any length t >= 0."""
    if x == y:
        return 1
    total = 0
    for s in range(x.s + 1, y.s + 1):
        for z in P.level(s):
            if z == y or z.s < y.s:
                if z == y:
                    total += 1
                else:
                    total += dfs_all_chains(P, z, y)
    return total


def recursive_mobius(P: CobwebPoset, x: Vertex, y: Vertex) -> int:
    """Textbook interval recursion: mu(x,x)=1, mu(x,y) = -sum_{x<=z<y} mu(x,z)."""
    if x == y:
        return 1
    total = 0
    for s in range(x.s, y.s):
        for z in P.level(s):
            if leq(P, x, z):
                total += recursive_mobius(P, x, z)
    return -total


def dense_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """Textbook row-by-column product of two dense integer matrices."""
    columns = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in A]


class BlockTable:
    """A level-block incidence function stored as its upper-triangular
    (L+1)×(L+1) table of exact integers: [s][t] is the value on each pair
    (level s, level t), s < t, and [s][s] on each diagonal vertex of level
    s.  The block algebra below reads it, and a package ``IncidenceMatrix``
    alike, through ``row(s)``.  The table is taken over, not copied.
    """

    def __init__(self, P: CobwebPoset, table: list[list[int]]):
        n = P.L + 1
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table shape must match the L + 1 levels")
        if any(any(row[:s]) for s, row in enumerate(table)):
            raise ValueError("table must be upper triangular")
        self.poset = P
        self.table = table

    def row(self, s: int) -> list[int]:
        return self.table[s]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockTable):
            return NotImplemented
        return self.poset.level_sizes == other.poset.level_sizes and self.table == other.table


def table(M) -> list[list[int]]:
    """The level table of a ``BlockTable`` or an ``IncidenceMatrix``, one
    ``row(s)`` per level."""
    return [M.row(s) for s in range(M.poset.L + 1)]


def entry(M, x: Vertex, y: Vertex) -> int:
    """The value of the incidence function M on the vertex pair (x, y)."""
    check_vertex(M.poset, x)
    check_vertex(M.poset, y)
    if x.s == y.s and x != y:
        return 0
    return M.row(x.s)[y.s]


def to_dense(M) -> list[list[int]]:
    """The N×N integer matrix over the vertex records of ``P.vertices()``,
    one ``entry`` per pair."""
    vertices = M.poset.vertices()
    return [[entry(M, x, y) for y in vertices] for x in vertices]


def convolve(sizes: tuple[int, ...], rows: list[list[int]], s: int, row: list[int]) -> list[int]:
    """Row s of R·T for the block table T of ``rows`` and any R whose row s is ``row``:
    sum over s <= r <= t of w_r row[r] T[r][t].

    The weight w_r is the level size n_r for an intermediate level and 1
    for an endpoint, where only the one vertex x or y itself contributes.
    """
    out = [0] * len(sizes)
    for r in range(s, len(sizes)):
        a = row[r]
        if not a:
            continue
        B = rows[r]
        out[r] += a * B[r]
        if r > s:
            a *= sizes[r]
        for t in range(r + 1, len(sizes)):
            out[t] += a * B[t]
    return out


def push_row(M, s: int, row: list[int]) -> list[int]:
    """Row s of R·M for any R whose row s is ``row``."""
    return convolve(M.poset.level_sizes, table(M), s, row)


def multiply(A, B) -> BlockTable:
    """The product A·B by block convolution, one row of A at a time."""
    if A.poset.level_sizes != B.poset.level_sizes:
        raise ValueError("matrix orderings disagree")
    return BlockTable(A.poset, [push_row(B, s, row) for s, row in enumerate(table(A))])


def is_identity(M) -> bool:
    n = M.poset.L + 1
    return table(M) == [[int(s == t) for t in range(n)] for s in range(n)]


def covering_matrix(P: CobwebPoset) -> BlockTable:
    """Entry (x, y) = 1 iff y covers x (one level up)."""
    n = P.L + 1
    return BlockTable(P, [[int(t == s + 1) for t in range(n)] for s in range(n)])


def maximal_chain_row(P: CobwebPoset, s: int, distance: int) -> list[int]:
    """Row s of the covering-matrix power C^distance, one ``push_row`` of
    ``covering_matrix`` per step from the unit row of level s."""
    if distance < 0:
        raise ValueError("matrix power must be nonnegative")
    C = covering_matrix(P)
    row = [int(t == s) for t in range(P.L + 1)]
    for _ in range(distance):
        row = push_row(C, s, row)
    return row


def unitriangular_inverse(Z) -> BlockTable:
    """Exact integer inverse M of any upper unitriangular block table.

    M = delta - (Z - delta) M, built from the top level down: row s is e_s
    minus the ``convolve`` of row s of Z, diagonal cleared, with the rows of
    M above it.
    """
    sizes = Z.poset.level_sizes
    n = len(sizes)
    rows = table(Z)
    if any(rows[s][s] != 1 for s in range(n)):
        raise ValueError("matrix is not upper unitriangular")
    inverse = [[0] * n for _ in range(n)]
    for s in reversed(range(n)):
        pushed = convolve(sizes, inverse, s, [0] * (s + 1) + rows[s][s + 1 :])
        inverse[s] = [int(t == s) - x for t, x in enumerate(pushed)]
    return BlockTable(Z.poset, inverse)


def maximal_chain_matrix(P: CobwebPoset, distance: int) -> list[list[int]]:
    """Saturated-chain counts over that distance between every pair of
    vertices: the dense covering matrix, read off the vertex records (y
    covers x when it is one level up), raised to the power by row-by-column
    products."""
    vertices = P.vertices()
    covers = [[int(y.s == x.s + 1) for y in vertices] for x in vertices]
    power = [[int(x == y) for y in vertices] for x in vertices]
    for _ in range(distance):
        power = dense_mul(power, covers)
    return power


def brute_max_packing(copies: list[PrimeCopy]) -> int:
    """Maximum pairwise chain-disjoint family by unpruned backtracking."""

    def extend(start: int, chosen: list[PrimeCopy]) -> int:
        best = len(chosen)
        for i in range(start, len(copies)):
            candidate = copies[i]
            if all(candidate.is_max_disjoint(c) for c in chosen):
                best = max(best, extend(i + 1, chosen + [candidate]))
        return best

    return extend(0, [])


def count_set_partitions(n: int) -> int:
    """Number of partitions of an n-element set, by explicit enumeration."""
    if n == 0:
        return 1
    count = 0

    def place(element: int, blocks: list[list[int]]) -> None:
        nonlocal count
        if element == n:
            count += 1
            return
        for block in blocks:
            block.append(element)
            place(element + 1, blocks)
            block.pop()
        blocks.append([element])
        place(element + 1, blocks)
        blocks.pop()

    place(0, [])
    return count


def hasse_topological_order(P: CobwebPoset) -> list[Vertex] | None:
    """Kahn's algorithm over the explicit Hasse digraph; None if cyclic."""
    vertices = P.vertices()
    indegree = {v: 0 for v in vertices}
    successors: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    for u, v in P.hasse_edges():
        successors[u].append(v)
        indegree[v] += 1
    queue = [v for v in vertices if indegree[v] == 0]
    order: list[Vertex] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in successors[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if len(order) != len(vertices):
        return None
    return order


def hasse_is_acyclic(P: CobwebPoset) -> bool:
    return hasse_topological_order(P) is not None


def series_exp(s: FormalSeries) -> FormalSeries:
    """Exponential of a series with zero constant term, exact to its order.

    Uses the derivative recurrence b_n = (1/n) sum_j j a_j b_(n-j).
    """
    if s.coeffs[0] != 0:
        raise ValueError("series exponential requires a zero constant term")
    order = len(s.coeffs) - 1
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if s.coeffs[j]:
                acc += j * s.coeffs[j] * out[n - j]
        out[n] = acc / n
    return FormalSeries(tuple(out))


def is_prime_by_trial_division(q: int) -> bool:
    """Primality by dividing by every d with 2 <= d <= sqrt(q)."""
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def series_add(a: FormalSeries, b: FormalSeries | int | Fraction) -> FormalSeries:
    """a + b truncated to the smaller order; a scalar b adds to the constant term."""
    if isinstance(b, (int, Fraction)):
        return FormalSeries((a.coeffs[0] + b,) + a.coeffs[1:])
    order = min(len(a.coeffs), len(b.coeffs)) - 1
    return FormalSeries(tuple(a.coeffs[n] + b.coeffs[n] for n in range(order + 1)))


def series_sub(a: FormalSeries, b: FormalSeries | int | Fraction) -> FormalSeries:
    if isinstance(b, (int, Fraction)):
        return series_add(a, -b)
    return series_add(a, FormalSeries(tuple(-c for c in b.coeffs)))


def series_mul(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Cauchy product truncated to the smaller order."""
    order = min(len(a.coeffs), len(b.coeffs)) - 1
    return FormalSeries(
        tuple(
            sum((a.coeffs[j] * b.coeffs[n - j] for j in range(n + 1)), Fraction(0))
            for n in range(order + 1)
        )
    )


def dim2_pairwise(
    P: CobwebPoset, order_a: tuple[Vertex, ...], order_b: tuple[Vertex, ...]
) -> bool:
    """Whether the two orders of P's vertices intersect to the strict order of
    P, checked on every ordered pair of distinct vertices: u is below v in
    both orders exactly when u's level is below v's."""
    vertices = P.vertices()
    if sorted(order_a) != sorted(vertices) or sorted(order_b) != sorted(vertices):
        return False
    pos_a = {v: i for i, v in enumerate(order_a)}
    pos_b = {v: i for i, v in enumerate(order_b)}
    return all(
        (pos_a[u] < pos_a[v] and pos_b[u] < pos_b[v]) == (u.s < v.s)
        for u in order_a
        for v in order_a
        if u != v
    )


def expand_order(order: Iterable[Iterable[int]]) -> tuple[Vertex, ...]:
    """The vertex records of an order given as one range of j per level s."""
    return tuple(Vertex(j, s) for s, js in enumerate(order) for j in js)


def dot_text(P: CobwebPoset) -> str:
    """The DOT digraph as ``export_dot`` once wrote it: one node line per
    record of ``P.vertices()``, one edge line per pair of ``P.hasse_edges()``."""
    lines = ["digraph cobweb {\n"]
    lines += [f'    "{v}" [label="{v}"];\n' for v in P.vertices()]
    lines += [f'    "{u}" -> "{v}";\n' for u, v in P.hasse_edges()]
    return "".join(lines) + "}\n"


def f_nomial_from_factorials(F: FSequence, n: int, k: int) -> int | Fraction:
    """The coefficient (n over k)_F as F_n! / (F_k! F_(n-k)!), three
    factorials over the terms and one ``Fraction``; an int where integral."""
    if not 0 <= k <= n:
        raise ValueError(f"coefficient needs 0 <= k <= n, got n={n}, k={k}")
    factorials = list(accumulate(F.terms(n), lambda a, b: a * b, initial=1))
    return _int_where_integral(Fraction(factorials[n], factorials[k] * factorials[n - k]))


def triangle_text(F: FSequence, rows: int, fmt: str) -> str:
    """The standard output of ``fnomial triangle``, built the way the command
    once did: every coefficient from the point query ``f_nomial``, one list
    of ``str`` joined into one payload string."""
    triangle = [[f_nomial(F, n, k) for k in range(n + 1)] for n in range(rows)]
    if fmt == "csv":
        text = "\n".join(",".join(str(v) for v in row) for row in triangle) + "\n"
        return text.rstrip("\n") + "\n"
    return json.dumps([[str(v) for v in row] for row in triangle]) + "\n"


def gcd_morphic_pairwise(F: FSequence, bound: int) -> GcdMorphismReport:
    """gcd(F_n, F_m) = F_gcd(n, m) checked for every 1 <= m <= n <= bound,
    row by row, with F_n read when row n is reached."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    terms = [0]  # F_0 is never read
    for n in range(1, bound + 1):
        terms.append(F.term(n))
        if terms[n] <= 0:
            raise SequenceError(f"{F.spec!r} has a nonpositive term at index {n}")
        for m in range(1, n + 1):
            if math.gcd(terms[n], terms[m]) != terms[math.gcd(n, m)]:
                return GcdMorphismReport(F.spec, bound, False, (n, m))
    return GcdMorphismReport(F.spec, bound, True)


def partitions_recursive(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing integer partitions of n, by choosing the largest part
    and recursing on the rest."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_recursive(n - first, first):
            yield (first,) + rest


def enumerator_coeff_by_recursive_partitions(F: FSequence, n: int) -> Fraction:
    """[x^n] exp(exp_F(x) - 1) as the sum over partitions of n of
    1 / (prod F_p! * prod multiplicity!), summed as ``Fraction``s."""
    factorials = list(accumulate(F.terms(n), lambda a, b: a * b, initial=1))
    return sum(
        (
            Fraction(
                1,
                math.prod(factorials[p] for p in partition)
                * math.prod(math.factorial(m) for m in Counter(partition).values()),
            )
            for partition in partitions_recursive(n)
        ),
        Fraction(0),
    )


def _int_where_integral(value: Fraction) -> int | Fraction:
    return value.numerator if value.denominator == 1 else value


def scaled_enumerator_by_fractions(F: FSequence, n: int) -> list[int | Fraction]:
    """B_0..B_n, B_m = F_m! [x^m] exp(E - 1), by the derivative recurrence
    B_m = (1/m) sum_j j (m over j)_F B_(m-j) with every term a ``Fraction``
    and the coefficients from point queries; each B_m an int where integral."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(sum(j * f_nomial(F, m, j) * B[m - j] for j in range(1, m + 1)) / m)
    return [_int_where_integral(b) for b in B]


def scaled_power_by_fractions(F: FSequence, n: int, k: int) -> int | Fraction:
    """P_k(n) = F_n! [x^n] (E - 1)^k / k! by
    P_i(m) = (1/i) sum_{j>=1} (m over j)_F P_(i-1)(m-j), every term a
    ``Fraction``; an int where integral."""
    P = [[Fraction(int(m == 0)) for m in range(n + 1)]]
    P += [[Fraction(0)] * (n + 1) for _ in range(k)]
    for i in range(1, k + 1):
        for m in range(1, n + 1):
            P[i][m] = sum(
                (f_nomial(F, m, j) * P[i - 1][m - j] for j in range(1, m + 1)), Fraction(0)
            ) / i
    return _int_where_integral(P[k][n])


def rref(rows: list[list[int]], q: int) -> list[list[int]]:
    """Reduced row-echelon form over the prime field; returns the nonzero rows."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % q), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, q)
        mat[rank] = [(v * inv) % q for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % q:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return mat[:rank]


def gl_order(q: int, n: int) -> int:
    """Order of the group of invertible n x n matrices over the q-element
    field, in closed form: the product of q^n - q^i over i < n."""
    if q < 2:
        raise ValueError(f"field size must be >= 2, got {q}")
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    return math.prod(q**n - q**i for i in range(n))


def count_invertible_matrices(q: int, n: int) -> int:
    """Invertible n x n matrices over GF(q), by listing all q^(n*n) of them
    and row-reducing each; prime q and n <= 3 only."""
    if not is_prime_by_trial_division(q):
        raise ValueError(f"field size must be prime, got {q}")
    if not 0 <= n <= 3:
        raise ValueError(f"matrix enumeration is guarded to n <= 3, got {n}")
    return sum(
        len(rref([list(entries[i * n : (i + 1) * n]) for i in range(n)], q)) == n
        for entries in product(range(q), repeat=n * n)
    )


# Subspaces, of every dimension, that ``subspaces_by_dimension`` lists
# before it refuses: GF(2)^4 has 67 and GF(3)^3 28, GF(2)^5 374.
SPAN_BOUND = 200


def subspaces_by_dimension(q: int, n: int) -> list[set[frozenset[tuple[int, ...]]]]:
    """The subspaces of GF(q)^n by dimension, each the frozenset of its
    vectors: a space of dimension d + 1 is the span of one of dimension d and
    a vector outside it.  Prime q only; refused as soon as more than
    ``SPAN_BOUND`` subspaces are listed."""
    if not is_prime_by_trial_division(q):
        raise ValueError(f"field size must be prime, got {q}")
    layers = [{frozenset([(0,) * n])}]
    listed = 1
    for _ in range(n):
        layer = set()
        for U in layers[-1]:
            for v in product(range(q), repeat=n):
                if v in U:
                    continue
                layer.add(frozenset(
                    tuple((a + c * b) % q for a, b in zip(u, v)) for u in U for c in range(q)))
                if listed + len(layer) > SPAN_BOUND:
                    raise ValueError(f"oracle is bounded to {SPAN_BOUND} subspaces")
        listed += len(layer)
        layers.append(layer)
    return layers


def count_subsets(n: int, k: int) -> int:
    """The k-subsets of an n-set, listed one by one: (n over k) of ``natural``."""
    return sum(1 for _ in combinations(range(n), k))


def count_subspaces(q: int, n: int, k: int) -> int:
    """The k-dimensional subspaces of GF(q)^n: (n over k) of ``gauss:q``."""
    return len(subspaces_by_dimension(q, n)[k])


def count_complementary_pairs(q: int, n: int, k: int) -> int:
    """Ordered pairs (U, W) of subspaces of GF(q)^n with dim U = k,
    dim W = n - k and U & W = {0}: (n over k) of ``bg:q``."""
    layers = subspaces_by_dimension(q, n)
    return sum(len(U & W) == 1 for U in layers[k] for W in layers[n - k])


def decompositions_by_rank(q: int, n: int) -> int:
    """Unordered direct-sum decompositions of GF(q)^n: every set of nonzero
    subspaces, in canonical order, whose dimensions add to n and whose stacked
    bases, row-reduced from scratch, have full rank."""
    spaces = sorted((s for s in enumerate_subspaces(q, n) if s), key=lambda s: (len(s), s))
    count = 0

    def extend(start: int, stacked: list[tuple[int, ...]], dim_sum: int) -> None:
        nonlocal count
        for idx in range(start, len(spaces)):
            candidate = spaces[idx]
            d = len(candidate)
            if dim_sum + d > n or len(rref(stacked + list(candidate), q)) != dim_sum + d:
                continue
            if dim_sum + d == n:
                count += 1
            else:
                extend(idx + 1, stacked + list(candidate), dim_sum + d)

    extend(0, [], 0)
    return count


# The algebra laws as predicates on one sampled triple (a, b, c), in payload
# order: whether the law holds, or None where it does not apply.  The
# compositions are looked up in ``prefab`` at call time.
SAMPLED_LAWS = {
    "identity_odot": lambda a, b, c: prefab.odot(EMPTY, a) == a and prefab.odot(a, EMPTY) == a,
    "identity_circ": lambda a, b, c: prefab.circ(EMPTY, a) == a and prefab.circ(a, EMPTY) == a,
    "commutativity_circ": lambda a, b, c: prefab.circ(a, b) == prefab.circ(b, a),
    "associativity_circ": lambda a, b, c: (
        prefab.circ(prefab.circ(a, b), c) == prefab.circ(a, prefab.circ(b, c))),
    "grading_odot": lambda a, b, c: None if a.is_empty or b.is_empty else (
        prefab.odot(a, b).k == a.n and prefab.odot(a, b).width == b.width),
    "grading_circ": lambda a, b, c: None if a.is_empty or b.is_empty else (
        prefab.circ(a, b).k == a.k + b.k and prefab.circ(a, b).n == a.n + b.n),
    "layer_prime_splitting": lambda a, b, c: None if a.is_empty or a.is_prime else (
        prefab.odot(Prefabiant.prime(a.k), Prefabiant.prime(a.width)) == a),
}


def _odot_witness(operands: tuple[Prefabiant, ...]) -> LawWitness | None:
    """The witness that odot fails to commute (two operands) or to associate
    (three) on operands, None where the two sides agree."""
    odot = prefab.odot
    if len(operands) == 2:
        law, (a, b) = "odot_noncommutativity", operands
        lhs, rhs = odot(a, b), odot(b, a)
    else:
        law, (a, b, c) = "odot_nonassociativity", operands
        lhs, rhs = odot(odot(a, b), c), odot(a, odot(b, c))
    return None if lhs == rhs else LawWitness(law, tuple(map(str, operands)), str(lhs), str(rhs))


def draw_operand(rng: random.Random) -> Prefabiant:
    """One law-check operand drawn through ``randint``: the empty element
    with probability 1/8, else a layer of lower level 0..12 and width 1..12."""
    if rng.random() < 0.125:
        return EMPTY
    k = rng.randint(0, 12)
    return Prefabiant(k, k + rng.randint(1, 12))


def law_report_by_samples(sample_count: int, seed: int) -> LawReport:
    """The law report with every law evaluated on every sample: all
    3 * sample_count draws in one list, sample i being draws 3i, 3i + 1 and
    3i + 2, and every sample scanned for the first odot witnesses."""
    rng = random.Random(seed)
    draws = [draw_operand(rng) for _ in range(3 * sample_count)]
    samples = list(zip(draws[0::3], draws[1::3], draws[2::3]))
    laws = []
    for law, holds in SAMPLED_LAWS.items():
        verdicts = [holds(*sample) for sample in samples]
        laws.append(LawResult(law, sample_count - verdicts.count(None), verdicts.count(False)))
    sampled: dict[str, LawWitness] = {}
    for a, b, c in samples:
        for operands in ((a, b), (a, b, c)):
            witness = _odot_witness(operands)
            if witness and witness.law not in sampled:
                sampled[witness.law] = witness
    canonical = (
        _odot_witness((Prefabiant.prime(2), Prefabiant.prime(3))),
        _odot_witness((Prefabiant(1, 3), Prefabiant(0, 2), Prefabiant(0, 1))),
    )
    return LawReport(seed, sample_count, tuple(laws), (*canonical, *sampled.values()))

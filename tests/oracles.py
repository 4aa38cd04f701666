"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the package's main code paths: chain
counts walk explicit adjacency, the packing oracle is plain backtracking with
no bounds, the inverse-matrix oracle is the textbook interval recursion, the
dense product multiplies full vertex matrices row by column, and Bell numbers
come from literally enumerating set partitions.
"""

from __future__ import annotations

from cobweb.poset import CobwebPoset, PrimeCopy, Vertex


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
            if P.leq(x, z):
                total += recursive_mobius(P, x, z)
    return -total


def dense_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """Textbook row-by-column product of two dense integer matrices."""
    columns = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in A]


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

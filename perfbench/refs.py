"""Reference computations for checking the benchmark's operations.

Everything here is written apart from `widecount` and imports nothing from
it: rotation orbits of compositions, orbits of a letter group on count
vectors, fixed-vector counts by inclusion-exclusion, cycle-index matrix
counts, rank by exact rational elimination, unlabeled tree counts (Otter)
and quasipolynomials generated from known constituents.  Permutations are
tuples of 0-based images.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, gcd
from typing import Dict, Iterable, List, Sequence, Tuple

Vector = Tuple[int, ...]


# -- groups on letters --------------------------------------------------------


def group_elements(kind: str, k: int) -> List[Vector]:
    """'S' (symmetric), 'C' (rotations) or '1' (trivial) on range(k)."""
    if kind == "S":
        return list(permutations(range(k)))
    if kind == "C":
        return [tuple((i + r) % k for i in range(k)) for r in range(k)]
    if kind == "1":
        return [tuple(range(k))]
    raise ValueError(f"unknown group kind {kind!r}")


def cycles_of(perm: Sequence[int]) -> List[Tuple[int, ...]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        out.append(tuple(cyc))
    return out


def act(perm: Sequence[int], beta: Vector) -> Vector:
    """The letter permutation moves the count of letter j to letter perm[j]."""
    out = [0] * len(beta)
    for j, x in enumerate(beta):
        out[perm[j]] = x
    return tuple(out)


def member(obstructions: Iterable[Vector], beta: Vector) -> bool:
    return not any(all(o[j] <= beta[j] for j in range(len(beta))) for o in obstructions)


def vectors_at_level(k: int, n: int) -> Iterable[Vector]:
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in vectors_at_level(k - 1, n - first):
            yield (first,) + rest


# -- compositions under rotation -------------------------------------------------


@lru_cache(maxsize=None)
def weak_compositions(total: int, parts: int) -> int:
    """Ways to write total as an ordered sum of `parts` nonnegative integers."""
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(weak_compositions(total - x, parts - 1) for x in range(total + 1))


def rotation_orbits(d: int, n: int) -> int:
    """Orbits of the rotations of Z/d on d-part weak compositions of n.

    Burnside: rotation by r fixes exactly the compositions constant on the
    gcd(r, d) cosets of <r>, each coset of size d/gcd(r, d).
    """
    total = 0
    for r in range(d):
        cosets = gcd(r, d)
        size = d // cosets
        if n % size == 0:
            total += weak_compositions(n // size, cosets)
    assert total % d == 0
    return total // d


def rotation_orbits_brute(d: int, n: int) -> int:
    return len({min(c[i:] + c[:i] for i in range(d)) for c in vectors_at_level(d, n)})


# -- orbits of a letter group on count vectors ------------------------------------


def count_vector_orbits(group: Sequence[Vector], obstructions: Sequence[Vector], k: int, n: int) -> int:
    """Orbits of the letter group on members of the count set at level n,
    by canonical (least) images."""
    seen = set()
    for beta in vectors_at_level(k, n):
        if member(obstructions, beta):
            seen.add(min(act(g, beta) for g in group))
    return len(seen)


@lru_cache(maxsize=None)
def _denumerants(weights: Tuple[int, ...], size: int) -> Tuple[int, ...]:
    table = [1] + [0] * (size - 1)
    for w in weights:
        for j in range(w, size):
            table[j] += table[j - w]
    return tuple(table)


def denumerant(weights: Sequence[int], n: int) -> int:
    """Solutions of sum weights[c] * y[c] = n in nonnegative integers."""
    if n < 0:
        return 0
    size = 64
    while size <= n:
        size *= 2
    return _denumerants(tuple(sorted(weights)), size)[n]


def fixed_vector_count(perm: Sequence[int], obstructions: Sequence[Vector], n: int) -> int:
    """Members of the count set at level n fixed by the letter permutation.

    Inclusion-exclusion over subsets of the obstructions: a fixed vector is
    constant on each cycle, and lies above a subset's join iff each cycle
    value reaches the join's maximum on that cycle.
    """
    cycs = cycles_of(perm)
    weights = [len(c) for c in cycs]
    k = len(perm)
    total = 0
    for size in range(len(obstructions) + 1):
        for subset in combinations(obstructions, size):
            join = [max((o[j] for o in subset), default=0) for j in range(k)]
            base = sum(w * max(join[j] for j in c) for w, c in zip(weights, cycs))
            total += (-1) ** size * denumerant(weights, n - base)
    return total


def fixed_vector_count_brute(perm: Sequence[int], obstructions: Sequence[Vector], n: int) -> int:
    return sum(
        1
        for beta in vectors_at_level(len(perm), n)
        if act(perm, beta) == beta and member(obstructions, beta)
    )


def orbit_count_by_fixed_vectors(group: Sequence[Vector], obstructions: Sequence[Vector], n: int) -> int:
    total = sum(fixed_vector_count(g, obstructions, n) for g in group)
    assert total % len(group) == 0
    return total // len(group)


# -- matrices up to simultaneous row/column permutation ---------------------------


def _cells(n: int, symmetric: bool) -> List[Tuple[int, int]]:
    if symmetric:
        return [(i, j) for i in range(n) for j in range(i, n)]
    return [(i, j) for i in range(n) for j in range(n)]


def _move(perm: Sequence[int], cell: Tuple[int, int], symmetric: bool) -> Tuple[int, int]:
    i, j = perm[cell[0]], perm[cell[1]]
    return (min(i, j), max(i, j)) if symmetric else (i, j)


def matrix_orbit_count(n: int, entries: int, symmetric: bool) -> int:
    """Orbits of n x n matrices over an entry set of the given size under
    simultaneous row/column permutation (cycle index of Sym(n) on cells)."""
    total = 0
    for perm in permutations(range(n)):
        seen = set()
        orbits = 0
        for cell in _cells(n, symmetric):
            if cell in seen:
                continue
            orbits += 1
            cur = cell
            while cur not in seen:
                seen.add(cur)
                cur = _move(perm, cur, symmetric)
        total += entries**orbits
    assert total % factorial(n) == 0
    return total // factorial(n)


def rational_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank by Gauss-Jordan elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_orbit_table(entries: Sequence[Fraction], n: int, symmetric: bool) -> Dict[int, int]:
    """Orbits per rank by listing every matrix and its least relabeling."""
    cells = _cells(n, symmetric)
    perms = list(permutations(range(n)))
    seen: Dict[tuple, int] = {}
    for values in product(range(len(entries)), repeat=len(cells)):
        assign = dict(zip(cells, values))
        canon = min(
            tuple(assign[_move(p, cell, symmetric)] for cell in cells) for p in perms
        )
        if canon in seen:
            continue
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in assign.items():
            m[i][j] = Fraction(entries[v])
            if symmetric:
                m[j][i] = Fraction(entries[v])
        seen[canon] = rational_rank(m)
    out: Dict[int, int] = {}
    for r in seen.values():
        out[r] = out.get(r, 0) + 1
    return out


# -- trees --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rooted_trees(n: int) -> int:
    """Unlabeled rooted trees on n vertices (Euler transform recurrence)."""
    if n <= 1:
        return n
    m = n - 1
    total = 0
    for k in range(1, m + 1):
        s = sum(d * rooted_trees(d) for d in range(1, k + 1) if k % d == 0)
        total += s * rooted_trees(m - k + 1)
    assert total % m == 0
    return total // m


def unlabeled_trees(n: int) -> int:
    """Unlabeled free trees on n vertices, by Otter's dissimilarity formula."""
    if n <= 1:
        return 1 if n == 1 else 0
    pairs = sum(rooted_trees(i) * rooted_trees(n - i) for i in range(1, n))
    if n % 2 == 0:
        pairs -= rooted_trees(n // 2)
    return rooted_trees(n) - pairs // 2


def labeled_trees(n: int) -> int:
    return 1 if n <= 2 else n ** (n - 2)


# -- quasipolynomials ------------------------------------------------------------------


def qp_value(period: int, constituents: Sequence[Sequence[Fraction]], n: int) -> Fraction:
    poly = constituents[n % period]
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * n + c
    return acc


def random_quasipolynomial(rng: random.Random, period: int, degree: int) -> List[List[int]]:
    """Integer constituents of exact period and degree: every leading
    coefficient is nonzero and the constant terms differ across residues."""
    constants = rng.sample(range(-9, 10), period)
    out = []
    for r in range(period):
        poly = [constants[r]] + [rng.randint(-4, 4) for _ in range(degree)]
        if degree:
            poly[-1] = rng.choice([-3, -2, -1, 1, 2, 3])
        out.append(poly)
    return out


def planes_orbits(n: int) -> int:
    """Sym(n)-orbits on the maximal cells of the coordinate-plane family: the
    ambient cell below three coordinates; from there on the coordinate
    pairs, which Sym(n) carries onto one another, so again one orbit."""
    return 1

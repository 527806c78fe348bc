"""Executable versions of the worked examples: closed-form counts, brute-force
component enumerators, and the fixed-rank and tree applications.

Rank computations are exact: matrices are scaled to integers and ranked by
fraction-free elimination over the integers, one step for every rank: a
row reduces the rows after it, whose pivot coordinate is then dropped, and
the result is divided by its gcd.  The fixed-rank counts rank no matrix
one by one: they settle rows in order and count prefixes per reduced state
(the rank so far and the unsettled rows' parts reduced modulo the settled
span by that step), so each state's new row values are listed once.
Every row r lists the values on the orbits of the cells (r, j), j a fixed
point after r, once per multiset within each block of such points whose
columns agree on the settled rows, weighted by its arrangements: the
symmetric group of a block commutes with the permutation, fixes the settled
rows and keeps rank.  The caps bound the states of one row, the value
choices of one listing and the prefixes one row expands over all its states.
"""
from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, groupby, permutations, product
from math import comb, factorial, gcd, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .actions import PermGroup, TooLarge, require, tick
from .functors.elementary import ElementaryModelFunctor, elementary_brute
from .lattice import DownwardClosedSet

TREE_BRUTE_LIMIT = 9
RANK_CELL_BUDGET = 10**8
RANK_STATE_BUDGET = 10**6
RANK_CHOICE_BUDGET = 10**4
RANK_INTEGER_BUDGET = 10**7


# ---------------------------------------------------------------------------
# coordinate planes / points / two-valued coordinates / cyclic cube
# ---------------------------------------------------------------------------


def planes_component_count(n: int) -> int:
    """Components of the no-three-distinct-coordinates family: coordinate
    planes for n >= 3; below that nothing is cut out and the whole space is
    the single component."""
    return comb(n, 2) if n >= 3 else 1


def planes_orbit_count(n: int) -> int:
    """The coordinate planes form a single symmetric-group orbit."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 1


def points_component_count(d: int, n: int) -> int:
    if d < 1:
        raise ValueError("d must be positive")
    return d**n


def points_orbit_count(d: int, n: int) -> int:
    """Tuples of d-th roots of unity up to coordinate permutation."""
    if d < 1:
        raise ValueError("d must be positive")
    return comb(n + d - 1, d - 1)


def galois_orbit_count(n: int) -> int:
    """Unordered two-block partitions of [n] up to permutation."""
    return n // 2 + 1


def galois_orbit_count_brute(n: int) -> int:
    """Oracle: enumerate two-letter words modulo positions and letter swap."""
    return elementary_brute(example_functor("galois"), n)


def cube_orbit_count(d: int, n: int) -> int:
    """The cyclic-difference family: orbits of compositions of n into d parts
    under rotation, by the gcd-weighted binomial sum."""
    if d < 1:
        raise ValueError("d must be positive")
    total = 0
    for e in range(d):
        f = gcd(d, e) if e else d
        if n % (d // f) == 0:
            total += comb(n // (d // f) + f - 1, f - 1)
    if total % d:
        raise AssertionError("rotation count is not integral")
    return total // d


def cube_orbit_count_brute(d: int, n: int) -> int:
    """Oracle: canonical rotation representatives of compositions."""
    require(comb(n + d - 1, d - 1), None, f"compositions of {n} into {d} parts")
    seen = set()
    for c in DownwardClosedSet.full(d).enumerate_level(n):
        tick()
        seen.add(min(c[i:] + c[:i] for i in range(d)))
    return len(seen)


# ---------------------------------------------------------------------------
# exact rank over the rationals
# ---------------------------------------------------------------------------


def _integerize(entries: Sequence[Fraction]) -> List[int]:
    """The entries scaled by their common denominator, which changes no rank."""
    denom = 1
    fracs = [Fraction(e) for e in entries]
    for e in fracs:
        denom = denom * e.denominator // gcd(denom, e.denominator)
    return [int(e * denom) for e in fracs]


def exact_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by fraction-free elimination over the
    integers: each integerized row in turn reduces the rows after it
    (`_rank_mod`).  Rows of unequal length raise ValueError."""
    if not matrix:
        return 0
    cols = len(matrix[0])
    for i, row in enumerate(matrix):
        if len(row) != cols:
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {cols}")
    flat = _integerize([x for row in matrix for x in row])
    m = cols
    for _ in matrix:
        raised, flat = _rank_mod(flat, flat[m:], m)
        m -= raised
    return cols - m


@lru_cache(maxsize=None)
def _others(m: int, p: int) -> Tuple[int, ...]:
    """The coordinates 0..m-1 but p."""
    return tuple(c for c in range(m) if c != p)


# not modular, whatever its name says: the benchmark's trace wraps it by name
def _rank_mod(row: Sequence[int], rest: List[int], m: int) -> Tuple[int, List[int]]:
    """The one elimination step, fraction-free over the integers: reduce
    the flat rows of m coordinates `rest` modulo the span of the row held
    by `row`'s first m entries.  If that row is nonzero, with first
    nonzero coordinate p, each stored x becomes row[p] x - x[p] row, which
    keeps one common scale, and coordinate p is dropped.  Either way the
    result is divided by the gcd of its entries and its first nonzero entry
    made positive.  Returns the rank the row raises, 1 or 0, and the result.
    """
    raised = 0
    for p in range(m):
        wp = row[p]
        if wp:
            raised = 1
            cols = _others(m, p)
            rest = [
                wp * rest[s + c] - f * row[c]
                for s in range(0, len(rest), m)
                for f in (rest[s + p],)
                for c in cols
            ]
            break
    g = gcd(*rest)
    for x in rest:
        if x:
            g = -g if x < 0 else g
            break
    if g != 1 and g:
        rest = [x // g for x in rest]
    return raised, rest


def exact_rank_fraction(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Reference rank by exact rational elimination (oracle for exact_rank)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, rows):
            if m[r][col]:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# fixed-rank matrices with entries in a finite set, up to simultaneous
# row/column permutation
# ---------------------------------------------------------------------------


def _cycle_type_representatives(n: int) -> List[Tuple[Tuple[int, ...], int]]:
    """(canonical permutation of each cycle type, number of permutations of
    that type) for Sym(n)."""

    def partitions(m: int, largest: int) -> Iterable[Tuple[int, ...]]:
        if m == 0:
            yield ()
            return
        for part in range(min(m, largest), 0, -1):
            for rest in partitions(m - part, part):
                yield (part,) + rest

    out = []
    for ptn in partitions(n, n):
        images = []
        start = 1
        for length in ptn:
            block = list(range(start + 1, start + length)) + [start]
            images.extend(block)
            start += length
        size = factorial(n)
        mult: Dict[int, int] = {}
        for length in ptn:
            mult[length] = mult.get(length, 0) + 1
        for length, count in mult.items():
            size //= (length**count) * factorial(count)
        out.append((tuple(images), size))
    return out


def _cell_orbits(images: Tuple[int, ...], symmetric: bool) -> List[List[Tuple[int, int]]]:
    n = len(images)
    if symmetric:
        cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    else:
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    def act(cell):
        i, j = images[cell[0] - 1], images[cell[1] - 1]
        return (min(i, j), max(i, j)) if symmetric else (i, j)

    seen = set()
    orbits = []
    for cell in cells:
        if cell in seen:
            continue
        orbit = []
        cur = cell
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = act(cur)
        orbits.append(orbit)
    return orbits


def _is_symmetric(shape: str, n: int) -> bool:
    if shape not in ("symmetric", "general"):
        raise ValueError("shape must be 'symmetric' or 'general'")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return shape == "symmetric"


def matrix_orbit_count(entries: Sequence[Fraction], n: int, shape: str = "symmetric") -> int:
    """Orbits of all n x n matrices with entries in the given set, whatever
    their rank: Burnside with |entries|^(number of cell orbits) fixed
    matrices per permutation, so nothing is ranked."""
    symmetric = _is_symmetric(shape, n)
    size = len({Fraction(e) for e in entries})
    total = sum(
        class_size * size ** len(_cell_orbits(images, symmetric))
        for images, class_size in _cycle_type_representatives(n)
    )
    return total // factorial(n)


def fixed_rank_orbit_counts_brute(
    entries: Sequence[Fraction], n: int, shape: str = "symmetric"
) -> Dict[int, int]:
    """Oracle for fixed_rank_orbit_counts at tiny n: every matrix that is
    the least of its images under all n! simultaneous permutations is
    ranked by exact rational elimination."""
    symmetric = _is_symmetric(shape, n)
    values = sorted({Fraction(e) for e in entries})
    cells = [(i, j) for i in range(n) for j in range(i if symmetric else 0, n)]
    require(len(values) ** len(cells), RANK_CELL_BUDGET, "entry assignments")
    perms = list(permutations(range(n)))
    out: Dict[int, int] = {}
    for assignment in product(values, repeat=len(cells)):
        tick()
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in zip(cells, assignment):
            m[i][j] = v
            if symmetric:
                m[j][i] = v
        key = tuple(map(tuple, m))
        if all(key <= tuple(tuple(m[a][b] for b in s) for a in s) for s in perms):
            r = exact_rank_fraction(m)
            out[r] = out.get(r, 0) + 1
    return dict(sorted(out.items()))


def fixed_rank_orbit_counts(
    entries: Sequence[Fraction], n: int, shape: str = "symmetric"
) -> Dict[int, int]:
    """Orbit counts, per rank, of n x n matrices with entries in the given
    set under simultaneous row/column permutation.

    Burnside over the cycle types of Sym(n): a permutation's fixed matrices
    are constant on its cell orbits.  They are counted per rank by a dynamic
    programme over rows (`_fixed_rank_histogram`) that keeps one count per
    reduced state rather than listing the matrices, so no fixed matrix is
    ranked on its own.  The caps bound what the programme keeps: the reduced
    states of one row, the integers their keys can hold, and the value
    choices it expands one state, and all the states of a row, into.
    """
    symmetric = _is_symmetric(shape, n)
    entry_list = sorted({Fraction(e) for e in entries})
    ints = _integerize(entry_list)

    totals = [0] * (n + 1)
    for images, class_size in _cycle_type_representatives(n):
        for rank, fixed in enumerate(_fixed_rank_histogram(images, symmetric, ints)):
            totals[rank] += class_size * fixed
    order = factorial(n)
    out = {}
    for r, total in enumerate(totals):
        if total % order:
            raise AssertionError("Burnside sum is not integral")
        if total:
            out[r] = total // order
    return out


def _fixed_rank_histogram(
    images: Tuple[int, ...], symmetric: bool, entries: List[int]
) -> List[int]:
    """Number of matrices fixed by the permutation `images`, with entries
    from the integers `entries`, of each rank.

    A fixed matrix is constant on the cell orbits, and an orbit gets its
    value at its first row.  Rows are settled in order, keeping a count of
    prefixes per reduced state: the rank so far, the blocks of fixed points
    below, then, reduced modulo the span of the settled rows, each later
    row's known part (its cells whose orbit has a value) and one vector per
    distinct indicator that an orbit without a value puts on a later row
    (reduction keeps equal vectors equal, so copies would merge no other
    prefixes).  Completions, and so final ranks, depend only on that state,
    so settling a row lists its new orbits' values once per state, summed
    one orbit at a time so that choices share prefixes.  The last row's
    choices are only counted: at the state's rank where the row is zero,
    one above elsewhere.

    The fixed points after row r (0-based) come last and are split into
    consecutive blocks whose columns agree on every settled row.  The
    symmetric group of a block commutes with the permutation, keeps rank
    and fixes the settled rows and row r, and it permutes the orbits
    cycle(r) x {j}, j in the block, which open at row r and fix row r's
    other orbits.  So row r lists the values on each block's orbits as one
    nondecreasing tuple per multiset, weighted by its arrangements, and the
    next state splits the blocks where the values change and drops r + 1
    from its block (Read's orderly generation, one row at a time).  Blocks
    are part of the state, as they decide what the next row lists, and
    each row builds one listing per block sizes (`_row_choices`).

    A settled row reduces the rest of the state by `_rank_mod`.  Pivots and
    projection depend only on the span, so equal states get equal keys.
    """
    n = len(images)
    orbits = _cell_orbits(images, symmetric)
    # a symmetric cell (i, j) has i <= j, so i is its first row
    first = [min(i for i, _ in orbit) - 1 for orbit in orbits]
    indicator: Dict[Tuple[int, int], List[int]] = {}
    for k, orbit in enumerate(orbits):
        for i, j in orbit:
            for a, b in ((i, j), (j, i)) if symmetric else ((i, j),):
                indicator.setdefault((k, a - 1), [0] * n)[b - 1] = 1
    # one vector per distinct indicator, alive until the last first row of
    # the orbits that use it; vectors that leave sooner come first
    last: Dict[Tuple[int, ...], int] = {}
    for (k, _), vec in indicator.items():
        last[tuple(vec)] = max(last.get(tuple(vec), 0), first[k])
    vectors = sorted(last, key=last.__getitem__)
    # the orbits cycle(r) x {j}, j a fixed point after their first row r,
    # each by its column: each opens at cell (r, j)
    column = {k: j for k, ((i, j), *_) in enumerate(orbits) if i < j == images[j - 1]}
    fixed = [j == images[j] - 1 for j in range(n)] + [False]
    after = sum(fixed[1:n])
    # before row r a state holds its blocks of the fixed points after r,
    # then, flat, n - rank coordinates for each of: the known parts of rows
    # r..n-1, then the vectors still alive
    start = [0] * (n * n) + [v for vec in vectors for v in vec]
    states = {(0, (after,) if after else (), tuple(start)): 1}
    hist = [0] * (n + 1)
    for r in range(n):
        alive = [vec for vec in vectors if last[vec] >= r]
        drop = sum(last[vec] == r for vec in alive)
        # the blocks' orbits come last, in the order of their columns
        own = sorted((k for k, f in enumerate(first) if f == r), key=lambda k: column.get(k, 0))
        free = sum(k not in column for k in own)
        # per orbit of row r: its row's offset among rows r.., its vector
        places = [[(a - r, alive.index(tuple(vec))) for (o, a), vec in indicator.items() if o == k] for k in own]
        # one listing per blocks: per orbit, per prefix it lists, the prefix
        # it extends and its value; each full prefix's weight; the next
        # state's blocks
        listings = {}
        for _, sizes, _ in states:
            if sizes not in listings:
                # a row inside a cycle opens no orbit and keeps its blocks
                picks, weights, splits = _row_choices(free, sizes, entries) if own else ([], [1], [sizes])
                if fixed[r + 1]:
                    # r + 1 leaves its block, the first
                    splits = [(s[0] - 1, *s[1:]) if s[0] > 1 else s[1:] for s in splits]
                listings[sizes] = picks, weights, splits
        # the row's time, capped by the route alone: --max-states caps the
        # states kept, not the prefixes every state expands into
        expanded = sum(len(listings[sizes][1]) for _, sizes, _ in states)
        if expanded > RANK_STATE_BUDGET:
            raise TooLarge(f"row value choices over all states: {expanded} exceeds the budget {RANK_STATE_BUDGET}")
        # a key of the next row holds at most n coordinates for each later
        # row and each vector still alive (none after the last row)
        width = (n - r - 1 + len(alive) - drop) * n
        integer_cap = RANK_INTEGER_BUDGET // max(width, 1)
        integers = f"reduced rank states of {width} integers"
        nxt: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], int] = {}
        for (rank, sizes, flat), count in states.items():
            tick()
            picks, weights, blocks = listings[sizes]
            m = n - rank
            known_end = (n - r) * m
            later = flat[known_end + drop * m :]
            partial = [flat[:known_end]]
            for where, choices in zip(places, picks):
                step = [0] * known_end
                for row, t in where:
                    at = known_end + t * m
                    step[row * m : (row + 1) * m] = flat[at : at + m]
                partial = [[a + v * d for a, d in zip(partial[j], step)] for j, v in choices]
            if r == n - 1:
                # no state follows: the row is zero or raises the rank
                zero = sum(u for w, u in zip(partial, weights) if not any(w))
                hist[rank] += count * zero
                hist[rank + 1] += count * (sum(weights) - zero)
                continue
            for known, weight, split in zip(partial, weights, blocks):
                raised, rest = _rank_mod(known, [*known[m:], *later], m)
                key = (rank + raised, split, tuple(rest))
                nxt[key] = nxt.get(key, 0) + count * weight
            require(len(nxt), RANK_STATE_BUDGET, "reduced rank states")
            require(len(nxt), integer_cap, integers)
        states = nxt
    return hist if n else [1]  # the 0 x 0 matrix, of rank 0


def _row_choices(
    free: int, sizes: Tuple[int, ...], entries: List[int]
) -> Tuple[List[List[Tuple[int, int]]], List[int], List[Tuple[int, ...]]]:
    """How a state lists its prefixes over a row's orbits: `free` orbits,
    then consecutive blocks of the given sizes.  Returns, per orbit, for
    each prefix it lists, the prefix it extends and the orbit's value; then
    each full prefix's weight and its blocks split into runs of equal
    values.  A block's orbits take their values in nondecreasing order of
    index, one prefix per multiset, weighted by its number of arrangements;
    a free orbit takes every value.  One listing's value choices are capped
    before they are listed."""
    opens = set(accumulate(sizes, initial=free))
    picks, held = [], [()]
    for k in range(free + sum(sizes)):
        starts = [0 if k < free or k in opens else h[-1] for h in held]
        require(sum(len(entries) - i for i in starts), RANK_CHOICE_BUDGET, "row value choices")
        step = [(j, i) for j, lo in enumerate(starts) for i in range(lo, len(entries))]
        held = [held[j] + (i,) if k >= free else () for j, i in step]
        picks.append([(j, entries[i]) for j, i in step])
    bounds = list(zip(accumulate(sizes, initial=0), sizes))
    splits = [tuple(len(list(run)) for at, size in bounds for _, run in groupby(h[at : at + size])) for h in held]
    arrangements = prod(map(factorial, sizes))
    return picks, [arrangements // prod(map(factorial, s)) for s in splits], splits


def fixed_rank_orbit_count(
    entries: Sequence[Fraction], k: int, n: int, shape: str = "symmetric"
) -> int:
    """Orbits of rank-k matrices with entries in the given set."""
    return fixed_rank_orbit_counts(entries, n, shape).get(k, 0)


def symmetric_binary_rank_formula(k: int, n: int) -> int:
    """Closed forms for symmetric {0,1} matrices of rank 0, 1, 2."""
    if k == 0:
        return 1
    if k == 1:
        return n
    if k == 2:
        return 2 * (n // 2) * ((n + 1) // 2) + comb(n, 2)
    raise ValueError("closed forms are available for k <= 2 only")


# ---------------------------------------------------------------------------
# labeled trees and their symmetric-group orbits
# ---------------------------------------------------------------------------


def labeled_tree_count(n: int) -> int:
    """Cayley: n^(n-2) spanning trees of the complete graph for n >= 2."""
    if n < 1:
        raise ValueError("n must be positive")
    return 1 if n <= 2 else n ** (n - 2)


def prufer_to_edges(seq: Sequence[int], n: int) -> Tuple[Tuple[int, int], ...]:
    """Decode a Pruefer sequence over [n] into the edges of a labeled tree."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def canonical_tree(edges: Sequence[Tuple[int, int]], n: int) -> str:
    """Canonical form of a labeled tree: the rooted encoding at the centroid
    (classic bottom-up relabeling), equal iff the trees are isomorphic."""
    if n == 1:
        return "()"
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    # find the 1- or 2-vertex center by peeling leaves
    degree = {v: len(adjacency[v]) for v in adjacency}
    layer = [v for v in adjacency if degree[v] <= 1]
    removed = set()
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            removed.add(v)
            remaining -= 1
            for w in adjacency[v]:
                if w not in removed:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in adjacency if v not in removed]

    def encode(root: int, parent: int) -> str:
        children = sorted(
            encode(w, root) for w in adjacency[root] if w != parent
        )
        return "(" + "".join(children) + ")"

    return min(encode(c, 0) for c in centers)


def canonical_tree_exhaustive(edges: Sequence[Tuple[int, int]], n: int) -> Tuple[Tuple[int, int], ...]:
    """Minimum relabeled edge list over all of Sym(n); tiny n only."""
    if n > 8:
        raise TooLarge("exhaustive tree canonicalization limited to n <= 8")
    best = None
    for images in permutations(range(1, n + 1)):
        relabeled = tuple(
            sorted(
                (min(images[a - 1], images[b - 1]), max(images[a - 1], images[b - 1]))
                for a, b in edges
            )
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def sorted_degree_prufer_sequences(n: int) -> Iterable[Tuple[Tuple[int, ...], int]]:
    """The Pruefer sequences over [n] whose multiplicities do not increase
    with the vertex, each weighted by the number of distinct rearrangements
    of its multiplicity vector, so the weights sum to n^(n-2)."""
    for multiset in combinations_with_replacement(range(1, n + 1), n - 2):
        counts = [multiset.count(v) for v in range(1, n + 1)]
        if any(a < b for a, b in zip(counts, counts[1:])):
            continue
        rearrangements = factorial(n) // prod(map(factorial, Counter(counts).values()))
        for seq in sorted(set(permutations(multiset))):
            yield seq, rearrangements


def tree_orbit_count(n: int) -> Tuple[int, int]:
    """(labeled tree count, Sym(n)-orbit count) by Pruefer enumeration plus
    canonicalization; the orbit count equals the unlabeled tree count.

    A vertex appears deg - 1 times in a Pruefer sequence, and every orbit
    holds a tree whose degrees do not increase with the label, so only the
    sequences with non-increasing multiplicities are decoded (246 of the
    16 807 at n = 7).  Each one adds its pattern's labeled count, and the
    total is checked against Cayley's formula.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > TREE_BRUTE_LIMIT:
        raise TooLarge(f"tree enumeration limited to n <= {TREE_BRUTE_LIMIT}")
    if n <= 2:
        return (1, 1)
    labeled = 0
    seen = set()
    for seq, rearrangements in sorted_degree_prufer_sequences(n):
        tick()
        edges = prufer_to_edges(seq, n)
        labeled += rearrangements
        seen.add(canonical_tree(edges, n))
    assert labeled == labeled_tree_count(n)
    return labeled, len(seen)


@lru_cache(maxsize=None)
def unlabeled_tree_counts(n_max: int) -> Tuple[int, ...]:
    """Unlabeled tree counts for 1..n_max by canonical leaf-growth, the
    independent oracle for the orbit counts."""
    counts = []
    current: Dict[str, Tuple[Tuple[int, int], ...]] = {"()": ()}
    counts.append(1)  # n = 1
    size = 1
    while size < n_max:
        nxt: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        for edges in current.values():
            for attach in range(1, size + 1):
                new_edges = tuple(sorted(edges + ((attach, size + 1),)))
                code = canonical_tree(new_edges, size + 1)
                if code not in nxt:
                    nxt[code] = new_edges
        current = nxt
        size += 1
        counts.append(len(current))
    return tuple(counts[:n_max])


# ---------------------------------------------------------------------------
# example registry (CLI-facing)
# ---------------------------------------------------------------------------

EXAMPLES = ("planes", "points", "galois", "cube", "trees")


def example_functor(name: str, d: int = 3) -> Optional[ElementaryModelFunctor]:
    """The elementary model functor counting the example's orbits: words over
    one letter (planes), d letters (points), two letters up to swap (galois)
    or d letters up to rotation (cube); None for trees (not quasipolynomial)."""
    if name == "trees":
        return None
    k, group = {"planes": (1, PermGroup.trivial), "points": (d, PermGroup.trivial),
                "galois": (2, PermGroup.symmetric), "cube": (d, PermGroup.cyclic)}[name]
    return ElementaryModelFunctor(k, group(k), DownwardClosedSet.full(k))


def example_counts(name: str, n: int, d: int = 3) -> Dict[str, int]:
    """Counts for one example at one n: the orbit count and, where
    defined, the component or labeled count."""
    if name == "planes":
        return {
            "orbits": planes_orbit_count(n),
            "components": planes_component_count(n),
        }
    if name == "points":
        return {
            "orbits": points_orbit_count(d, n),
            "components": points_component_count(d, n),
        }
    if name == "galois":
        return {"orbits": galois_orbit_count(n)}
    if name == "cube":
        return {"orbits": cube_orbit_count(d, n)}
    if name == "trees":
        return {"labeled": labeled_tree_count(n), "orbits": unlabeled_tree_counts(n)[n - 1]}
    raise ValueError(f"unknown example {name!r}; choose from {EXAMPLES}")

"""Linear codes over small finite fields up to permutation, scaling, and
field-automorphism equivalence.

A code is identified, up to base change, with the multiset of projective
classes of its generator columns (zero columns map to the distinguished
zero point).  Equivalence classes of codes then correspond to orbits of
the projective semilinear group (with zero) on spanning multisets, which
both the direct canonical-form route and the orbit-counting route use.
A base change moves any m independent columns to e1..em, so the direct
route lists only the multisets holding e1..em, each of which spans.

One construction serves every dimension m: PGammaL(m, q) is closed from
the point maps of generators, each permutation of P once, and the
subspaces of F_q^m are grown one projective point at a time.  Both routes
are guarded before anything is listed, through ``require``: the number of
point maps, |PGammaL(m, q)|, against MAX_GROUP_ORDER, and that number times
the subspaces (orbit counting) or times the anchored multisets (direct
route) against MAX_CANONICAL_OPS.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .actions import MAX_CANONICAL_OPS, MAX_GROUP_ORDER, closure, cycles, require, tick
from .lattice import denumerant, terms_quasipolynomial
# fit is not called here; the benchmark's traced run wraps it at this module
from .quasipoly import FittedQuasipolynomial, fit  # noqa: F401

Element = int
Vector = Tuple[Element, ...]

# Conway-style defining polynomials: x^f = poly in lower powers, coefficients
# listed for 1, x, ..., x^(f-1)
_DEFINING = {
    (2, 2): (1, 1),  # x^2 = 1 + x
    (2, 3): (1, 1, 0),  # x^3 = 1 + x
    (3, 2): (1, 1),  # x^2 = 1 + x  (x^2 + 2x + 2 = 0)
}


class FiniteField:
    """F_q for q = p^f <= 9, backed by full addition/multiplication tables.

    Elements are integers 0..q-1 encoding polynomial coefficients base p.
    The field axioms are verified on the tables at construction, and the
    Frobenius x -> x^p generates the automorphism group of order f.
    """

    def __init__(self, q: int):
        factorization = _prime_power(q)
        if factorization is None:
            raise ValueError(f"q must be a prime power <= 9, got {q}")
        self.q = q
        self.p, self.f = factorization
        p, f = self.p, self.f

        def to_poly(x: int) -> Tuple[int, ...]:
            return tuple((x // p**i) % p for i in range(f))

        def from_poly(cs: Sequence[int]) -> int:
            return sum((c % p) * p**i for i, c in enumerate(cs))

        def poly_add(a, b):
            return tuple((x + y) % p for x, y in zip(a, b))

        def poly_mul(a, b):
            raw = [0] * (2 * f - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    raw[i + j] = (raw[i + j] + x * y) % p
            reduction = _DEFINING.get((p, f))
            for deg in range(2 * f - 2, f - 1, -1):
                c = raw[deg]
                if c:
                    raw[deg] = 0
                    for i, r in enumerate(reduction):
                        raw[deg - f + i] = (raw[deg - f + i] + c * r) % p
            return tuple(raw[:f])

        self.add_table = tuple(
            tuple(from_poly(poly_add(to_poly(a), to_poly(b))) for b in range(q))
            for a in range(q)
        )
        self.mul_table = tuple(
            tuple(from_poly(poly_mul(to_poly(a), to_poly(b))) for b in range(q))
            for a in range(q)
        )
        self.neg_table = tuple(
            next(b for b in range(q) if self.add_table[a][b] == 0) for a in range(q)
        )
        self.inv_table = (None,) + tuple(
            next(b for b in range(1, q) if self.mul_table[a][b] == 1)
            for a in range(1, q)
        )
        self.frobenius = tuple(self._pow(a, self.p) for a in range(q))
        self._validate()

    def _pow(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul_table[out][a]
        return out

    def _validate(self) -> None:
        rng, add, mul, fr = range(self.q), self.add_table, self.mul_table, self.frobenius
        for axiom, holds in (
            ("identity and zero", all(add[a][0] == a and mul[a][1] == a and mul[a][0] == 0 for a in rng)),
            ("commutativity", all(add[a][b] == add[b][a] and mul[a][b] == mul[b][a] for a in rng for b in rng)),
            ("associativity and distributivity", all(
                add[add[a][b]][c] == add[a][add[b][c]] and mul[mul[a][b]][c] == mul[a][mul[b][c]]
                and mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                for a in rng for b in rng for c in rng
            )),
            ("a Frobenius that keeps sums and products", all(
                fr[add[a][b]] == add[fr[a]][fr[b]] and fr[mul[a][b]] == mul[fr[a]][fr[b]]
                for a in rng for b in rng
            )),
            ("an automorphism group of order f", len(self.automorphisms()) == self.f),
        ):
            if not holds:
                raise AssertionError(f"{axiom} fails")

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        return self.inv_table[a]

    def automorphisms(self) -> List[Tuple[int, ...]]:
        """Powers of Frobenius, as value tables; the identity comes first."""
        return closure([self.frobenius], tuple(range(self.q)))

    def __repr__(self) -> str:
        return f"FiniteField(q={self.q})"


def _prime_power(q: int) -> Optional[Tuple[int, int]]:
    """(p, f) with q = p^f <= 9 for a prime p; None for every other q,
    q < 2 included."""
    return next(((p, f) for p in (2, 3, 5, 7) for f in (1, 2, 3) if p**f == q <= 9), None)


@lru_cache(maxsize=None)
def field(q: int) -> FiniteField:
    return FiniteField(q)


# ---------------------------------------------------------------------------
# linear algebra over F_q
# ---------------------------------------------------------------------------


def rref(F: FiniteField, rows: Sequence[Vector]) -> Tuple[Vector, ...]:
    """Reduced row echelon form; zero rows dropped."""
    m = [list(r) for r in rows]
    n_cols = len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = F.inv(m[rank][col])
        m[rank] = [F.mul(inv, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [F.sub(x, F.mul(factor, y)) for x, y in zip(m[r], m[rank])]
        rank += 1
    return tuple(tuple(r) for r in m[:rank])


@dataclass(frozen=True)
class LinearCode:
    """An m-dimensional code of length n, stored by its canonical RREF basis."""

    q: int
    n: int
    generator: Tuple[Vector, ...]

    @property
    def m(self) -> int:
        return len(self.generator)

    @staticmethod
    def from_rows(q: int, rows: Sequence[Vector], expect_dim: Optional[int] = None) -> "LinearCode":
        F = field(q)
        reduced = rref(F, rows)
        if expect_dim is not None and len(reduced) != expect_dim:
            raise ValueError(f"rows span dimension {len(reduced)}, expected {expect_dim}")
        n = len(rows[0]) if rows else 0
        return LinearCode(q, n, reduced)

    def column_points(self) -> Tuple[int, ...]:
        """The multiset (sorted tuple) of projective point indices of the columns."""
        # with no generator rows every column is the empty zero vector
        columns = zip(*self.generator) if self.generator else [()] * self.n
        return tuple(sorted(map(projective_points(self.q, self.m).index_of, columns)))


def puncture(code: LinearCode, coordinate: int) -> Optional[LinearCode]:
    """Delete a coordinate; None when the dimension would drop."""
    if not 1 <= coordinate <= code.n:
        raise ValueError("coordinate out of range")
    rows = [r[: coordinate - 1] + r[coordinate:] for r in code.generator]
    reduced = rref(field(code.q), rows)
    return LinearCode(code.q, code.n - 1, reduced) if len(reduced) == code.m else None


# ---------------------------------------------------------------------------
# the projective point set P and the semilinear group
# ---------------------------------------------------------------------------


class ProjectivePoints:
    """P = {0} u (F_q^m \\ 0)/scalars with the fixed indexing: index 1 is the
    zero point, the projective representatives (first nonzero entry 1)
    follow in lexicographic order."""

    def __init__(self, q: int, m: int):
        F = field(q)
        self.q, self.m = q, m
        vectors = list(product(range(q), repeat=m))  # in lexicographic order
        reps = tuple(vec for vec in vectors if any(vec) and _canonical_rep(F, vec) == vec)
        self.reps: Tuple[Vector, ...] = ((0,) * m,) + reps
        rep_index = {rep: i for i, rep in enumerate(self.reps, start=1)}
        self.k = len(self.reps)
        # the point index of every vector of F_q^m, built once per (q, m)
        self.index_of: Callable[[Vector], int] = {
            vec: rep_index[_canonical_rep(F, vec)] for vec in vectors
        }.__getitem__

    def rep(self, index: int) -> Vector:
        return self.reps[index - 1]


def _canonical_rep(F: FiniteField, vec: Vector) -> Vector:
    lead = next((x for x in vec if x), None)
    if lead is None:
        return vec
    inv = F.inv(lead)
    return tuple(F.mul(inv, x) for x in vec)


@lru_cache(maxsize=None)
def projective_points(q: int, m: int) -> ProjectivePoints:
    return ProjectivePoints(q, m)


def alphabet_size(q: int, m: int) -> int:
    return 1 + (q**m - 1) // (q - 1)


def _semilinear_order(q: int, m: int) -> int:
    """The number of maps semilinear_point_maps lists, checked against the
    group cap: |PGammaL(m, q)| = f * |GL(m, q)| / (q - 1) for m >= 2 and 1
    for m <= 1, with |GL(m, q)| = prod (q^m - q^i)."""
    order = field(q).f * prod(q**m - q**i for i in range(m)) // (q - 1) if m >= 2 else 1
    require(order, MAX_GROUP_ORDER, f"|PGammaL({m}, {q})|")
    return order


def _span(F: FiniteField, m: int, vectors: Iterable[Vector]) -> Set[Vector]:
    """Every linear combination of the vectors, in F_q^m."""
    span = {(0,) * m}
    for vec in vectors:
        span = {tuple(F.add(x, F.mul(c, y)) for x, y in zip(u, vec)) for u in span for c in range(F.q)}
    return span


def _semilinear_generators(q: int, m: int) -> List[Tuple[int, ...]]:
    """Point maps, as value tables, of a generating set of GammaL(m, q): the
    transvections I + E_ij (i != j), the diagonals diag(c, 1, ..., 1) and,
    when f > 1, the Frobenius.  Conjugating the transvections by the
    diagonals gives every I + c E_ij, and those generate SL(m, q)."""
    F, pts = field(q), projective_points(q, m)
    moves = [lambda v, i=i, j=j: v[:i] + (F.add(v[i], v[j]),) + v[i + 1:]
             for i in range(m) for j in range(m) if i != j]
    moves += [lambda v, c=c: (F.mul(c, v[0]),) + v[1:] for c in range(2, q) if m]
    moves += [lambda v: tuple(F.frobenius[x] for x in v)] if F.f > 1 else []
    return [(0,) + tuple(pts.index_of(move(v)) for v in pts.reps) for move in moves]


@lru_cache(maxsize=None)
def semilinear_point_maps(q: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """The permutations of P induced by GammaL(m, q), each once, as value
    tables over indices 1..k (index 0 unused): PGammaL(m, q), found as the
    closure of the generators' point maps under composition."""
    order = _semilinear_order(q, m)
    maps = closure(_semilinear_generators(q, m), tuple(range(projective_points(q, m).k + 1)))
    if len(maps) != order:
        raise AssertionError(f"the generators give {len(maps)} point maps of GammaL({m}, {q}), not {order}")
    return tuple(maps)


# ---------------------------------------------------------------------------
# canonical forms and direct classification
# ---------------------------------------------------------------------------


def canonical_point_multiset(q: int, m: int, points: Sequence[int]) -> Tuple[int, ...]:
    """The lexicographically least image of a multiset of points of P (the
    column points of an m-dimensional code over F_q, in any order) under the
    semilinear group; equal iff the codes are equivalent."""
    return min(tuple(sorted(table[i] for i in points)) for table in semilinear_point_maps(q, m))


def canonical_code(code: LinearCode) -> LinearCode:
    """A canonical representative of the code's equivalence class: the RREF
    basis of the columns realizing the canonical point multiset, in order."""
    pts = projective_points(code.q, code.m)
    columns = [pts.rep(i) for i in canonical_point_multiset(code.q, code.m, code.column_points())]
    return LinearCode.from_rows(code.q, tuple(zip(*columns)), expect_dim=code.m)


def all_codes(q: int, m: int, n: int) -> Iterable[LinearCode]:
    """Every m-dimensional code of length n: all rank-m RREF matrices."""
    field(q)  # rejects a q that is no field size
    for pivots in combinations(range(1, n + 1), m):
        # free cells: to the right of the row's pivot and not a pivot column
        free_cells = [
            (i, j)
            for i in range(m)
            for j in range(pivots[i] + 1, n + 1)
            if j not in pivots
        ]
        for values in product(range(q), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(m)]
            for i, col in enumerate(pivots):
                rows[i][col - 1] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j - 1] = v
            yield LinearCode(q, n, tuple(tuple(r) for r in rows))


def count_codes_direct(q: int, m: int, n: int, family=None) -> int:
    """Equivalence classes of m-dimensional length-n codes by canonical-form
    deduplication over one code per column multiset holding e1..em.

    Every code has m independent columns, and a base change maps them to
    e1..em, so every class has a column multiset holding e1..em; conversely
    every size-n multiset holding them spans.  Those anchored multisets,
    C(k + n - m - 1, n - m) of them for k = alphabet_size(q, m), are each
    canonicalised once as point multisets; no generator matrix is
    enumerated.  Each canonical form is a least image over the point maps
    of PGammaL(m, q); the multisets are capped at
    MAX_CANONICAL_OPS // |PGammaL(m, q)|, checked with the group order
    before the group is listed.

    ``family`` optionally restricts to a user family via a membership
    predicate on LinearCode, asked once per anchored multiset; only then is
    a code built, with the columns e1..em first, which puts it in RREF as
    it stands.  It must be equivalence-invariant and closed under
    puncturing; closure is spot-checked on the counted codes (one allowed
    puncture each), not proved.
    """
    group = _semilinear_order(q, m)
    if n < m:
        return 0
    k = alphabet_size(q, m)
    require(comb(k + n - m - 1, n - m), MAX_CANONICAL_OPS // group,
            f"anchored column multisets of length {n}, each under {group} semilinear maps")
    pts = projective_points(q, m)
    anchor = tuple(pts.index_of(tuple(int(i == j) for j in range(m))) for i in range(m))
    seen = {}
    for extra in combinations_with_replacement(range(1, pts.k + 1), n - m):
        tick()
        points, code = anchor + extra, None
        if family is not None:
            code = LinearCode(q, n, tuple(zip(*map(pts.rep, points))))
            if not family(code):
                continue
        seen.setdefault(canonical_point_multiset(q, m, points), code)
    if family is not None:
        for code in seen.values():
            for coordinate in range(1, code.n + 1):
                punctured = puncture(code, coordinate)
                if punctured is not None:
                    if not family(punctured):
                        raise ValueError(
                            "family is not closed under puncturing "
                            f"(witness at coordinate {coordinate})"
                        )
                    break
    return len(seen)


# ---------------------------------------------------------------------------
# the orbit-counting route
# ---------------------------------------------------------------------------


def _subspace_point_sets(q: int, m: int) -> List[Tuple[FrozenSet[int], int]]:
    """(point set of the subspace including 0, Moebius value to the top) for
    every subspace of F_q^m, the larger first.

    Each subspace is the span of a subspace one dimension lower and a
    projective point outside it; mu(top) = 1 and mu(W) = -sum of mu(U) over
    the U strictly above W, which makes mu = (-1)^j q^(j(j-1)/2) at
    codimension j.
    """
    F, pts = field(q), projective_points(q, m)
    levels = [{frozenset({1}): ()}]  # per dimension: each subspace's point set and a basis
    for _ in range(m):
        levels.append({})
        for points, basis in levels[-2].items():
            covered = set(points)  # each subspace just above is spanned once from here
            for idx in range(2, pts.k + 1):
                if idx not in covered:
                    grown = basis + (pts.rep(idx),)
                    above = frozenset(map(pts.index_of, _span(F, m, grown)))
                    covered |= above
                    levels[-1].setdefault(above, grown)
    moebius: Dict[FrozenSet[int], int] = {}
    for level in reversed(levels):
        for points in level:
            moebius[points] = -sum(mu for above, mu in moebius.items() if above > points) if moebius else 1
    return list(moebius.items())


def _subspace_count(q: int, m: int) -> int:
    """The number of subspaces of F_q^m, Gaussian binomials summed over the dimension."""
    return sum(prod(q**m - q**i for i in range(j)) // prod(q**j - q**i for i in range(j)) for j in range(m + 1))


@lru_cache(maxsize=None)
def _burnside_terms(q: int, m: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The Burnside sum of count_codes_burnside with its terms gathered by
    weight vector: (sorted cycle lengths, summed Moebius value) pairs.

    A semilinear map fixes a size-n multiset over a subspace's point set iff
    the multiset is constant on the map's cycles inside that set, so the
    term is the denumerant of those cycle lengths, whatever n is.
    """
    require(_subspace_count(q, m), MAX_CANONICAL_OPS // _semilinear_order(q, m),
            f"subspaces of F_{q}^{m} times the semilinear maps")
    subspaces = _subspace_point_sets(q, m)
    terms: Dict[Tuple[int, ...], int] = {}
    for table in semilinear_point_maps(q, m):
        tick()
        walk = cycles(table.__getitem__, range(1, len(table)))
        for points, moebius in subspaces:
            weights = tuple(sorted(len(c) for c in walk if points.issuperset(c)))
            terms[weights] = terms.get(weights, 0) + moebius
    return tuple((w, coeff) for w, coeff in sorted(terms.items()) if coeff)


def count_codes_burnside(q: int, m: int, n: int) -> int:
    """Equivalence classes via the orbit-counting lemma on spanning multisets.

    Averages, over the distinct semilinear point maps, the number of fixed
    size-n multisets over P whose support spans, with the spanning
    condition by Moebius inclusion-exclusion over the subspace lattice.
    """
    total = sum(coeff * denumerant(w, n) for w, coeff in _burnside_terms(q, m))
    group_size = len(semilinear_point_maps(q, m))
    if total % group_size:
        raise AssertionError("orbit-counting sum is not integral")
    return total // group_size


def codes_quasipolynomial(q: int, m: int, n_max: int, max_period: int = 6,
                          max_degree: int = 6) -> FittedQuasipolynomial:
    """The length-counting quasipolynomial, built exact for every n >= 0
    from the Burnside terms.

    Every semilinear map fixes the zero point, which every subspace holds,
    so each Burnside term is a denumerant with a non-empty weight vector
    and base level 0: a quasipolynomial for all n >= 0.  ``n_max``,
    ``max_period`` and ``max_degree`` do not affect the result.
    """
    terms = {(w, 0): coeff for w, coeff in _burnside_terms(q, m)}
    return terms_quasipolynomial(terms, len(semilinear_point_maps(q, m)))

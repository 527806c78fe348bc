"""Downward-closed subsets of Z_{>=0}^k and exact lattice-point level counting.

A downward-closed set is stored by the antichain of minimal vectors of its
complement ("obstructions"): beta belongs iff no obstruction is <= beta
componentwise.  Stanley decomposition splits such a set into disjoint
translated coordinate cones; per-level counts then reduce to weighted
denumerants computed by an exact integer DP.

Every level count built here, and every orbit count made of them, is kept
as level terms: a dict {(sorted free weights w, base level b): c} standing
for the sum of c * d_w(n - b), d_w the denumerant.  They are built once;
``evaluate_terms`` gives the count at one n, ``terms_quasipolynomial`` its
exact closed form.  The builder reads the terms of one w as the series
sum c * x^b / prod(1 - x^w) and gets every value it interpolates from one
pass of the denumerant DP's running sums: the sum over weight tuples of
|w| * (onset + period * (degree + 1)) integer additions, not one
``denumerant`` call per term per value.  The divisor joins the one
denominator the interpolation divides by.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter, le
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .actions import Permutation, tick
# fit is not called here; the benchmark's traced run wraps it at this module
from .quasipoly import FittedQuasipolynomial, build_quasipolynomial, fit  # noqa: F401

Vector = Tuple[int, ...]
# (sorted free weights w, base level b) -> c, standing for c * denumerant(w, n - b)
LevelTerms = Dict[Tuple[Tuple[int, ...], int], int | Fraction]


def antichain_reduce(vectors: Iterable[Vector]) -> Tuple[Vector, ...]:
    """Keep only the componentwise-minimal vectors, sorted for determinism.
    In lexicographic order every vector below v comes before v, and so does
    a minimal one below it, so v is compared only with the minima kept."""
    keep: List[Vector] = []
    for v in sorted(set(map(tuple, vectors))):
        if not any(all(map(le, w, v)) for w in keep):
            keep.append(v)
    return tuple(keep)


@dataclass(frozen=True)
class DownwardClosedSet:
    """Subset of Z_{>=0}^k closed under decreasing coordinates."""

    k: int
    obstructions: Tuple[Vector, ...]

    def __init__(self, k: int, obstructions: Iterable[Vector] = ()):
        obs = []
        for o in obstructions:
            o = tuple(int(x) for x in o)
            if len(o) != k or any(x < 0 for x in o):
                raise ValueError(f"bad obstruction {o} for dimension {k}")
            obs.append(o)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "obstructions", antichain_reduce(obs))

    @staticmethod
    def full(k: int) -> "DownwardClosedSet":
        return DownwardClosedSet(k, ())

    @staticmethod
    def empty(k: int) -> "DownwardClosedSet":
        return DownwardClosedSet(k, ((0,) * k,))

    def __contains__(self, beta: Sequence[int]) -> bool:
        return self.membership(beta)

    def membership(self, beta: Sequence[int]) -> bool:
        beta = tuple(beta)
        if len(beta) != self.k:
            raise ValueError("dimension mismatch")
        return not any(all(map(le, o, beta)) for o in self.obstructions)

    def is_empty(self) -> bool:
        return bool(self.obstructions) and self.obstructions[0] == (0,) * self.k

    def is_full(self) -> bool:
        return not self.obstructions

    def is_finite(self) -> bool:
        """Finite iff every coordinate is capped by a single-coordinate obstruction."""
        if self.is_empty():
            return True
        capped = set()
        for o in self.obstructions:
            support = [j for j, x in enumerate(o) if x > 0]
            if len(support) <= 1:
                capped.update(support if support else range(self.k))
        return self.k == 0 or capped == set(range(self.k))

    def level_runs(self, n: int) -> Iterator[Tuple[Vector, int, List[range]]]:
        """The members of total degree n as runs, one per prefix, for k >= 2.

        Compositions of n are built one coordinate at a time (stars and
        bars) over all coordinates but the last two, in lexicographic order.
        An obstruction stays live while it lies below the prefix; a live one
        zero past coordinate j is met by every completion once x_j reaches
        its entry there, so x_j stops, before its loop, at the least such
        entry.  A prefix leaving ``remaining`` is completed by the points
        (x, remaining - x); a live obstruction o meets exactly those with
        o[-2] <= x <= remaining - o[-1].  The obstructions are sorted once by
        o[-2], so these intervals come sorted by start and merge in one pass.
        Each prefix with a member is yielded once as (prefix, remaining,
        gaps), the gaps being the ascending, disjoint, non-empty ranges of x
        between the intervals.  The budget's deadline is checked at every
        node of the walk: each prefix and each shorter one.
        """
        if self.k < 2:
            raise ValueError("level runs need k >= 2")
        if n < 0 or self.is_empty():
            return
        # (obstruction, index of its last nonzero coordinate), sorted by o[-2]
        obs = [(o, max(j for j, x in enumerate(o) if x)) for o in sorted(self.obstructions, key=itemgetter(-2))]
        pair = self.k - 2

        def gaps(cut: list, x: int, r: int) -> List[range]:
            # the gaps of a prefix ending in x_j = x and leaving r; cut holds
            # (o[j], o[-2], o[-2] + o[-1], o[-1]) per live o, in order of o[-2]
            tick()
            out, lo = [], 0
            for a, start, need, b in cut:
                if a <= x and need <= r:
                    if lo < start:
                        out.append(range(lo, start))
                    lo = r - b + 1 if lo <= r - b else lo
            if lo <= r:
                out.append(range(lo, r + 1))
            return out

        def rec(prefix: Vector, j: int, remaining: int, live: list):
            tick()
            cut = [(o[j], o[-2], o[-2] + o[-1], o[-1]) for o, _ in live] if j + 1 == pair else None
            for x in range(min([o[j] for o, last in live if last == j] + [remaining + 1])):
                if cut is None:
                    yield from rec(prefix + (x,), j + 1, remaining - x, [ol for ol in live if ol[0][j] <= x])
                elif run := gaps(cut, x, remaining - x):
                    yield prefix + (x,), remaining - x, run

        if pair:
            yield from rec((), 0, n, obs)
        elif run := gaps([(0, a, a + b, b) for (a, b), _ in obs], 0, n):
            yield (), n, run

    def enumerate_level(self, n: int) -> List[Vector]:
        """All members of total degree n, in lexicographic order: the
        expansion of ``level_runs`` for k >= 2."""
        if n < 0 or self.is_empty():
            return []
        if self.k == 0:
            return [()] if n == 0 else []
        if self.k == 1:
            return [(n,)] if all(n < o[0] for o in self.obstructions) else []
        return [
            prefix + (x, remaining - x)
            for prefix, remaining, gaps in self.level_runs(n)
            for gap in gaps
            for x in gap
        ]

    def to_json_dict(self) -> dict:
        return {"k": self.k, "obstructions": [list(o) for o in self.obstructions]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json(data) -> "DownwardClosedSet":
        if isinstance(data, str):
            data = json.loads(data)
        return DownwardClosedSet(int(data["k"]), [tuple(o) for o in data.get("obstructions", [])])

    def __repr__(self) -> str:
        return f"DownwardClosedSet(k={self.k}, obstructions={list(self.obstructions)})"


@dataclass(frozen=True)
class StanleyPiece:
    """The translated coordinate cone offset + Z_{>=0}^free."""

    offset: Vector
    free: FrozenSet[int]  # 0-based coordinate indices

    def contains(self, beta: Vector) -> bool:
        return all(
            beta[j] >= self.offset[j] if j in self.free else beta[j] == self.offset[j]
            for j in range(len(self.offset))
        )


def stanley_decompose(M: DownwardClosedSet) -> List[StanleyPiece]:
    """Disjoint cover of M by translated coordinate cones.

    Recursive coordinate splitting: pick the lowest free coordinate j with a
    positive entry in some live obstruction; freeze x_j = v for each v below
    the largest such entry, and when no obstruction is supported on j alone,
    emit the tail x_j >= max with j freed.  Deterministic; piece count is
    canonical but not necessarily minimal.
    """
    k = M.k

    def rec(offset: Vector, free: FrozenSet[int], obstructions: List[Vector]) -> List[StanleyPiece]:
        live: List[Vector] = []
        for o in obstructions:
            # an obstruction is unsatisfiable in this slice if it demands more
            # than the frozen value at a frozen coordinate
            if any(j not in free and o[j] > offset[j] for j in range(k)):
                continue
            live.append(o)
        proj = [tuple(o[j] if j in free else 0 for j in range(k)) for o in live]
        if any(all(x == 0 for x in p) for p in proj):
            return []  # some obstruction is fully satisfied: slice is empty
        if not proj:
            return [StanleyPiece(offset, free)]
        j = min(jj for jj in sorted(free) if any(p[jj] > 0 for p in proj))
        m = max(p[j] for p in proj)
        out: List[StanleyPiece] = []
        for v in range(m):
            new_offset = offset[:j] + (v,) + offset[j + 1 :]
            out.extend(rec(new_offset, free - {j}, live))
        if not any(p[j] > 0 and all(x == 0 for jj, x in enumerate(p) if jj != j) for p in proj):
            # tail x_j >= m: the j-entries of all obstructions are met, so
            # drop coordinate j from the constraints and free it at offset m
            tail_offset = offset[:j] + (m,) + offset[j + 1 :]
            tail_obs = [tuple(0 if jj == j else o[jj] for jj in range(k)) for o in live]
            for piece in rec(tail_offset, free - {j}, tail_obs):
                out.append(StanleyPiece(piece.offset, piece.free | {j}))
        return out

    if M.is_empty():
        return []
    return rec((0,) * k, frozenset(range(k)), list(M.obstructions))


@dataclass(frozen=True)
class WeightedLevelProblem:
    """Count vectors in a downward-closed feasible set at a weighted level.

    ``weights`` are positive integers; the level of y is sum_c weights[c]*y[c].
    """

    weights: Tuple[int, ...]
    feasible: DownwardClosedSet

    def __init__(self, weights: Sequence[int], feasible: DownwardClosedSet):
        weights = tuple(int(w) for w in weights)
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        if len(weights) != feasible.k:
            raise ValueError("dimension mismatch")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "feasible", feasible)

    @property
    def dimension(self) -> int:
        return len(self.weights)


_DENUMERANT_CACHE: Dict[Tuple[int, ...], List[int]] = {}


def _running_sums(weights: Sequence[int], seeds: Dict[int, int], size: int) -> List[int]:
    """The first ``size`` coefficients of sum seeds[i] * x^i / prod(1 - x^w)
    over the weights: one strided running sum per weight, |weights| * size
    additions.  Seeded {0: 1} this is the denumerant DP."""
    for w in weights:
        if not isinstance(w, int) or w < 1:
            raise ValueError(f"weight {w!r} is not a positive integer")
    series = [0] * size
    for i, c in seeds.items():
        series[i] = c
    for w in weights:
        for j in range(w, size):
            series[j] += series[j - w]
    return series


def denumerant(weights: Sequence[int], n: int) -> int:
    """Number of y >= 0 with sum weights[c]*y[c] = n, the weights positive
    integers; a cache lookup once the table for the sorted weights reaches n."""
    if n < 0:
        return 0
    key = tuple(sorted(weights))
    table = _DENUMERANT_CACHE.get(key)
    if table is None or len(table) <= n:
        size = max(n + 1, 2 * len(table) if table else 64)  # O(log n) rebuilds per sweep
        table = _running_sums(key, {0: 1}, size)
        _DENUMERANT_CACHE[key] = table
    return table[n]


def level_terms(problem: WeightedLevelProblem, shift: int = 0, coeff: int | Fraction = 1,
                terms: Optional[LevelTerms] = None) -> LevelTerms:
    """Add coeff times n -> (feasible y at level n - shift) to ``terms`` (a new
    dict when None), one term per Stanley piece: a piece with offset a and
    free coordinates F holds d_w(m - w.a) vectors at level m, w the weights on F."""
    terms = {} if terms is None else terms
    for piece in stanley_decompose(problem.feasible):
        base = shift + sum(problem.weights[j] * piece.offset[j] for j in range(problem.dimension))
        key = (tuple(sorted(problem.weights[j] for j in piece.free)), base)
        terms[key] = terms.get(key, 0) + coeff
    return terms


def evaluate_terms(terms: LevelTerms, n: int) -> int | Fraction:
    """The sum of c * d_w(n - b) over the terms."""
    return sum(c * denumerant(w, n - b) for (w, b), c in terms.items())


def terms_quasipolynomial(terms: LevelTerms, divisor: int = 1) -> FittedQuasipolynomial:
    """n -> evaluate_terms(terms, n) / divisor, built exact for every n >= onset.

    d_w(m) is, for m >= 0, a quasipolynomial of degree |w| - 1 whose period
    divides lcm(w); for empty w it is 1 at m = 0 and 0 after.  So over the
    nonzero terms: period lcm(all w), degree bound max |w| - 1, and onset
    the largest b, or b + 1 where w is empty.

    The terms of one weight tuple w are the series sum c * x^b / prod(1 - x^w):
    their coefficients c, scaled by the lcm of their denominators, are put at
    their b and the denumerant DP's running sums are run over them once.  So
    every value the builder interpolates is an integer, and the divisor times
    that lcm joins its one denominator.  This costs the sum over weight tuples
    of |w| * (onset + period * (degree + 1)) additions.
    """
    live = [(w, b, c) for (w, b), c in terms.items() if c]
    period = lcm(*(x for w, _, _ in live for x in w))
    degree = max([0] + [len(w) - 1 for w, _, _ in live])
    onset = max([0] + [b if w else b + 1 for w, b, _ in live])
    low = min([0] + [b for _, b, _ in live])  # the series start at x^low
    scale = lcm(*(c.denominator for _, _, c in live))
    size = onset + period * (degree + 1) - low
    seeds: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for w, b, c in live:
        seeds.setdefault(w, {})[b - low] = c.numerator * (scale // c.denominator)
    values = [0] * size
    for w, at in seeds.items():
        values = [v + x for v, x in zip(values, _running_sums(w, at, size))]
    return build_quasipolynomial(values[-low:].__getitem__, period, degree, onset, divisor * scale)


def count_level(problem: WeightedLevelProblem, n: int) -> int:
    """Exact number of feasible y at weighted level n, via Stanley pieces."""
    return evaluate_terms(level_terms(problem), n)


def cycle_contract(M: DownwardClosedSet, g: Permutation) -> WeightedLevelProblem:
    """Restrict M to the g-fixed vectors, contracted along the cycles of g.

    Fixed vectors are constant on cycles; the contraction sends a fixed beta
    to y with y_c the common value on cycle c.  Membership transfers with
    obstruction o mapped to max over each cycle, and degree |beta| becomes
    the weighted level sum of cycle lengths times y.
    """
    if g.degree != M.k:
        raise ValueError("permutation degree must match dimension")
    cycles = g.cycles(include_fixed=True)
    weights = [len(c) for c in cycles]
    contracted = [tuple(max(o[j - 1] for j in c) for c in cycles) for o in M.obstructions]
    return WeightedLevelProblem(weights, DownwardClosedSet(len(cycles), contracted))


def contract_vector(beta: Vector, g: Permutation) -> Optional[Vector]:
    """Image of a g-fixed vector under cycle contraction; None if not fixed."""
    cycles = g.cycles(include_fixed=True)
    out = []
    for c in cycles:
        vals = {beta[j - 1] for j in c}
        if len(vals) != 1:
            return None
        out.append(vals.pop())
    return tuple(out)


def expand_vector(y: Vector, g: Permutation) -> Vector:
    """Inverse of contract_vector on fixed vectors."""
    cycles = g.cycles(include_fixed=True)
    beta = [0] * g.degree
    for value, c in zip(y, cycles):
        for j in c:
            beta[j - 1] = value
    return tuple(beta)


def fixed_count_level(M: DownwardClosedSet, g: Permutation, n: int) -> int:
    """|{beta in M at degree n with g.beta = beta}| via cycle contraction."""
    return count_level(cycle_contract(M, g), n)


def level_quasipolynomial(M: DownwardClosedSet, g: Permutation) -> FittedQuasipolynomial:
    """Quasipolynomial n -> |M_n^g|, built exact for every n >= onset from
    the level terms of the cycle contraction."""
    return terms_quasipolynomial(level_terms(cycle_contract(M, g)))

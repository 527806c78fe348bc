"""Pre-component functors: maximal classes of a compatible quasi-order over a
disjoint union of model functors.

Items are tagged pairs (b, pair) with b the 1-based functor index.  The
quasi-order must satisfy the three compatibility properties (checked
exhaustively at small n): comparability respects the functor order, its
restriction to one functor is that functor's equivalence, and it is
preserved by pull-backs covering both concealed images.  Orbits of maximal
classes are counted from one seed class per block of (functor index, count
vector), as the direct count of a model functor is (``seed_blocks``).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import permutations
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..actions import NotAnAction, require, tick
from ..lattice import DownwardClosedSet
from ..quasipoly import FittedQuasipolynomial, fit
from .model import MFPair, ModelFunctorPresentation, Vector, apply_injection, seed_blocks, trivial_presentation

Item = Tuple[int, MFPair]
PrecOrder = Callable[[int, Item, Item], bool]

ITEM_BUDGET = 200000


@dataclass(frozen=True)
class PreComponentPresentation:
    """An ordered list of model functor presentations plus a quasi-order oracle."""

    name: str
    functors: Tuple[ModelFunctorPresentation, ...]
    preceq: PrecOrder = field(compare=False)

    @staticmethod
    def from_single(pres: ModelFunctorPresentation) -> "PreComponentPresentation":
        def preceq(n: int, x: Item, y: Item) -> bool:
            return pres.eq(n, x[1], y[1])

        return PreComponentPresentation(f"single[{pres.name}]", (pres,), preceq)

    def counted_items(self, n: int) -> List[Tuple[Item, Tuple[int, Vector]]]:
        """The items functor by functor, each with its (functor index, count
        vector), from each functor's ``counted_pairs``."""
        return [
            ((b, pair), (b, beta))
            for b, pres in enumerate(self.functors, start=1)
            for pair, beta in pres.counted_pairs(n)
        ]

    def items(self, n: int) -> List[Item]:
        return [item for item, _ in self.counted_items(n)]

    def item_count(self, n: int) -> int:
        return sum(pres.pair_count(n) for pres in self.functors)


def verify_compatibility(pc: PreComponentPresentation, n_max: int, max_failures: int = 1) -> "CompatibilityReport":
    """Exhaustive check of the quasi-order axioms and the three compatibility
    properties on all ground sets up to n_max."""
    failures: List[dict] = []

    def record(prop: str, **info) -> bool:
        failures.append({"property": prop, **info})
        return len(failures) >= max_failures

    for n in range(n_max + 1):
        items = pc.items(n)
        rel: Dict[Tuple[Item, Item], bool] = {}
        for x in items:
            for y in items:
                rel[(x, y)] = pc.preceq(n, x, y)
        for x in items:
            if not rel[(x, x)]:
                if record("reflexive", n=n, witness=(x,)):
                    return CompatibilityReport(False, failures)
        for x in items:
            for y in items:
                if not rel[(x, y)]:
                    continue
                if x[0] > y[0]:
                    if record("compat1", n=n, witness=(x, y)):
                        return CompatibilityReport(False, failures)
                for z in items:
                    if rel[(y, z)] and not rel[(x, z)]:
                        if record("transitive", n=n, witness=(x, y, z)):
                            return CompatibilityReport(False, failures)
        for b, pres in enumerate(pc.functors, start=1):
            pairs = [pair for c, pair in items if c == b]
            for pair_a in pairs:
                for pair_b in pairs:
                    same = rel[((b, pair_a), (b, pair_b))]
                    if same != pres.eq(n, pair_a, pair_b):
                        if record("compat2", n=n, witness=(b, pair_a, pair_b)):
                            return CompatibilityReport(False, failures)
        for s in range(n + 1):
            for images in permutations(range(1, n + 1), s):
                im_set = set(images)
                for x in items:
                    for y in items:
                        if not rel[(x, y)]:
                            continue
                        if not (set(x[1].sigma) | set(y[1].sigma)) <= im_set:
                            continue
                        fx = apply_injection(x[1], images, n)
                        fy = apply_injection(y[1], images, n)
                        if not pc.preceq(s, (x[0], fx), (y[0], fy)):
                            if record("compat3", n=n, s=s, injection=images, witness=(x, y)):
                                return CompatibilityReport(False, failures)
    return CompatibilityReport(not failures, failures)


@dataclass
class CompatibilityReport:
    passed: bool
    failures: List[dict]

    def first_witness(self) -> Optional[dict]:
        return self.failures[0] if self.failures else None


def precomp_count(pc: PreComponentPresentation, n: int) -> int:
    """Number of Sym([n])-orbits on the maximal classes of the quasi-order.

    The orbits of classes come from ``seed_blocks``, one seed per block of
    (functor index, count vector).  A class lies inside one functor
    (compatibility (1)) and is one of that functor's equivalence classes
    (compatibility (2)), so the functor index with the functor's shadow key
    buckets the items, and mutual comparability is the class test.  The
    same two properties decide domination: x <= y forces b_x <= b_y, and
    inside one functor the order is that functor's equivalence, so a class
    is maximal when its seed is below no item of a later functor.  Sym
    permutes the maximal classes among themselves, so a block whose witness
    gets another verdict than its seed raises NotAnAction."""
    require(pc.item_count(n), ITEM_BUDGET, f"items on [{n}]")
    counted = pc.counted_items(n)
    items = [item for item, _ in counted]
    functors = pc.functors
    blocks = seed_blocks(
        counted,
        lambda gamma: (gamma[0], functors[gamma[0] - 1].shadow_key(gamma[1])),
        lambda x, y: pc.preceq(n, x, y) and pc.preceq(n, y, x),
    )

    def maximal(x: Item) -> bool:
        # items come functor by functor
        tick()
        later = items[bisect_right(items, x[0], key=itemgetter(0)):]
        return not any(pc.preceq(n, x, y) for y in later)

    count = 0
    for seed, witness in blocks:
        verdict = maximal(seed)
        if witness is not None and maximal(witness) != verdict:
            raise NotAnAction("symmetry moved a maximal class to a non-maximal one")
        count += verdict
    return count


def precomp_quasipolynomial(
    pc: PreComponentPresentation,
    n_max: int,
    max_period: int = 6,
    max_degree: int = 4,
) -> FittedQuasipolynomial:
    """Fit the counting quasipolynomial over the direct-enumeration window.

    Raises quasipoly.NoFit when the window is too small or the counts are
    not eventually quasipolynomial; the caller decides how to surface it.
    """
    seq = {n: precomp_count(pc, n) for n in range(n_max + 1)}
    return fit(seq, max_period=max_period, max_degree=max_degree)


# ---------------------------------------------------------------------------
# builtin pre-component presentations
# ---------------------------------------------------------------------------


def planes_precomponent() -> PreComponentPresentation:
    """The coordinate-plane family: an ambient cell (alive only on tiny
    ground sets) dominated by the two-concealed-coordinate cells.

    The maximal classes number one for every n: the ambient class below
    three coordinates, the single Sym-orbit of coordinate pairs beyond.
    """
    ambient = trivial_presentation(1, s0=0, countset=DownwardClosedSet(1, [(3,)]))

    def pair_eq(n: int, a: MFPair, b: MFPair) -> bool:
        return set(a.sigma) == set(b.sigma)

    pairs_functor = ModelFunctorPresentation(
        name="coordinate-pairs",
        s0=2,
        k=1,
        countset=DownwardClosedSet.full(1),
        eq=pair_eq,
        provenance="builtin",
        count_equivalents=lambda beta: frozenset({beta}),
    )

    def preceq(n: int, x: Item, y: Item) -> bool:
        bx, px = x
        by, py = y
        if bx == by == 1:
            return ambient.eq(n, px, py)
        if bx == by == 2:
            return pair_eq(n, px, py)
        return (bx, by) == (1, 2)

    return PreComponentPresentation("planes", (ambient, pairs_functor), preceq)


def broken_compatibility_presentation() -> PreComponentPresentation:
    """Negative control: comparabilities that run against the functor order."""
    base = planes_precomponent()

    def preceq(n: int, x: Item, y: Item) -> bool:
        if x[0] == 2 and y[0] == 1:
            return True  # violates compatibility (1)
        return base.preceq(n, x, y)

    return PreComponentPresentation("broken-compat", base.functors, preceq)

"""Model functor presentations: pairs (injection, word) modulo a black-box
equivalence oracle satisfying the three pull-back axioms.

A pair on ground set [n] is an injection sigma: [s0] -> [n] together with a
word alpha over [k] on the remaining positions, whose letter counts lie in a
downward-closed set.  Builtin presentations also expose the count-vector
shadow of their oracle (the set of count vectors realized within one
equivalence class), which powers the groupoid-based counting route.  The
direct count builds one seed class per Sym([n])-orbit and reads the orbit
off the count vectors its class realizes (``seed_blocks``); ``mf_classes``
still builds every class, as a reference.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations, permutations
from math import factorial, perm, prod
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

from ..actions import NotAnAction, UnionFind, require, tick
from ..lattice import DownwardClosedSet
from .elementary import ElementaryModelFunctor

Vector = Tuple[int, ...]
T = TypeVar("T")
V = TypeVar("V")
CLASS_BUDGET = 10**6
CHECK_BUDGET = 3000


@dataclass(frozen=True)
class MFPair:
    """A pair (sigma, alpha) on ground set [n].

    ``sigma`` lists the images of 1..s0 (distinct positions); ``alpha``
    lists the letters on the positions of [n] minus the sigma image, in
    increasing position order.
    """

    n: int
    sigma: Tuple[int, ...]
    alpha: Tuple[int, ...]

    def __post_init__(self):
        if len(set(self.sigma)) != len(self.sigma):
            raise ValueError("sigma is not injective")
        if any(not 1 <= p <= self.n for p in self.sigma):
            raise ValueError("sigma image out of range")
        if len(self.alpha) != self.n - len(self.sigma):
            raise ValueError("alpha length mismatch")

    @cached_property
    def letter_table(self) -> Tuple[Optional[int], ...]:
        """The letter at each position 0..n, None at 0 and on the sigma
        image; built once per pair and read by the oracles."""
        table: List[Optional[int]] = [None, *self.alpha]
        for p in sorted(self.sigma):
            table.insert(p, None)
        return tuple(table)

    @property
    def domain(self) -> Tuple[int, ...]:
        """Positions where alpha is defined, ascending."""
        return tuple(p for p, letter in enumerate(self.letter_table) if letter is not None)

    def letters(self) -> Dict[int, int]:
        return {p: letter for p, letter in enumerate(self.letter_table) if letter is not None}

    def letter_at(self, pos: int) -> Optional[int]:
        return self.letter_table[pos]

    def count_vector(self, k: int) -> Vector:
        counts = [0] * k
        for c in self.alpha:
            counts[c - 1] += 1
        return tuple(counts)


def apply_injection(pair: MFPair, images: Sequence[int], n_target: int) -> Optional[MFPair]:
    """The contravariant map F(pi) for the injection pi: [m] -> [n_target].

    ``images`` lists (pi(1), ..., pi(m)); the result lives on [m].  Returns
    None when the sigma image is not inside the image of pi.
    """
    if pair.n != n_target:
        raise ValueError("pair ground set does not match the injection target")
    preimage = {p: j for j, p in enumerate(images, start=1)}
    sigma_new = []
    for p in pair.sigma:
        j = preimage.get(p)
        if j is None:
            return None
        sigma_new.append(j)
    # pi covers the sigma image, so the positions of [m] without a letter
    # are exactly sigma_new
    table = pair.letter_table
    alpha_new = tuple(letter for p in images if (letter := table[p]) is not None)
    return MFPair(len(images), tuple(sigma_new), alpha_new)


def apply_permutation(pair: MFPair, images: Sequence[int]) -> MFPair:
    """F(pi) for a permutation of the ground set (always defined)."""
    out = apply_injection(pair, images, pair.n)
    assert out is not None
    return out


def transposed(pair: MFPair, i: int, j: int) -> MFPair:
    """F((i j)) applied to the pair: positions i and j trade their letters
    and their places in the sigma image."""
    table = list(pair.letter_table)
    table[i], table[j] = table[j], table[i]
    swap = {i: j, j: i}
    sigma = tuple(swap.get(p, p) for p in pair.sigma)
    return MFPair(pair.n, sigma, tuple(x for x in table if x is not None))


EqOracle = Callable[[int, MFPair, MFPair], bool]
CountEquivalents = Callable[[Vector], FrozenSet[Vector]]


@dataclass(frozen=True)
class ModelFunctorPresentation:
    """(s0, k, countset, equivalence oracle) with optional count-vector shadow.

    ``eq(n, pair1, pair2)`` decides equivalence of pairs on [n]; it must be
    an equivalence relation satisfying the pull-back axioms (checked
    exhaustively at small n by verify_axioms).  ``count_equivalents`` maps
    the count vector of a pair's word to the set of count vectors realized
    across that pair's equivalence class; builtin presentations supply it,
    user presentations may not.  The shadow is the same set from every
    vector in it, and ``shadow_key`` and the stratified count's tail rely
    on that.
    """

    name: str
    s0: int
    k: int
    countset: DownwardClosedSet
    eq: EqOracle = field(compare=False)
    provenance: str = "user"
    count_equivalents: Optional[CountEquivalents] = field(default=None, compare=False)

    def words(self, length: int) -> Iterable[Tuple[int, ...]]:
        """All words of the given length whose count vector is in the count set."""
        if self.countset.is_empty():
            return
        counts = [0] * self.k

        def admissible(letter: int) -> bool:
            counts[letter - 1] += 1
            ok = self.countset.membership(tuple(counts))
            counts[letter - 1] -= 1
            return ok

        def rec(prefix: List[int]):
            if len(prefix) == length:
                yield tuple(prefix)
                return
            for letter in range(1, self.k + 1):
                if admissible(letter):
                    counts[letter - 1] += 1
                    prefix.append(letter)
                    yield from rec(prefix)
                    prefix.pop()
                    counts[letter - 1] -= 1

        yield from rec([])

    def pairs(self, n: int) -> Iterable[MFPair]:
        """All of F([n])."""
        if n < self.s0:
            return
        word_list = list(self.words(n - self.s0))
        for sigma in permutations(range(1, n + 1), self.s0):
            for word in word_list:
                yield MFPair(n, sigma, word)

    def pair_count(self, n: int) -> int:
        """|F([n])| without listing a pair: the words of a count vector
        number its multinomial coefficient."""
        if n < self.s0:
            return 0
        length = n - self.s0
        words = sum(
            factorial(length) // prod(map(factorial, beta))
            for beta in self.countset.enumerate_level(length)
        )
        return words * perm(n, self.s0)

    def shadow_key(self, beta: Vector) -> object:
        """The least count vector of beta's shadow, 0 without a shadow:
        constant on every class."""
        if self.count_equivalents is None:
            return 0
        return min(self.count_equivalents(beta))


# ---------------------------------------------------------------------------
# classes and direct orbit counting
# ---------------------------------------------------------------------------


def bucketed(
    items: Iterable[T], vector: Callable[[T], V], key: Callable[[V], object]
) -> Dict[object, List[Tuple[T, V]]]:
    """The items with their count vectors, bucketed by ``key`` of the count
    vector, asked once per vector.  ``key`` must be constant on classes, so
    no class crosses two buckets."""
    keys: Dict[V, object] = {}
    buckets: Dict[object, List[Tuple[T, V]]] = {}
    for item in items:
        beta = vector(item)
        if beta not in keys:
            keys[beta] = key(beta)
        buckets.setdefault(keys[beta], []).append((item, beta))
    return buckets


def group_in_buckets(
    items: Iterable[T],
    vector: Callable[[T], V],
    key: Callable[[V], object],
    same: Callable[[T, T], bool],
) -> List[List[T]]:
    """The classes of the equivalence ``same`` on the items, each item
    grouped against the class representatives of its own bucket only.

    Buckets (``bucketed``) are visited in sorted key order, and within one
    the classes come in the order of their first member.  Grouping against
    representatives relies on ``same`` being transitive.
    """
    buckets = bucketed(items, vector, key)
    classes: List[List[T]] = []
    for bucket_key in sorted(buckets):
        bucket_classes: List[List[T]] = []
        for item, _ in buckets[bucket_key]:
            tick()
            for cls in bucket_classes:
                if same(item, cls[0]):
                    cls.append(item)
                    break
            else:
                bucket_classes.append([item])
        classes.extend(bucket_classes)
    return classes


def mf_classes(pres: ModelFunctorPresentation, n: int) -> List[List[MFPair]]:
    """The equivalence classes of F([n]) by oracle grouping.

    The bucketed grouping of ``group_in_buckets``, with the least count
    vector of the shadow (``shadow_key``) as the bucket.  Transitivity of
    the oracle is a presentation invariant (see check_equivalence).
    """
    require(pres.pair_count(n), CLASS_BUDGET, f"|F([{n}])|")
    k = pres.k
    return group_in_buckets(
        pres.pairs(n), lambda pair: pair.count_vector(k), pres.shadow_key, partial(pres.eq, n)
    )


def count_vector_blocks(classes: Iterable[Sequence[T]], key: Callable[[T], object]) -> Dict:
    """Each item's key mapped to its class's key set, from every class: the
    reference for ``seed_blocks``.  For an equivariant oracle two classes are
    translates exactly when their count-vector sets meet, and then the sets
    are equal: the orbits are the distinct sets.  Sets that meet but differ
    raise NotAnAction."""
    block_of: Dict = {}
    for cls in classes:
        tick()
        block = frozenset(map(key, cls))
        for item_key in block:
            if block_of.setdefault(item_key, block) != block:
                raise NotAnAction(f"eq is not Sym([n])-equivariant at the count vector {item_key}")
    return block_of


def seed_blocks(
    items: Iterable[T],
    vector: Callable[[T], V],
    key: Callable[[V], object],
    same: Callable[[T, T], bool],
) -> List[Tuple[T, Optional[T]]]:
    """One (seed, witness) per Sym([n])-orbit of the classes of ``same``.

    Sym([n]) is transitive on the items with one count vector, so the class
    of any one item fixes its orbit's block: the count vectors its members
    realize.  In each bucket (``bucketed``) the first item whose count
    vector beta has no block is a seed.  It is compared with every item of
    its bucket, one ``same`` call each, and the count vectors of its class,
    with their multiplicities ``met``, are the block.  The witness is the
    first item of count vector beta outside the seed's class, None when the
    class holds them all.

    By orbit-stabiliser every class of an orbit holds the same number of
    items of each count vector.  So NotAnAction, naming beta, is raised
    when the block meets an earlier one, when the bucket does not hold one
    multiple r of ``met`` for each count vector of the block, or when the
    witness's class meets other numbers: a check at one more bucket pass
    per block, without building every class.
    """
    def refuse(beta: V, why: str) -> NotAnAction:
        return NotAnAction(f"eq is not Sym([n])-equivariant at the count vector {beta}: {why}")

    blocks: List[Tuple[T, Optional[T]]] = []
    for bucket in bucketed(items, vector, key).values():
        sizes = Counter(beta for _, beta in bucket)
        blocked: Set[V] = set()

        def members(x: T) -> Set[int]:
            found = set()
            for i, (y, _) in enumerate(bucket):
                tick()
                if y is x or same(x, y):
                    found.add(i)
            return found

        for seed, beta in bucket:
            if beta in blocked:
                continue
            inside = members(seed)
            met = Counter(bucket[i][1] for i in inside)
            if not blocked.isdisjoint(met):
                raise refuse(beta, "its block meets another")
            r = sizes[beta] // met[beta]
            if any(sizes[gamma] != r * count for gamma, count in met.items()):
                raise refuse(beta, "its class does not divide the bucket evenly")
            witness = None
            if r > 1:
                witness = next(
                    y for i, (y, gamma) in enumerate(bucket) if gamma == beta and i not in inside
                )
                if Counter(bucket[i][1] for i in members(witness)) != met:
                    raise refuse(beta, "a translate of its class meets other count vectors")
            blocked.update(met)
            blocks.append((seed, witness))
    return blocks


def mf_orbit_count_direct(pres: ModelFunctorPresentation, n: int) -> int:
    """Number of Sym([n])-orbits on F([n]) / ~, one seed class per orbit
    (``seed_blocks``)."""
    require(pres.pair_count(n), CLASS_BUDGET, f"|F([{n}])|")
    k = pres.k
    return len(seed_blocks(
        pres.pairs(n), lambda pair: pair.count_vector(k), pres.shadow_key, partial(pres.eq, n)
    ))


def _equivalence_classes(
    pres: ModelFunctorPresentation, n: int
) -> Tuple[Optional[dict], List[List[MFPair]]]:
    """One pass of the oracle over all pairs of F([n]): the first witness
    that eq is not an equivalence relation (None when it is one), and the
    classes that the pairs a, b with eq(a, b), a listed before b, join.

    Classes come in the order of their first member.  The pass goes on
    after a failure, so the classes are the same either way.
    """
    require(pres.pair_count(n), CHECK_BUDGET, f"|F([{n}])|")
    pairs = list(pres.pairs(n))
    witness = next(
        ({"axiom": "reflexive", "witness": (p,)} for p in pairs if not pres.eq(n, p, p)), None
    )
    uf = UnionFind(range(len(pairs)))
    related = 0
    for i, a in enumerate(pairs):
        tick()
        for j in range(i + 1, len(pairs)):
            b = pairs[j]
            ab, ba = pres.eq(n, a, b), pres.eq(n, b, a)
            if ab != ba and witness is None:
                witness = {"axiom": "symmetric", "witness": (a, b)}
            if ab:
                related += 1
                uf.union(i, j)
    members: Dict[int, List[MFPair]] = {}
    for i, p in enumerate(pairs):
        members.setdefault(uf.find(i), []).append(p)
    classes = list(members.values())
    # eq is transitive iff it relates every two members of each class
    if witness is None and related != sum(len(c) * (len(c) - 1) // 2 for c in classes):
        witness = next((
            {"axiom": "transitive (closure disagrees)", "witness": (pairs[i], pairs[j])}
            for i, j in combinations(range(len(pairs)), 2)
            if uf.find(i) == uf.find(j) and not pres.eq(n, pairs[i], pairs[j])
        ), None)
    return witness, classes


def check_equivalence(pres: ModelFunctorPresentation, n: int) -> Optional[dict]:
    """Exhaustively check that eq is an equivalence relation on F([n]):
    None when it is, else the first witness against reflexivity, symmetry
    or agreement with its own transitive closure, in that order."""
    return _equivalence_classes(pres, n)[0]


@dataclass
class AxiomReport:
    passed: bool
    failures: List[dict]
    checked_n: List[int]

    def first_witness(self) -> Optional[dict]:
        return self.failures[0] if self.failures else None


def verify_axioms(pres: ModelFunctorPresentation, n_max: int, max_failures: int = 1) -> AxiomReport:
    """Exhaustively check the three model-functor axioms for all ground sets
    up to n_max and all injections between them; stops after max_failures.

    Axiom (2) is checked in its set form: the class of a pushed-down pair
    must equal the push-down of the class members whose concealed image
    fits inside the injection.
    """
    failures: List[dict] = []
    checked = []

    def record(axiom: str, **info) -> bool:
        failures.append({"axiom": axiom, **info})
        return len(failures) >= max_failures

    by_size = {}
    for t in range(n_max + 1):
        checked.append(t)
        witness, classes = _equivalence_classes(pres, t)
        if witness is not None:
            if record("equivalence:" + witness["axiom"], n=t, witness=witness["witness"]):
                return AxiomReport(False, failures, checked)
        by_size[t] = ({p: idx for idx, cls in enumerate(classes) for p in cls}, classes)

    for t in range(n_max + 1):
        members_t = by_size[t][1]
        # Axiom (3): equality patterns agree outside both sigma images
        for cls in members_t:
            for a, b in combinations(cls, 2):
                outside = [
                    p for p in range(1, t + 1) if p not in set(a.sigma) | set(b.sigma)
                ]
                la, lb = a.letter_table, b.letter_table
                for i, j in combinations(outside, 2):
                    if (la[i] == la[j]) != (lb[i] == lb[j]):
                        if record("axiom3", n=t, witness=(a, b, i, j)):
                            return AxiomReport(False, failures, checked)
        for s in range(t + 1):
            class_s, members_s = by_size[s]
            for images in permutations(range(1, t + 1), s):
                tick()
                im_set = set(images)
                # Axiom (1): pushed equivalent pairs stay equivalent
                for cls in members_t:
                    pushed_ids = set()
                    eligible = [a for a in cls if set(a.sigma) <= im_set]
                    for a in eligible:
                        pushed_ids.add(class_s[apply_injection(a, images, t)])
                    if len(pushed_ids) > 1:
                        if record("axiom1", n=t, s=s, injection=images, witness=tuple(eligible[:2])):
                            return AxiomReport(False, failures, checked)
                    # Axiom (2): everything equivalent to a push-down is a push-down
                    if eligible:
                        pushed = {apply_injection(a, images, t) for a in eligible}
                        target_class = members_s[next(iter(pushed_ids))]
                        missing = [p for p in target_class if p not in pushed]
                        if missing:
                            if record(
                                "axiom2", n=t, s=s, injection=images,
                                witness=(eligible[0], missing[0]),
                            ):
                                return AxiomReport(False, failures, checked)
    return AxiomReport(not failures, failures, checked)


# ---------------------------------------------------------------------------
# builtin presentations
# ---------------------------------------------------------------------------


def roots_of_unity(d: int) -> ModelFunctorPresentation:
    """The builtin presentation for components of x_i^d = x_j^d.

    s0 = 1, alphabet [d] identified with Z/dZ (letter d is the zero
    residue).  Two pairs are equivalent iff they present the same
    component: with concealed positions j0 != j0', the revealed letter at
    j0 must be minus the old letter at j0', and all shared letters shift by
    that amount.
    """

    def eq(n: int, p1: MFPair, p2: MFPair) -> bool:
        j0, j0p = p1.sigma[0], p2.sigma[0]
        if j0 == j0p:
            return p1.alpha == p2.alpha
        l1, l2 = p1.letter_table, p2.letter_table
        shift = l2[j0]
        if (l1[j0p] + shift) % d:
            return False
        for j in range(1, n + 1):
            if j != j0 and j != j0p and (l2[j] - l1[j] - shift) % d:
                return False
        return True

    # concealing a position with letter l shifts every residue by -l: new
    # letter m counts old letter m + l, so the counts rotate left by l; index
    # d - 1 counts the old l's, one of which is now concealed, and the
    # revealed position reads -l, index d - 1 - l.  Letter d moves nothing.
    def count_equivalents(beta: Vector) -> FrozenSet[Vector]:
        out = [beta]
        for l in range(1, d):
            if beta[l - 1]:
                rotated = [*beta[l:], *beta[:l]]
                rotated[-1] -= 1
                rotated[d - 1 - l] += 1
                out.append(tuple(rotated))
        return frozenset(out)

    return ModelFunctorPresentation(
        name=f"roots-of-unity-{d}",
        s0=1,
        k=d,
        countset=DownwardClosedSet.full(d),
        eq=eq,
        provenance="builtin",
        count_equivalents=count_equivalents,
    )


def elementary_embedding(emf: ElementaryModelFunctor) -> ModelFunctorPresentation:
    """An elementary model functor as a presentation with s0 = 0: classes are
    orbits of the letter group acting on words."""

    group = emf.group

    def eq(n: int, p1: MFPair, p2: MFPair) -> bool:
        return any(tuple(g(c) for c in p1.alpha) == p2.alpha for g in group)

    # beta read through g^-1: one getter of 0-based source indices per group
    # element.  With k < 2 the group is trivial, and an itemgetter of one
    # index would give a scalar, not a 1-tuple.
    readers = (
        [itemgetter(*(g.inverse()(m) - 1 for m in range(1, emf.k + 1))) for g in group]
        if emf.k >= 2
        else [tuple]
    )

    def count_equivalents(beta: Vector) -> FrozenSet[Vector]:
        return frozenset(read(beta) for read in readers)

    return ModelFunctorPresentation(
        name=f"elementary-k{emf.k}",
        s0=0,
        k=emf.k,
        countset=emf.countset,
        eq=eq,
        provenance="builtin",
        count_equivalents=count_equivalents,
    )


def trivial_presentation(k: int, s0: int = 0, countset: Optional[DownwardClosedSet] = None) -> ModelFunctorPresentation:
    """Equivalence is equality; the finest possible oracle."""
    return ModelFunctorPresentation(
        name=f"trivial-k{k}-s{s0}",
        s0=s0,
        k=k,
        countset=DownwardClosedSet.full(k) if countset is None else countset,
        eq=lambda n, a, b: a == b,
        provenance="builtin",
        count_equivalents=lambda beta: frozenset({beta}),
    )


def broken_symmetry_presentation(d: int) -> ModelFunctorPresentation:
    """Negative control: the roots-of-unity oracle with symmetry destroyed."""
    base = roots_of_unity(d)

    def eq(n: int, p1: MFPair, p2: MFPair) -> bool:
        if p1 == p2:
            return True
        return base.eq(n, p1, p2) and p1.sigma[0] <= p2.sigma[0]

    return ModelFunctorPresentation(
        name=f"broken-symmetry-{d}",
        s0=1,
        k=d,
        countset=DownwardClosedSet.full(d),
        eq=eq,
        provenance="builtin",
        count_equivalents=base.count_equivalents,
    )


def broken_axiom3_presentation() -> ModelFunctorPresentation:
    """Negative control: a genuine equivalence relation (equal sorted count
    vectors) that violates the equality-pattern axiom."""

    def eq(n: int, p1: MFPair, p2: MFPair) -> bool:
        return tuple(sorted(p1.count_vector(2))) == tuple(sorted(p2.count_vector(2)))

    def count_equivalents(beta: Vector) -> FrozenSet[Vector]:
        return frozenset({beta, (beta[1], beta[0])})

    return ModelFunctorPresentation(
        name="broken-axiom3",
        s0=0,
        k=2,
        countset=DownwardClosedSet.full(2),
        eq=eq,
        provenance="builtin",
        count_equivalents=count_equivalents,
    )

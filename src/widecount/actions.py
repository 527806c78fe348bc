"""Permutations, small permutation groups, finite groupoids, and orbit counting.

Orbit counts use the Cauchy-Frobenius lemma (for groups) and its groupoid
generalization: orbits = sum over objects p of 1/|G(p)| * sum over loops
g at p of |X_p^g|.  A union-find enumeration is provided as the
independent oracle for both.
"""
from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

MAX_GROUP_ORDER = 10**6
MAX_CANONICAL_OPS = 10**7


class NotAnAction(Exception):
    """The supplied maps violate an action axiom; message carries the witness."""


class TooLarge(Exception):
    """The configured enumeration budget would be exceeded."""


# The active budget: (state cap, deadline on time.monotonic()), None where
# unset.  Every size guard reads it through require, every long loop
# checks it through tick.
_BUDGET: ContextVar[Tuple[Optional[int], Optional[float]]] = ContextVar("budget", default=(None, None))


def _tighter(a, b):
    """The smaller of two limits, where None is no limit."""
    return b if a is None else a if b is None else min(a, b)


@contextmanager
def budget(max_states: Optional[int] = None, seconds: Optional[float] = None):
    """Within the block, no enumeration may exceed max_states states and
    every long loop stops once ``seconds`` have passed, both by raising
    TooLarge.  A budget only tightens: it never raises a route's own cap,
    and a nested budget never loosens the one around it."""
    cap, deadline = _BUDGET.get()
    end = None if seconds is None else time.monotonic() + seconds
    token = _BUDGET.set((_tighter(cap, max_states), _tighter(deadline, end)))
    try:
        yield
    finally:
        _BUDGET.reset(token)


def require(amount: int, cap: Optional[int], what: str) -> None:
    """Raise TooLarge when ``amount`` states exceed the smaller of the
    route's own cap (None: it has none) and the budget's cap."""
    cap = _tighter(cap, _BUDGET.get()[0])
    if cap is not None and amount > cap:
        raise TooLarge(f"{what}: {amount} exceeds the budget {cap}")


def tick() -> None:
    """Raise TooLarge once the budget's deadline has passed."""
    deadline = _BUDGET.get()[1]
    if deadline is not None and time.monotonic() >= deadline:
        raise TooLarge("time limit reached")


def cycles(step: Callable[[Hashable], Hashable], points: Iterable[Hashable]) -> List[List[Hashable]]:
    """The cycles of the bijection ``step`` through ``points``, each cycle
    starting at its first point in the given order."""
    seen = set()
    out = []
    for start in points:
        if start in seen:
            continue
        cycle = [start]
        cur = step(start)
        while cur != start:
            cycle.append(cur)
            cur = step(cur)
        seen.update(cycle)
        out.append(cycle)
    return out


def closure(generators: Sequence[Tuple[int, ...]], identity: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """The group the value tables ``generators`` generate, each element once
    in the order found: ``identity`` first, then every element found is
    composed with each generator, table[g[i]], in turn."""
    elements = [identity]
    seen = {identity}
    for table in elements:  # grows while it is walked
        tick()
        for g in generators:
            image = tuple([table[i] for i in g])
            if image not in seen:
                seen.add(image)
                elements.append(image)
                require(len(elements), MAX_GROUP_ORDER, "group order")
    return elements


@dataclass(frozen=True)
class Permutation:
    """A permutation of [k] = {1, ..., k}, stored as its image table."""

    images: Tuple[int, ...]

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a bijection of [{len(imgs)}]: {imgs}")
        object.__setattr__(self, "images", imgs)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def cycles(self, include_fixed: bool = True) -> List[Tuple[int, ...]]:
        """Cycle decomposition, each cycle starting at its least element."""
        return [tuple(c) for c in cycles(self, range(1, self.degree + 1)) if include_fixed or len(c) > 1]

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(1, degree + 1)))

    @staticmethod
    def from_cycles(text: str, degree: int) -> "Permutation":
        """Parse cycle notation like "(1 2)(3 4 5)"; fixed points omitted."""
        images = list(range(1, degree + 1))
        body = text.strip()
        if body in ("", "()", "e", "id"):
            return Permutation(tuple(images))
        if not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", body):
            raise ValueError(f"bad cycle notation: {text!r}")
        for grp in re.findall(r"\(([^()]*)\)", body):
            entries = [int(tok) for tok in re.split(r"[\s,]+", grp.strip()) if tok]
            if len(set(entries)) != len(entries):
                raise ValueError(f"repeated point in cycle: {grp!r}")
            if any(not 1 <= e <= degree for e in entries):
                raise ValueError(f"point out of range 1..{degree}: {grp!r}")
            for a, b in zip(entries, entries[1:] + entries[:1]):
                images[a - 1] = b
        return Permutation(tuple(images))

    def cycle_string(self) -> str:
        nontrivial = self.cycles(include_fixed=False)
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


class PermGroup:
    """A permutation group on [k], materialized eagerly from its generators."""

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        gens = [g for g in generators]
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators: Tuple[Permutation, ...] = tuple(gens)
        tables = closure([(0, *g.images) for g in gens], tuple(range(degree + 1)))
        self.elements: Tuple[Permutation, ...] = tuple(Permutation(t[1:]) for t in sorted(tables))
        self.order = len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in set(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and set(self.elements) == set(other.elements)
        )

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self.elements)))

    def is_symmetric(self) -> bool:
        order = 1
        for i in range(2, self.degree + 1):
            order *= i
        return self.order == order

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup(degree, [])

    @staticmethod
    def symmetric(degree: int) -> "PermGroup":
        if degree <= 1:
            return PermGroup.trivial(degree)
        gens = [Permutation.from_cycles("(1 2)", degree)]
        if degree > 2:
            gens.append(Permutation(tuple(list(range(2, degree + 1)) + [1])))
        return PermGroup(degree, gens)

    @staticmethod
    def cyclic(degree: int) -> "PermGroup":
        if degree <= 1:
            return PermGroup.trivial(degree)
        return PermGroup(degree, [Permutation(tuple(list(range(2, degree + 1)) + [1]))])

    @staticmethod
    def from_cycle_strings(degree: int, texts: Iterable[str]) -> "PermGroup":
        return PermGroup(degree, [Permutation.from_cycles(t, degree) for t in texts])

    @staticmethod
    def from_json(data) -> "PermGroup":
        """Accepts {"degree": k, "generators": ["(1 2)", ...]} or a JSON string."""
        if isinstance(data, str):
            data = json.loads(data)
        return PermGroup.from_cycle_strings(int(data["degree"]), data.get("generators", []))

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"


class UnionFind:
    def __init__(self, items: Iterable[Hashable]):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        """Merge the blocks of x and y; True iff they were different."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True

    def blocks(self) -> List[FrozenSet]:
        grouped: Dict[Hashable, set] = {}
        for x in self.parent:
            grouped.setdefault(self.find(x), set()).add(x)
        return [frozenset(b) for b in grouped.values()]


def _check_group_action(group: PermGroup, universe: Sequence, act) -> None:
    """Validate generator bijectivity and the inverse relation on all of X."""
    uni = set(universe)
    for g in group.generators:
        image = set()
        for x in universe:
            y = act(g, x)
            if y not in uni:
                raise NotAnAction(f"generator {g.cycle_string()} maps {x!r} outside X")
            image.add(y)
        if len(image) != len(uni):
            raise NotAnAction(f"generator {g.cycle_string()} is not a bijection of X")
        ginv = g.inverse()
        for x in universe:
            if act(ginv, act(g, x)) != x:
                raise NotAnAction(
                    f"g^-1(g(x)) != x for g={g.cycle_string()}, x={x!r}"
                )


def group_orbit_count(group: PermGroup, universe: Sequence, act) -> int:
    """Number of orbits of a group action, by the Cauchy-Frobenius lemma.

    ``act(g, x)`` must implement a left action; validity is checked on the
    generators (bijectivity plus the inverse relation) over all of X.
    """
    universe = list(universe)
    if not universe:
        return 0
    _check_group_action(group, universe, act)
    total = 0
    for g in group:
        total += sum(1 for x in universe if act(g, x) == x)
    if total % group.order:
        raise NotAnAction("Burnside sum is not an integer; not a valid action")
    return total // group.order


def group_orbits_enumerate(group: PermGroup, universe: Sequence, act) -> List[FrozenSet]:
    universe = list(universe)
    uf = UnionFind(universe)
    gens = group.generators or (Permutation.identity(group.degree),)
    for g in gens:
        for x in universe:
            uf.union(x, act(g, x))
    return uf.blocks()


@dataclass(frozen=True)
class Arrow:
    """A groupoid arrow src -> dst carrying an opaque label."""

    src: Hashable
    dst: Hashable
    label: Hashable


class Groupoid:
    """A finite groupoid: objects, labeled arrows, and an explicit composition table.

    ``compose[(g, h)]`` is h o g for composable g: p->q, h: q->r.  The
    constructor checks every axiom exhaustively: totality of composition on
    composable pairs, associativity, identities, and two-sided inverses.
    """

    def __init__(
        self,
        objects: Iterable[Hashable],
        arrows: Iterable[Arrow],
        compose: Mapping[Tuple[Arrow, Arrow], Arrow],
        identities: Mapping[Hashable, Arrow],
    ):
        self.objects: Tuple[Hashable, ...] = tuple(objects)
        self.arrows: Tuple[Arrow, ...] = tuple(arrows)
        self._compose = dict(compose)
        self.identities = dict(identities)
        self._hom: Dict[Tuple[Hashable, Hashable], List[Arrow]] = {}
        for a in self.arrows:
            self._hom.setdefault((a.src, a.dst), []).append(a)
        self._validate()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_compose_fn(
        objects: Iterable[Hashable],
        arrows: Iterable[Arrow],
        compose_fn: Callable[[Arrow, Arrow], Arrow],
        identity_label: Callable[[Hashable], Hashable],
    ) -> "Groupoid":
        objects = tuple(objects)
        arrows = tuple(arrows)
        table = {}
        for g in arrows:
            for h in arrows:
                if g.dst == h.src:
                    table[(g, h)] = compose_fn(g, h)
        identities = {p: Arrow(p, p, identity_label(p)) for p in objects}
        return Groupoid(objects, arrows, table, identities)

    @staticmethod
    def from_group(group: PermGroup, obj: Hashable = 0) -> "Groupoid":
        arrows = [Arrow(obj, obj, g) for g in group]
        table = {
            (Arrow(obj, obj, g), Arrow(obj, obj, h)): Arrow(obj, obj, h * g)
            for g in group
            for h in group
        }
        return Groupoid(
            (obj,), arrows, table, {obj: Arrow(obj, obj, Permutation.identity(group.degree))}
        )

    # -- axioms ---------------------------------------------------------------

    def _validate(self) -> None:
        arrow_set = set(self.arrows)
        objset = set(self.objects)
        for a in self.arrows:
            if a.src not in objset or a.dst not in objset:
                raise NotAnAction(f"arrow {a} touches unknown object")
        for p, ident in self.identities.items():
            if ident not in arrow_set or ident.src != p or ident.dst != p:
                raise NotAnAction(f"missing or malformed identity at {p!r}")
        for g in self.arrows:
            for h in self.arrows:
                if g.dst == h.src:
                    comp = self._compose.get((g, h))
                    if comp is None:
                        raise NotAnAction(f"composition undefined for {g}, {h}")
                    if comp not in arrow_set or comp.src != g.src or comp.dst != h.dst:
                        raise NotAnAction(f"bad composite of {g}, {h}")
        for g in self.arrows:
            for h in self.arrows:
                if g.dst != h.src:
                    continue
                gh = self._compose[(g, h)]
                for k in self.arrows:
                    if h.dst != k.src:
                        continue
                    if self._compose[(gh, k)] != self._compose[(g, self._compose[(h, k)])]:
                        raise NotAnAction(f"associativity fails at {g}, {h}, {k}")
        for g in self.arrows:
            if self._compose[(self.identities[g.src], g)] != g:
                raise NotAnAction(f"left identity fails at {g}")
            if self._compose[(g, self.identities[g.dst])] != g:
                raise NotAnAction(f"right identity fails at {g}")
            if self.inverse(g) is None:
                raise NotAnAction(f"no two-sided inverse for {g}")

    # -- queries --------------------------------------------------------------

    def hom(self, p: Hashable, q: Hashable) -> Tuple[Arrow, ...]:
        return tuple(self._hom.get((p, q), ()))

    def loops(self, p: Hashable) -> Tuple[Arrow, ...]:
        return self.hom(p, p)

    def arrows_from(self, p: Hashable) -> List[Arrow]:
        return [a for a in self.arrows if a.src == p]

    def out_degree(self, p: Hashable) -> int:
        """|G(p)| = total number of arrows with source p."""
        return len(self.arrows_from(p))

    def compose(self, g: Arrow, h: Arrow) -> Arrow:
        """h o g for g: p->q, h: q->r."""
        return self._compose[(g, h)]

    def inverse(self, g: Arrow) -> Optional[Arrow]:
        for h in self.hom(g.dst, g.src):
            if (
                self._compose[(g, h)] == self.identities[g.src]
                and self._compose[(h, g)] == self.identities[g.dst]
            ):
                return h
        return None

    def __repr__(self) -> str:
        return f"Groupoid(|Q|={len(self.objects)}, |arrows|={len(self.arrows)})"


class GroupoidAction:
    """An action of a groupoid on a finite carrier via an anchor map.

    ``maps[arrow]`` is a dict sending X_src to X_dst.  Validity (identities,
    functoriality on all composable pairs, bijectivity) is checked
    exhaustively at construction; the data here is always finite.
    """

    def __init__(
        self,
        groupoid: Groupoid,
        carrier: Sequence[Hashable],
        anchor: Mapping[Hashable, Hashable],
        maps: Mapping[Arrow, Mapping[Hashable, Hashable]],
    ):
        self.groupoid = groupoid
        self.carrier = tuple(carrier)
        self.anchor = dict(anchor)
        self.maps = {a: dict(m) for a, m in maps.items()}
        self.fibers: Dict[Hashable, List[Hashable]] = {p: [] for p in groupoid.objects}
        for x in self.carrier:
            p = self.anchor.get(x)
            if p not in self.fibers:
                raise NotAnAction(f"anchor of {x!r} is not an object")
            self.fibers[p].append(x)
        self._validate()

    def _validate(self) -> None:
        g = self.groupoid
        for a in g.arrows:
            m = self.maps.get(a)
            if m is None:
                raise NotAnAction(f"no map supplied for arrow {a}")
            src, dst = self.fibers[a.src], self.fibers[a.dst]
            if set(m.keys()) != set(src):
                raise NotAnAction(f"map domain of {a} is not X_{a.src!r}")
            image = set()
            for x in src:
                y = m[x]
                if y not in set(dst):
                    raise NotAnAction(f"arrow {a} maps {x!r} outside X_{a.dst!r}")
                image.add(y)
            if len(image) != len(dst):
                raise NotAnAction(f"arrow {a}: X_{a.src!r} -> X_{a.dst!r} not bijective")
        for p in g.objects:
            ident = g.identities[p]
            for x in self.fibers[p]:
                if self.maps[ident][x] != x:
                    raise NotAnAction(f"identity at {p!r} moves {x!r}")
        for a in g.arrows:
            for b in g.arrows:
                if a.dst != b.src:
                    continue
                comp = g.compose(a, b)
                for x in self.fibers[a.src]:
                    if self.maps[comp][x] != self.maps[b][self.maps[a][x]]:
                        raise NotAnAction(
                            f"functoriality fails: ({b} o {a}) vs composite at {x!r}"
                        )


def groupoid_orbit_count(action: GroupoidAction) -> int:
    """Orbit count via the groupoid orbit-counting lemma (exact, integer)."""
    g = action.groupoid
    total = Fraction(0)
    for p in g.objects:
        weight = g.out_degree(p)
        if weight == 0:
            if action.fibers[p]:
                raise NotAnAction(f"object {p!r} has carrier but no arrows (not even identity)")
            continue
        fixed = 0
        for loop in g.loops(p):
            m = action.maps[loop]
            fixed += sum(1 for x in action.fibers[p] if m[x] == x)
        total += Fraction(fixed, weight)
    if total.denominator != 1:
        raise NotAnAction("orbit-count sum is not an integer; invalid action data")
    return int(total)


def groupoid_orbits_enumerate(action: GroupoidAction) -> List[FrozenSet]:
    """Orbit partition by union-find over all arrow applications (the oracle)."""
    if not action.carrier:
        return []
    uf = UnionFind(action.carrier)
    for arrow, m in action.maps.items():
        for x, y in m.items():
            uf.union(x, y)
    return uf.blocks()


def canonical_form(
    word: Sequence[int],
    position_group: Optional[PermGroup] = None,
    alphabet_group: Optional[PermGroup] = None,
) -> Tuple[int, ...]:
    """Lexicographic minimum of a word's orbit under positions x alphabet.

    Positions are permuted by ``position_group`` (degree = len(word)) and
    letters by ``alphabet_group``.  Two words have equal canonical forms
    iff they lie in the same orbit.  Full symmetric position groups are
    reduced to sorting; otherwise the orbit is searched exhaustively
    within MAX_CANONICAL_OPS elementary operations (TooLarge beyond).
    """
    word = tuple(word)
    n = len(word)
    if position_group is not None and position_group.degree != n:
        raise ValueError("position group degree must equal word length")
    alphabet_elems = list(alphabet_group) if alphabet_group is not None else [None]

    def relabel(w: Tuple[int, ...], g) -> Tuple[int, ...]:
        return w if g is None else tuple(g(c) for c in w)

    sort_positions = position_group is None or position_group.is_symmetric()
    if sort_positions:
        require(len(alphabet_elems) * n, MAX_CANONICAL_OPS, "canonical form operations")
        best = None
        for g in alphabet_elems:
            cand = tuple(sorted(relabel(word, g)))
            if best is None or cand < best:
                best = cand
        return best
    ops = position_group.order * len(alphabet_elems) * n
    require(ops, MAX_CANONICAL_OPS, "canonical form operations")
    best = None
    for g in alphabet_elems:
        w = relabel(word, g)
        for pi in position_group:
            cand = tuple(w[pi(i) - 1] for i in range(1, n + 1))
            if best is None or cand < best:
                best = cand
    return best

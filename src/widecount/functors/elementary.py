"""Elementary model functors: words over [k] with constrained letter counts, modulo
a subgroup of Sym([k]) acting on letters and Sym(positions).

Counting is the averaged fixed-vector count over the letter group, with each
fixed-vector count a weighted level count after cycle contraction; the brute
route enumerates words and dedups by canonical form.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import List

from ..actions import PermGroup, canonical_form, require, tick
from ..lattice import DownwardClosedSet, count_level, cycle_contract, level_terms, terms_quasipolynomial
from ..quasipoly import FittedQuasipolynomial

BRUTE_BUDGET = 10**7


@dataclass(frozen=True)
class ElementaryModelFunctor:
    """Alphabet size k, letter group G <= Sym([k]), and a G-stable count set."""

    k: int
    group: PermGroup
    countset: DownwardClosedSet

    def __init__(self, k: int, group: PermGroup, countset: DownwardClosedSet):
        if group.degree != k or countset.k != k:
            raise ValueError("alphabet size, group degree, and count set dimension must agree")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "countset", countset)
        self._require_g_stable()

    def _require_g_stable(self) -> None:
        # G permutes coordinates, so M is G-stable iff its obstruction
        # antichain is; additionally sweep the obstruction box for a direct
        # membership witness when it is not
        obs = set(self.countset.obstructions)
        for g in self.group.generators:
            permuted = {tuple(o[g(j) - 1] for j in range(1, self.k + 1)) for o in obs}
            if permuted != obs:
                box = [max(o[j] for o in self.countset.obstructions) for j in range(self.k)]
                witness = None
                for beta in product(*(range(b + 1) for b in box)):
                    gbeta = tuple(beta[g(j) - 1] for j in range(1, self.k + 1))
                    if self.countset.membership(beta) != self.countset.membership(gbeta):
                        witness = (beta, gbeta)
                        break
                raise ValueError(
                    f"count set is not G-stable under {g.cycle_string()}: witness {witness}"
                )


def elementary_count(emf: ElementaryModelFunctor, n: int) -> int:
    """Number of Sym(n)-orbits on E([n])/G, by averaged fixed-vector counts."""
    total = sum(count_level(cycle_contract(emf.countset, g), n) for g in emf.group)
    if total % emf.group.order:
        raise AssertionError("orbit count came out non-integer")
    return total // emf.group.order


def elementary_quasipolynomial(emf: ElementaryModelFunctor) -> FittedQuasipolynomial:
    """The counting quasipolynomial, exact for every n >= onset: the level terms
    of every g's fixed-vector count, added up and built once divided by |G|."""
    terms = {}
    for g in emf.group:
        level_terms(cycle_contract(emf.countset, g), terms=terms)
    return terms_quasipolynomial(terms, emf.group.order)


def elementary_brute(emf: ElementaryModelFunctor, n: int) -> int:
    """Oracle: enumerate words, filter by count vector, dedup by canonical form."""
    require(emf.k**n, BRUTE_BUDGET, f"{emf.k}^{n} words")
    seen = set()
    for word in product(range(1, emf.k + 1), repeat=n):
        tick()
        counts = [0] * emf.k
        for c in word:
            counts[c - 1] += 1
        if not emf.countset.membership(tuple(counts)):
            continue
        # position group None means the full symmetric group (sort fast path)
        seen.add(canonical_form(word, position_group=None, alphabet_group=emf.group))
    return len(seen)


def all_subgroups(k: int) -> List[PermGroup]:
    """Every subgroup of Sym(k), for tiny k (test support)."""
    full = PermGroup.symmetric(k)
    elements = list(full)
    found = {}
    # closure of every subset of elements is wasteful but fine for k <= 3;
    # use subsets of size <= 2 as generating sets (enough for k <= 4)
    for size in (0, 1, 2):
        for gens in combinations(elements, size):
            grp = PermGroup(k, list(gens))
            found[frozenset(grp.elements)] = grp
    return sorted(found.values(), key=lambda g: (g.order, [p.images for p in g.elements]))

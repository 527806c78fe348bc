"""Groupoid extraction from model-functor presentations and the stratified
orbit count it powers.

The stratification peels, from the presentation's count set, the region
where a maximal pumpable letter set occurs with high multiplicity.  Classes
in the peeled region with a fixed core size correspond to orbits of a
finite groupoid of quadruples acting on count vectors; their Sym-orbits are
counted by the groupoid orbit-counting lemma, a sum each stratum keeps as
level terms (shifted denumerants, see ``lattice``) built once and evaluated
at each n.  The complement is a sub-model functor with a strictly smaller
count set (Dickson recursion).  The strata form one chain per presentation,
each calibrated once for every n; a tail counts, with one shadow call per
class, one level of the count set the chain's prefix occupied at n leaves.

Everything the oracle contributes is probed through targeted equivalence
queries on canonical seed pairs; the count-vector shadow of builtin oracles
drives the tail and one walk of each stratum's cone, which builds both its
peel and its objects' calibrated up-sets.  A stratum is certified by a
self-check: at the levels around its first occupied one, its count equals
the classes its peel removes, counted with one shadow call per class as the
tail counts.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, perm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..actions import Arrow, Groupoid, GroupoidAction, Permutation, TooLarge, require, tick
from ..lattice import (
    DownwardClosedSet, LevelTerms, antichain_reduce, cycle_contract, evaluate_terms, level_terms
)
# count_level is not called here; the benchmark's traced run wraps it at this module
from ..lattice import count_level  # noqa: F401
from .model import MFPair, ModelFunctorPresentation, apply_permutation, transposed

Vector = Tuple[int, ...]

# the largest threshold a stratum's calibration doubles to before Unstable
MAX_T = 64
# the largest seed ground set and the most quadruples of one core size
MAX_GROUND = 4000
MAX_QUADRUPLES = 40000


class NotCalibrated(Exception):
    """The pair's count vector is outside the calibrated region."""


class Unstable(Exception):
    """A stratum cannot be certified at this threshold t: its peel leaves a
    hole, does not shrink the count set or would split a class, a shadow
    moves an entry by more than one, an up-set minimum is missing, past the
    cone walk or not seen by the oracle, its Burnside sum is not an integer,
    its count differs from the classes its peel removes at a self-check
    level, or the strata do not end.  A failed peel or self-check first
    doubles t, once per stratum and for every n; it is raised past MAX_T,
    and again at every later count, with nothing rebuilt."""


@dataclass(frozen=True)
class CalibrationFrame:
    """The stratum data derived from a count set: maximal pumpable letter set
    I, the pinned infrequent profile v0, and the infrequent budget d_inf."""

    I: Tuple[int, ...]  # sorted letters, 1-based
    v0: Vector  # full k-length vector, zero on I
    d_inf: int

    def v(self, t: int) -> Vector:
        return tuple(x + t if j in self.I else x for j, x in enumerate(self.v0, start=1))


def compute_frame(M: DownwardClosedSet) -> CalibrationFrame:
    """Pick the canonical maximal pumpable I and the max-sum blocked profile v0.

    I is pumpable iff no obstruction is supported inside I (none is if the
    count set is empty: ValueError); v0 (supported off I) must block every
    obstruction at some off-I coordinate, with maximal total, tie-broken
    lexicographically largest.
    """
    if M.is_empty():
        raise ValueError(f"the count set {M} is empty: it has no pumpable letter set")
    k = M.k
    obstructions = M.obstructions
    supports = [frozenset(j + 1 for j, x in enumerate(o) if x > 0) for o in obstructions]
    # the lexicographically first pumpable set of the largest size (the
    # empty set is always pumpable)
    best = next(
        I
        for size in range(k, -1, -1)
        for I in map(frozenset, combinations(range(1, k + 1), size))
        if not any(s <= I for s in supports)
    )
    off = [j for j in range(1, k + 1) if j not in best]
    # best | {j} is not pumpable, so an obstruction inside it is positive at
    # j: every cap is at least 0, and the zero profile blocks everything
    caps = [
        min(o[j - 1] for o, s in zip(obstructions, supports) if s <= best | {j}) - 1
        for j in off
    ]
    _, profile = max(
        (sum(p), p)
        for p in product(*(range(c + 1) for c in caps))
        if all(any(o[j - 1] > x for j, x in zip(off, p)) for o in obstructions)
    )
    v0 = [0] * k
    for j, x in zip(off, profile):
        v0[j - 1] = x
    return CalibrationFrame(tuple(sorted(best)), tuple(v0), sum(v0))


def default_threshold(M: DownwardClosedSet) -> int:
    """m + 1 for the largest obstruction entry m, and at least 2: the least t
    the cone construction admits, since below m + 1 vectors of the count set
    above v are not pinned to the cone v + Z_{>=0}^I.  The stratum is then
    first occupied at the lowest length its cone allows, so its classes are
    counted from level terms there rather than by the tail."""
    max_entry = max((x for o in M.obstructions for x in o), default=0)
    return max(max_entry + 1, 2)


# ---------------------------------------------------------------------------
# quadruples, quintuples, cores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quadruple:
    """(J, sigma0, sigma1, abar) with the core relabeled to [e].

    sigma0[i] is the core slot hit by s0-index i+1 (or None); sigma1[i] is
    the frequent letter of that index's concealed position (or None,
    exactly when sigma0[i] is set); abar lists (slot, letter) for the core
    slots outside the sigma0 image.
    """

    J: Tuple[int, ...]
    sigma0: Tuple[Optional[int], ...]
    sigma1: Tuple[Optional[int], ...]
    abar: Tuple[Tuple[int, int], ...]

    @property
    def e(self) -> int:
        return sum(1 for x in self.sigma0 if x is not None) + len(self.abar)

    def sort_key(self):
        return (
            self.J,
            tuple(-1 if x is None else x for x in self.sigma0),
            tuple(-1 if x is None else x for x in self.sigma1),
            self.abar,
        )

    def sigma1_floor(self) -> Counter[int]:
        return Counter(letter for letter in self.sigma1 if letter is not None)

    def relabel(self, pi: Permutation) -> "Quadruple":
        """Apply a permutation of the core slots [e]."""
        sigma0 = tuple(None if x is None else pi(x) for x in self.sigma0)
        abar = tuple(sorted((pi(slot), letter) for slot, letter in self.abar))
        return Quadruple(self.J, sigma0, self.sigma1, abar)

    def sym_orbit_invariant(self):
        """Invariant separating Sym(e)-orbits of labeled quadruples."""
        dom = tuple(i for i, x in enumerate(self.sigma0) if x is not None)
        letters = tuple(sorted(letter for _, letter in self.abar))
        return (self.J, dom, self.sigma1, letters)


@dataclass(frozen=True)
class Quintuple:
    """The full invariant of a calibrated pair: quadruple plus the count
    vector of the frequency assignment tau (indexed by sorted J)."""

    quadruple: Quadruple
    u: Vector


def _placed(size: int, indices: Sequence[int], values) -> Tuple[Optional[int], ...]:
    """The length-size tuple with values at indices and None elsewhere."""
    out: List[Optional[int]] = [None] * size
    for i, x in zip(indices, values):
        out[i] = x
    return tuple(out)


# the arrows out of an object: (labeled target quadruple, bijection g as the
# images of sorted J)
Arrows = List[Tuple[Quadruple, Tuple[int, ...]]]


class StratumAnalysis:
    """Extraction machinery for one stratum (a count set plus calibration).

    Probes the oracle through canonical seed pairs only: objects and arrows
    are discovered, the calibrated up-sets built from the cone walk that
    also builds the peel, and all of it is exact data for the stratified
    count.
    """

    def __init__(self, pres: ModelFunctorPresentation, M: DownwardClosedSet, t: int):
        self.pres = pres
        self.M = M
        self.t = t
        self.frame = compute_frame(M)
        self._object_cache: Dict[int, List[Tuple[Quadruple, Arrows]]] = {}
        self._terms: Optional[LevelTerms] = None
        self._fingerprint: Optional[tuple] = None
        self._walk: Optional[Tuple[int, Set[Vector]]] = None
        self._peeled: Optional[DownwardClosedSet] = None
        self._checked = False

    # -- the operational equivalence-class position relation -------------------

    def compute_core(self, pair: MFPair, J: Sequence[int]) -> Tuple[Dict[int, int], List[int]]:
        """The singleton positions of the class's position relation, plus the
        frequency assignment for non-core positions.

        Positions sharing a visible frequent letter are identified; a
        concealed or infrequent position joins a frequent fiber when the
        oracle accepts the corresponding transposition (the transposition
        lemma read backwards; exact for the shipped oracles at calibration,
        guarded by the self-check and the direct-agreement checks).
        Returns (tau, core): tau maps non-core positions to letters of J.
        The relation's blocks are the letters' preimages under tau and the
        positions outside tau, so the core is every position outside tau or
        alone in its letter's block.
        """
        n = pair.n
        letters = pair.letters()
        Jset = set(J)
        fibers: Dict[int, List[int]] = {l: [] for l in J}
        tau: Dict[int, int] = {}
        for p, l in letters.items():
            if l in Jset:
                fibers[l].append(p)
                tau[p] = l
        specials = sorted(
            [p for p in pair.sigma] + [p for p, l in letters.items() if l not in Jset]
        )
        for p in specials:
            # a concealed or infrequent position joins at most one frequent
            # fiber; a merge between two such positions always routes through
            # a fiber (fibers are large at calibration), so fiber probes are
            # the only ones needed
            for l in J:
                fiber = fibers[l]
                if fiber and self.pres.eq(n, pair, transposed(pair, p, fiber[0])):
                    tau[p] = l
                    break
        block_size = Counter(tau.values())
        core = [p for p in range(1, n + 1) if p not in tau or block_size[tau[p]] == 1]
        return tau, core

    def observed_quadruple(
        self, pair: MFPair, J: Tuple[int, ...], expected_e: int
    ) -> Optional[Tuple[Quadruple, Dict[int, int], List[int]]]:
        """Recompute (quadruple, tau, core) from a pair with the given
        frequent set (the transport of the calibration along the pair's
        class); None when the pair does not have that shape (a core of
        another size than expected_e, core positions outside the leading
        slots, or unassigned positions)."""
        tau, core = self.compute_core(pair, J)
        e = len(core)
        if e != expected_e:
            return None
        if core != list(range(1, e + 1)):
            return None
        letters = pair.letters()
        core_set = set(core)
        for p in range(1, pair.n + 1):
            if p not in core_set and p not in tau:
                return None  # a non-core position with no frequency assignment
        sigma0: List[Optional[int]] = [None] * self.pres.s0
        sigma1: List[Optional[int]] = [None] * self.pres.s0
        for i, p in enumerate(pair.sigma):
            if p in core_set:
                sigma0[i] = p
            else:
                sigma1[i] = tau[p]
        abar = []
        for p in core:
            if p in letters and p not in set(pair.sigma):
                if letters[p] in set(J):
                    return None  # frequent letter stranded in the core
                abar.append((p, letters[p]))
        quad = Quadruple(J, tuple(sigma0), tuple(sigma1), tuple(sorted(abar)))
        return quad, tau, core

    # -- F'' / peel membership through the count-vector shadow -----------------

    def in_cone(self, beta: Vector, base: Vector) -> bool:
        Iset = set(self.frame.I)
        return all(
            beta[j] >= base[j] if (j + 1) in Iset else beta[j] == base[j]
            for j in range(self.pres.k)
        )

    def cone_equivalent(self, beta: Vector, base: Vector) -> bool:
        return any(self.in_cone(g, base) for g in self.pres.count_equivalents(beta))

    def _cone_walk(self) -> Tuple[int, Set[Vector]]:
        """The uniform box B and the shadows of the v-tilde cone's points (v-tilde
        = v(2t)), each entry on I from v-tilde_j to B + 1: one step past the
        box, as far as a builtin shadow moves an entry, so every vector with
        entries at most B that is cone-equivalent to v-tilde is among them.
        Walked once for the peel and the calibrated up-sets."""
        if self._walk is None:
            M, v_tilde, I = self.M, self.frame.v(2 * self.t), self.frame.I
            box = max(max(v_tilde), max((x for o in M.obstructions for x in o), default=0)) + 2
            cone = [range(x, box + 2) if j in I else (x,) for j, x in enumerate(v_tilde, 1)]
            shadows: Set[Vector] = set()
            for c in product(*cone):
                tick()
                for gamma in self.pres.count_equivalents(c):
                    if abs(max(gamma) - max(c)) > 1:
                        raise Unstable(f"shadow {gamma} of {c} moves an entry by more than one")
                    shadows.add(gamma)
            self._walk = box, shadows
        return self._walk

    def peeled(self) -> DownwardClosedSet:
        """The count set left once the stratum's classes are peeled, built from
        the cone walk: the in-M shadows inside the box leave M.  A vector of M
        one step above a removed one, neither removed nor cone-equivalent
        outside the box, is a hole: what is left would not be downward
        closed."""
        if self._peeled is None:
            M, v_tilde = self.M, self.frame.v(2 * self.t)
            box, shadows = self._cone_walk()
            removed = {gamma for gamma in shadows if max(gamma) <= box and M.membership(gamma)}
            for x in sorted(removed):
                for j in range(M.k):
                    y = x[:j] + (x[j] + 1,) + x[j + 1 :]
                    if y in removed or not M.membership(y):
                        continue
                    if max(y) <= box or not (
                        self.in_cone(y, v_tilde) or self.cone_equivalent(y, v_tilde)
                    ):
                        raise Unstable(f"peel leaves a hole at {y}; raise t")
            peeled = DownwardClosedSet(M.k, M.obstructions + tuple(removed))
            if set(peeled.obstructions) == set(M.obstructions):
                raise Unstable("peel did not shrink the count set")
            self._peeled = peeled
        return self._peeled

    # -- objects, arrows, level sets -------------------------------------------

    def _shapes(self, e: int):
        """(J, letters off J, dom, sigma1) of the quadruples with core size e:
        dom is the s0-indices sigma0 places in the core, sigma1 sends every
        other s0-index to a letter of J.  A shape is one Sym(e)-orbit up to
        the abar letters, which fill the core slots outside the sigma0 image."""
        s0, k = self.pres.s0, self.pres.k
        for J in combinations(range(1, k + 1), len(self.frame.I)):
            off = [l for l in range(1, k + 1) if l not in J]
            for d in range(min(s0, e) + 1):
                if d < e and not off:
                    continue
                for dom in combinations(range(s0), d):
                    rest = [i for i in range(s0) if i not in dom]
                    for letters in product(J, repeat=s0 - d):
                        yield J, off, dom, _placed(s0, rest, letters)

    def orbit_reps(self, e: int) -> List[Quadruple]:
        """One quadruple per Sym(e)-orbit: sigma0 sends dom to the first slots
        in s0-index order, the abar letters ascend on the rest."""
        s0 = self.pres.s0
        reps = [
            Quadruple(J, _placed(s0, dom, range(1, len(dom) + 1)), sigma1,
                      tuple(enumerate(letters, start=len(dom) + 1)))
            for J, off, dom, sigma1 in self._shapes(e)
            for letters in combinations_with_replacement(off, e - len(dom))
        ]
        require(len(reps), MAX_QUADRUPLES, "candidate quadruples")
        return reps

    def labeled_count(self, e: int) -> int:
        """The number of labeled quadruples with core size e: C(k, |I|) sets J,
        and per dom of size d, |I|^(s0 - d) sigma1's, P(e, d) placements of
        dom and (k - |I|)^(e - d) abar words."""
        s0, k, i = self.pres.s0, self.pres.k, len(self.frame.I)
        return comb(k, i) * sum(
            comb(s0, d) * i ** (s0 - d) * perm(e, d) * (k - i) ** (e - d)
            for d in range(min(s0, e) + 1)
        )

    @cached_property
    def most_labeled(self) -> int:
        """The most labeled quadruples of one core size, at every t alike."""
        return max(map(self.labeled_count, range(self.pres.s0 + self.frame.d_inf + 1)))

    def labeled_quadruples(self, e: int) -> List[Quadruple]:
        """Every labeled quadruple with core size e, sorted: sigma0 sends dom to
        any distinct slots, abar puts any word off J on the rest.  The budget
        is checked against ``labeled_count`` before any is built."""
        require(self.labeled_count(e), MAX_QUADRUPLES, "labeled quadruples")
        s0, slots = self.pres.s0, range(1, e + 1)
        out = []
        for J, off, dom, sigma1 in self._shapes(e):
            for image in permutations(slots, len(dom)):
                rest = [slot for slot in slots if slot not in image]
                sigma0 = _placed(s0, dom, image)
                for letters in product(off, repeat=len(rest)):
                    out.append(Quadruple(J, sigma0, sigma1, tuple(zip(rest, letters))))
        return sorted(out, key=Quadruple.sort_key)

    def u_test(self, q: Quadruple) -> Dict[int, int]:
        # deep inside the peeled cone: the doubled threshold plus slack for
        # the concealed positions and the core
        floor = q.sigma1_floor()
        depth = 2 * self.t + self.pres.s0 + q.e + 1
        return {l: depth + floor[l] for l in q.J}

    def is_good(self, q: Quadruple, u: Dict[int, int]) -> bool:
        """Is (q, u) the quintuple of a pair in the peeled (calibrated) part?"""
        seed = self.build_target(q, u, q, {l: l for l in q.J})
        return seed is not None and self._is_calibrated_seed(q, seed)

    def _is_calibrated_seed(self, q: Quadruple, seed: MFPair) -> bool:
        """Is the seed cone-equivalent and does the oracle see q on it?"""
        beta = seed.count_vector(self.pres.k)
        return self.cone_equivalent(beta, self.frame.v(2 * self.t)) and self._shows(q, seed)

    def _shows(self, q: Quadruple, seed: MFPair) -> bool:
        """Does the oracle see quadruple q on the seed?"""
        observed = self.observed_quadruple(seed, q.J, expected_e=q.e)
        return observed is not None and observed[0] == q

    def realized_seed(self, q: Quadruple) -> Optional[MFPair]:
        """The seed of q deep in the peeled cone when q is an object there (the
        seed lies in the count set and is calibrated with quintuple q); None
        otherwise."""
        seed = self.build_target(q, self.u_test(q), q, {l: l for l in q.J})
        if seed is None or not self.M.membership(seed.count_vector(self.pres.k)):
            return None
        return seed if self._is_calibrated_seed(q, seed) else None

    def object_data(self, e: int) -> List[Tuple[Quadruple, Arrows]]:
        """(q, arrows out of q) per realized orbit-rep quadruple q."""
        if e in self._object_cache:
            return self._object_cache[e]
        out = []
        for q in self.orbit_reps(e):
            seed = self.realized_seed(q)
            if seed is not None:
                out.append((q, self.discover_arrows(q, seed)))
        self._object_cache[e] = out
        return out

    def build_target(
        self, q: Quadruple, u: Dict[int, int], q_target: Quadruple, g: Dict[int, int]
    ) -> Optional[MFPair]:
        """The pair with quintuple (J', g o tau, sigma0', sigma1', abar') on
        [e] plus one block of u[l] positions per letter l of J: the blocks
        keep their positions but are reassigned through g.  With q_target = q
        and g the identity this is the seed of (q, u), the canonical pair
        with quintuple (q, u).  None if the fiber sizes cannot host the
        concealed positions."""
        n = q.e + sum(u.get(l, 0) for l in q.J)
        if n > MAX_GROUND:
            raise TooLarge(f"seed ground set {n} exceeds {MAX_GROUND}")
        # the block of letter l ends at position end[l]; its concealed
        # positions are taken from the end, the rest keep letter g(l)
        end, pos = {}, q.e
        for l in q.J:
            pos += u.get(l, 0)
            end[l] = pos
        g_inv = {v: key for key, v in g.items()}
        sigma: List[int] = []
        used = dict.fromkeys(q.J, 0)
        for slot, letter in zip(q_target.sigma0, q_target.sigma1):
            if slot is None:
                source = g_inv[letter]
                if used[source] == u.get(source, 0):
                    return None
                slot = end[source] - used[source]
                used[source] += 1
            sigma.append(slot)
        alpha = [letter for _, letter in sorted(q_target.abar)]
        for l in q.J:
            alpha += [g[l]] * (u.get(l, 0) - used[l])
        if len(alpha) != n - self.pres.s0:
            return None
        return MFPair(n, tuple(sigma), tuple(alpha))

    def discover_arrows(self, q: Quadruple, seed: MFPair) -> Arrows:
        """All arrows out of q: (labeled target quadruple, bijection g).

        g is stored as a tuple mapping sorted(J) position-wise onto letters
        of J'.  One equivalence query per candidate target quintuple
        suffices: pairs sharing a quintuple are equivalent, and every arrow
        is realized on the seed's own class.  A target's count vector,
        q_target's abar counts plus u0[l] less q_target's concealed floor at
        letter g(l), is known before it is built; one outside the seed's
        shadow cannot be equivalent to the seed, so it is skipped unbuilt and
        unasked.
        """
        e, k = q.e, self.pres.k
        u0 = self.u_test(q)
        # the count vectors a target in M equivalent to the seed can have
        shadow = {
            v for v in self.pres.count_equivalents(seed.count_vector(k)) if self.M.membership(v)
        }
        arrows = []
        for q_target in self.labeled_quadruples(e):
            tick()
            floor = q_target.sigma1_floor()
            counts = [0] * k
            for _, letter in q_target.abar:
                counts[letter - 1] += 1
            for g_images in permutations(q_target.J):
                # every letter of J' is set anew, and abar's letters lie off J'
                for l, m in zip(q.J, g_images):
                    counts[m - 1] = u0[l] - floor[m]
                if tuple(counts) not in shadow:
                    continue
                target = self.build_target(q, u0, q_target, dict(zip(q.J, g_images)))
                if target is not None and self.pres.eq(seed.n, seed, target):
                    arrows.append((q_target, g_images))
        return arrows

    # -- the calibrated region, built from the cone walk ---------------------------

    def up_antichain(self, q: Quadruple) -> List[Vector]:
        """Minimal u's (indexed by sorted J) for which (q, u) is calibrated.

        The seed of (q, u) has count vector u - floor on J and q's abar
        counts off J, so the region is read off the cone walk's shadows; the
        oracle is asked only at its minimal points.  Unstable when it sees
        another quadruple there, or when a minimal point lies past the box,
        where the walk no longer holds every cone-equivalent vector, or when
        the walk holds none (q is an object, so its region is not empty).
        """
        box, shadows = self._cone_walk()
        J, floor = q.J, q.sigma1_floor()
        abar = Counter(letter for _, letter in q.abar)
        off = [l for l in range(1, self.pres.k + 1) if l not in J]
        region = {
            tuple(gamma[l - 1] + floor[l] for l in J): gamma
            for gamma in shadows
            if all(gamma[l - 1] == abar[l] for l in off)
        }
        minimal = antichain_reduce(region)
        if not minimal:
            raise Unstable(f"no calibrated point of {q} lies in the cone walk; raise t")
        for u in minimal:
            if max(region[u]) > box:
                raise Unstable(f"calibrated minimum {u} of {q} lies past the cone walk; raise t")
            if not self._shows(q, self.build_target(q, dict(zip(J, u)), q, {l: l for l in J})):
                raise Unstable(f"the oracle does not see {q} at its calibrated minimum {u}; raise t")
        return list(minimal)

    # -- exact level counts ------------------------------------------------------

    def n_obstructions_u(self, q: Quadruple) -> List[Vector]:
        """Obstructions, in u-coordinates over sorted J, of the in-stratum
        condition (the pair's count vector lies in the stratum count set)."""
        J = q.J
        floor = q.sigma1_floor()
        abar_counts = [0] * self.pres.k
        for _, letter in q.abar:
            abar_counts[letter - 1] += 1
        out = []
        for o in self.M.obstructions:
            if any(
                o[l - 1] > abar_counts[l - 1]
                for l in range(1, self.pres.k + 1)
                if l not in set(J)
            ):
                continue  # never triggered at any u
            out.append(tuple(o[l - 1] + floor[l] for l in J))
        return antichain_reduce(out) if out else []

    def _add_fixed_terms(self, terms: LevelTerms, q: Quadruple, g_images: Tuple[int, ...],
                         up_min: List[Vector], e: int, coeff: Fraction) -> None:
        """Add coeff times n -> |{u : sum u = n - e, u fixed by g, u in
        (count-set region) and calibrated}| to ``terms``, by
        inclusion-exclusion over the calibrated antichain."""
        J = q.J
        floor = [q.sigma1_floor()[l] for l in J]
        n_obs = self.n_obstructions_u(q)
        # g acting on positions of sorted J
        g = Permutation([J.index(l) + 1 for l in g_images])
        for size in range(1, len(up_min) + 1):
            for subset in combinations(up_min, size):
                base = [max(column) for column in zip(floor, *subset)]
                # a fixed u above base (joined with the floor) is constant on each
                # cycle and at least the cycle's largest bound: shift every cycle by it
                bound = {i: max(base[j - 1] for j in c) for c in g.cycles() for i in c}
                low = [bound[i] for i in range(1, len(J) + 1)]
                shifted = [tuple(max(x - b, 0) for x, b in zip(o, low)) for o in n_obs]
                problem = cycle_contract(DownwardClosedSet(len(J), shifted), g)
                level_terms(problem, e + sum(low), (-1) ** (size + 1) * coeff, terms)

    # -- the per-stratum Burnside sum ---------------------------------------------

    def stratum_terms(self) -> LevelTerms:
        """The stratum's count as level terms, built once for every core size:
        each object q adds, for each arrow from q to a relabeling of q, its
        fixed-level count divided by the number of arrows out of q.  The
        calibrated up-sets are built here from the cone walk, the only place
        that reads them."""
        if self._terms is None:
            terms: LevelTerms = {}
            for e in range(self.pres.s0 + self.frame.d_inf + 1):
                for q, arrows in self.object_data(e):
                    up_min = self.up_antichain(q)
                    for q_target, g_images in arrows:
                        if q_target.sym_orbit_invariant() == q.sym_orbit_invariant():
                            coeff = Fraction(1, len(arrows))
                            self._add_fixed_terms(terms, q, g_images, up_min, e, coeff)
            self._terms = terms
        return self._terms

    def stratum_count(self, n: int) -> int:
        total = evaluate_terms(self.stratum_terms(), n)
        if total.denominator != 1:
            raise Unstable(f"stratified Burnside sum is not an integer at n={n}; raise t")
        return int(total)

    def min_occupied_total(self) -> int:
        """No class of this stratum exists below this word length."""
        return sum(self.frame.v(2 * self.t))

    # -- the self-check: the stratum counts the classes its peel removes ----------

    def removed_classes(self, level: int) -> int:
        """The classes the peel takes out of M at ``level``, with one shadow
        call per class, the way the tail counts: the points of M at that
        level above an obstruction the peel added.  A shadow keeps word
        length, so each added obstruction r lies at least at
        ``min_occupied_total()`` and adds r plus the compositions of
        level - |r| into k parts, at most 2 at the self-check's levels.
        Unstable when a shadow leaves those points: the peel would split a
        class."""
        M = self.M
        compositions = DownwardClosedSet.full(M.k).enumerate_level
        points: Set[Vector] = set()
        for r in set(self.peeled().obstructions) - set(M.obstructions):
            for c in compositions(level - sum(r)):
                x = tuple(a + b for a, b in zip(r, c))
                if M.membership(x):
                    points.add(x)
        seen: Set[Vector] = set()
        classes = 0
        for x in sorted(points):
            if x in seen:
                continue
            tick()
            classes += 1
            shadow = self.pres.count_equivalents(x)
            if not shadow <= points:
                raise Unstable(f"the shadow of {x} leaves the peel: it would split a class")
            seen |= shadow
        return classes

    def check_peel(self) -> None:
        """Unstable unless the stratum's count equals the classes its peel
        removes at every level from L0 - 1 to L0 + 2, L0 the first occupied
        one (its classes are groupoid orbits on the cone's points).  Run
        once: a pass is kept, like the peel."""
        if not self._checked:
            low = self.min_occupied_total()
            for level in range(low - 1, low + 3):
                n = level + self.pres.s0
                count, removed = self.stratum_count(n), self.removed_classes(level)
                if count != removed:
                    raise Unstable(
                        f"the stratum over I={self.frame.I} counts {count} classes at n={n}, "
                        f"its peel removes {removed}"
                    )
            self._checked = True

    # -- structural fingerprint ------------------------------------------------------

    def fingerprint(self) -> tuple:
        """The objects and arrows of every core size.  No count reads it; the
        benchmark's traced run wraps it."""
        if self._fingerprint is None:
            self._fingerprint = tuple(
                (q.sort_key(), tuple(sorted((qt.sort_key(), g) for qt, g in arrows)))
                for e in range(self.pres.s0 + self.frame.d_inf + 1)
                for q, arrows in self.object_data(e)
            )
        return self._fingerprint


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def analyze_pair(
    pres: ModelFunctorPresentation, n: int, pair: MFPair, t: int
) -> Quintuple:
    """The quintuple invariant of a calibrated pair.

    The pair's count vector must lie in the calibrated cone (at least t of
    every pumpable letter, the pinned infrequent profile elsewhere);
    NotCalibrated otherwise.  The core is relabeled to an initial segment.
    """
    if pair.n != n:
        raise ValueError("pair is not on [n]")
    analysis = StratumAnalysis(pres, pres.countset, t)
    frame = analysis.frame
    beta = pair.count_vector(pres.k)
    if not analysis.in_cone(beta, frame.v(t)):
        raise NotCalibrated(
            f"count vector {beta} is not in the calibrated cone over I={frame.I}"
        )
    tau, core = analysis.compute_core(pair, frame.I)
    # relabel the ambient set so the core becomes {1..e}
    order = core + [p for p in range(1, n + 1) if p not in set(core)]
    relabel = {p: i for i, p in enumerate(order, start=1)}
    images = [0] * n
    for p, i in relabel.items():
        images[i - 1] = p  # injection [n] -> [n] with new label i at old p
    moved = apply_permutation(pair, images)
    observed = analysis.observed_quadruple(moved, frame.I, expected_e=len(core))
    if observed is None:
        raise NotCalibrated("pair does not expose a stable quadruple at this t")
    quad, tau2, _ = observed
    u = [0] * len(quad.J)
    index = {l: i for i, l in enumerate(quad.J)}
    for p, l in tau2.items():
        u[index[l]] += 1
    return Quintuple(quad, tuple(u))


@dataclass
class ExtractedGroupoid:
    """The labeled-quadruple groupoid of one core size, plus level actions."""

    pres: ModelFunctorPresentation
    e: int
    t: int
    groupoid: Groupoid
    analysis: StratumAnalysis

    def action_at_level(self, total: int) -> GroupoidAction:
        """The groupoid action on quintuples with word length ``total``
        (so the count vectors sum to total - e)."""
        level = total - self.e
        carrier = []
        anchor = {}
        fibers: Dict[Quadruple, List[Quintuple]] = {q: [] for q in self.groupoid.objects}
        for q in self.groupoid.objects:
            floor_vec = tuple(q.sigma1_floor()[l] for l in q.J)
            in_stratum = DownwardClosedSet(len(q.J), self.analysis.n_obstructions_u(q))
            for u in in_stratum.enumerate_level(level):
                if any(x < f for x, f in zip(u, floor_vec)):
                    continue
                if not self.analysis.is_good(q, dict(zip(q.J, u))):
                    continue
                quint = Quintuple(q, u)
                carrier.append(quint)
                anchor[quint] = q
                fibers[q].append(quint)
        maps = {}
        for arrow in self.groupoid.arrows:
            q, q2, g_images = arrow.src, arrow.dst, arrow.label
            g = dict(zip(q.J, g_images))
            m = {}
            for quint in fibers[q]:
                u = dict(zip(q.J, quint.u))
                u2 = {g[l]: u[l] for l in q.J}
                m[quint] = Quintuple(q2, tuple(u2[l] for l in q2.J))
            maps[arrow] = m
        return GroupoidAction(self.groupoid, carrier, anchor, maps)


def extract_groupoid(pres: ModelFunctorPresentation, e: int) -> ExtractedGroupoid:
    """The groupoid of quadruples with core size e at a stable calibration.

    Objects are the labeled quadruples realized by calibrated pairs with
    core [e]; arrows are the frequent-set bijections realized by equivalent
    pairs; composition is composition of bijections.  The analysis is the
    first stratum of the stratified count's chain, shared with the count.
    """
    analysis = _plan(pres).first_stratum()
    objects: List[Quadruple] = []
    arrows: List[Arrow] = []
    seeds: Dict[Quadruple, MFPair] = {}
    for q in analysis.labeled_quadruples(e):
        seed = analysis.realized_seed(q)
        if seed is not None:
            objects.append(q)
            seeds[q] = seed
    for q in objects:
        for q_target, g_images in analysis.discover_arrows(q, seeds[q]):
            if q_target in set(objects):
                arrows.append(Arrow(q, q_target, g_images))

    def compose_fn(a: Arrow, b: Arrow) -> Arrow:
        # b o a for a: q->q', b: q'->q''; labels map sorted J position-wise
        q = a.src
        g1 = dict(zip(q.J, a.label))
        g2 = dict(zip(a.dst.J, b.label))
        return Arrow(q, b.dst, tuple(g2[g1[l]] for l in q.J))

    groupoid = Groupoid.from_compose_fn(objects, arrows, compose_fn, lambda q: tuple(q.J))
    return ExtractedGroupoid(pres, e, analysis.t, groupoid, analysis)


# ---------------------------------------------------------------------------
# the stratified count
# ---------------------------------------------------------------------------


def _tail_count(pres: ModelFunctorPresentation, M: DownwardClosedSet, n: int) -> int:
    """Sym-orbits of the classes on [n] whose count vectors lie in M (one
    finite level of it), with one shadow call per class.  Once per run the
    level points walked so far are checked against the budget; the tail has
    no cap of its own.  The shadow of a vector is its whole class's
    count-vector set, so a vector no earlier
    shadow reached starts a class.  The level is walked run by run
    (``level_runs``); what the shadows reached ahead of the walk is kept as
    marks, one byte per point of a run: a prefix's row, sized by its
    ``remaining`` (a shadow keeps word length), holds 1 at each
    second-to-last coordinate reached, and is dropped once its run is done."""
    level = n - pres.s0
    if level < 0:
        return 0
    hook = pres.count_equivalents
    if M.k < 2:  # a level of at most one point
        members = M.enumerate_level(level)
        if members:
            tick()
            hook(members[0])
        return len(members)
    rows: Dict[Vector, bytearray] = {}
    classes = walked = 0
    for prefix, remaining, gaps in M.level_runs(level):
        walked += sum(map(len, gaps))
        require(walked, None, "tail level points")
        row = rows.get(prefix)
        if row is None:  # no shadow reached this run ahead of the walk
            row = rows[prefix] = bytearray(remaining + 1)
        for gap in gaps:
            for x in gap:
                if not row[x]:
                    tick()
                    classes += 1
                    for gamma in hook(prefix + (x, remaining - x)):
                        marked = rows.get(gamma[:-2])
                        if marked is None:
                            marked = rows[gamma[:-2]] = bytearray(gamma[-2] + gamma[-1] + 1)
                        marked[gamma[-2]] = 1
        del rows[prefix]
    return classes


class StratifiedPlan:
    """The strata of one presentation's stratified count, as one chain in
    peel order: nothing about a stratum depends on n, since its classes are
    groupoid orbits on the lattice points of its cone.  Each link is
    calibrated and self-checked once, whatever the word length, and keeps its
    structure, level terms and peeled count set.  The chain is extended as
    far as the counts read it: the stratum after it is calibrated when a
    count first finds it occupied at its default threshold, which needs only
    its frame.  For d = 2 the strata at t = 2, 6, 13, 27 are occupied from
    n = 9, 15, 28, 55.  The chain ends at a finite count set or at one with
    more quadruples of some core size than MAX_QUADRUPLES, an amount its
    frame fixes at every t: the tail counts it at every n.
    """

    def __init__(self, pres: ModelFunctorPresentation):
        if pres.count_equivalents is None:
            raise TooLarge(
                "the stratified route needs the presentation's count-vector shadow; "
                "use mf_orbit_count_direct instead"
            )
        self.pres = pres
        self._chain: List[StratumAnalysis] = []
        self._left = pres.countset  # the count set after the chain
        self._next: Optional[StratumAnalysis] = None  # its default-threshold analysis
        self._unstable: Optional[str] = None  # why _next failed at every t up to MAX_T

    def calibrated(self, analysis: StratumAnalysis) -> StratumAnalysis:
        """The analysis's stratum, certified whatever the word length: t is
        doubled while the peel raises Unstable, as on a hole, or the
        self-check (``check_peel``) fails; Unstable past MAX_T.  The level
        terms are built first, so an up-set guard raises rather than doubling t."""
        while True:
            analysis.stratum_terms()
            try:
                analysis.peeled()
                analysis.check_peel()
                return analysis
            except Unstable as unstable:
                reason = f"{unstable} (t={analysis.t})"
            if 2 * analysis.t > MAX_T:
                raise Unstable(reason)
            analysis = StratumAnalysis(self.pres, analysis.M, 2 * analysis.t)

    def _frontier(self) -> Optional[StratumAnalysis]:
        """The default-threshold analysis of the count set after the chain,
        built once; None where the chain ends."""
        if self._left.is_finite():
            return None
        if self._next is None:
            self._next = StratumAnalysis(self.pres, self._left, default_threshold(self._left))
        return None if self._next.most_labeled > MAX_QUADRUPLES else self._next

    def _extend(self) -> None:
        if self._unstable:  # raised again, with nothing built
            raise Unstable(self._unstable)
        try:
            link = self.calibrated(self._next)
        except Unstable as unstable:
            self._unstable = str(unstable)
            raise
        self._chain.append(link)
        self._left, self._next = link.peeled(), None

    def first_stratum(self) -> StratumAnalysis:
        """The chain's first stratum, calibrated whatever the word length; a
        count set the chain ends at is calibrated all the same, outside it."""
        if not self._chain:
            if self._frontier() is None:
                M = self.pres.countset
                return self.calibrated(self._next or StratumAnalysis(self.pres, M, default_threshold(M)))
            self._extend()
        return self._chain[0]

    def strata(self, n: int) -> Tuple[List[StratumAnalysis], DownwardClosedSet]:
        """The chain's prefix occupied at n, and the count set left for the
        tail.  No peel from the first stratum not occupied at n, or a deeper
        one, removes a vector at level n - s0 (a shadow keeps word length),
        if the first occupied lengths rise along the chain: a peel leaves
        obstructions near 2t, so the next least threshold is about 2t, as on
        every presentation checked, though nothing here proves it."""
        level = n - self.pres.s0
        for i in range(10000):
            if i == len(self._chain):
                frontier = self._frontier()
                if frontier is None or level < frontier.min_occupied_total():
                    return self._chain[:], self._left
                self._extend()
            if level < self._chain[i].min_occupied_total():
                return self._chain[:i], self._chain[i].M
        raise Unstable("stratification did not terminate")


# One plan per presentation, so a sweep over n builds each stratum once.
# An entry keeps its presentation alive and is only used for that very
# object, so neither a reused id nor an equal-valued presentation with
# another oracle can pick up a foreign plan.
_PLAN_CACHE: Dict[int, StratifiedPlan] = {}


def _plan(pres: ModelFunctorPresentation) -> StratifiedPlan:
    plan = _PLAN_CACHE.get(id(pres))
    if plan is None or plan.pres is not pres:
        plan = _PLAN_CACHE[id(pres)] = StratifiedPlan(pres)
    return plan


def mf_count_via_groupoid(pres: ModelFunctorPresentation, n: int) -> int:
    """Sym([n])-orbit count on F([n])/~ via the stratified groupoid formula.

    Adds the counts of the strata occupied at n (groupoid Burnside sums over
    exact lattice level counts) to the tail, which counts the level n - s0
    of the count set they leave with one shadow call per class.  Requires
    the presentation's count-vector shadow.  The strata are one chain per
    presentation, extended only as far as the counts read it.
    """
    strata, M = _plan(pres).strata(n)
    return sum(analysis.stratum_count(n) for analysis in strata) + _tail_count(pres, M, n)


def strata_against_peels(
    pres: ModelFunctorPresentation, levels: Sequence[int]
) -> List[Tuple[int, int, int, int]]:
    """(n, t, stratum count, classes its peel removes) for every stratum the
    stratified count reads at each n of ``levels``, at its calibrated t.

    The classes of a stratum correspond to its groupoid orbits, so the
    stratum count must equal the number of classes that its peel takes out
    of the count set at level n - s0, which the tail counts directly.
    """
    plan = _plan(pres)
    rows = []
    for n in levels:
        for analysis in plan.strata(n)[0]:
            removed = _tail_count(pres, analysis.M, n) - _tail_count(pres, analysis.peeled(), n)
            rows.append((n, analysis.t, analysis.stratum_count(n), removed))
    return rows

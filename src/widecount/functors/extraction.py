"""Groupoid extraction from model-functor presentations and the stratified
orbit count it powers.

The stratification peels, from the presentation's count set, the region
where a maximal pumpable letter set occurs with high multiplicity.  Classes
in the peeled region with a fixed core size correspond to orbits of a
finite groupoid of quadruples acting on count vectors; their Sym-orbits are
counted by the groupoid orbit-counting lemma, a sum each stratum keeps as
level terms (shifted denumerants, see ``lattice``) built once and evaluated
at each n.  The complement is a sub-model functor with a strictly smaller
count set (Dickson recursion).  The recursion ends in a tail that counts one
level of the count set left, with one shadow call per class: that set is
finite, or its next stratum is not yet occupied at n.

Everything the oracle contributes is probed through targeted equivalence
queries on canonical seed pairs; the count-vector shadow of builtin oracles
drives the peel and the tail.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
    """Extraction results at t and t+1 disagree; the caller should raise t."""


@dataclass(frozen=True)
class CalibrationFrame:
    """The stratum data derived from a count set: maximal pumpable letter set
    I, the pinned infrequent profile v0, and the infrequent budget d_inf."""

    I: Tuple[int, ...]  # sorted letters, 1-based
    v0: Vector  # full k-length vector, zero on I
    d_inf: int

    def v(self, t: int) -> Vector:
        return tuple(
            v + (t if (j + 1) in set(self.I) else 0) for j, v in enumerate(self.v0)
        )

    def v_tilde(self, t: int) -> Vector:
        return tuple(
            v + (2 * t if (j + 1) in set(self.I) else 0) for j, v in enumerate(self.v0)
        )


def compute_frame(M: DownwardClosedSet) -> CalibrationFrame:
    """Pick the canonical maximal pumpable I and the max-sum blocked profile v0.

    I is pumpable iff no obstruction is supported inside I; v0 (supported
    off I) must block every obstruction at some off-I coordinate, with
    maximal total, tie-broken lexicographically largest.
    """
    k = M.k
    obstructions = M.obstructions
    supports = [frozenset(j + 1 for j, x in enumerate(o) if x > 0) for o in obstructions]

    def pumpable(candidate: FrozenSet[int]) -> bool:
        return not any(s <= candidate for s in supports)

    best: Optional[FrozenSet[int]] = None
    for size in range(k, -1, -1):
        options = [
            frozenset(c) for c in combinations(range(1, k + 1), size) if pumpable(frozenset(c))
        ]
        if options:
            best = sorted(options, key=lambda s: tuple(sorted(s)))[0]
            break
    assert best is not None  # the empty set is always pumpable
    I = tuple(sorted(best))
    off = [j for j in range(1, k + 1) if j not in best]
    caps = {}
    for j in off:
        forced = [
            o[j - 1]
            for o, s in zip(obstructions, supports)
            if s <= best | {j}
        ]
        caps[j] = min(forced) - 1 if forced else 0
        if caps[j] < 0:
            caps[j] = -1  # coordinate cannot carry anything: blocked at zero
    best_v0: Optional[Tuple[int, ...]] = None
    for values in product(*(range(max(caps[j], 0) + 1) for j in off)) if off else [()]:
        v0 = [0] * k
        for j, val in zip(off, values):
            v0[j - 1] = val
        if any(caps[j] < 0 and v0[j - 1] > 0 for j in off):
            continue
        blocked = all(
            any(o[j - 1] > v0[j - 1] for j in off) for o in obstructions
        ) if obstructions else True
        if not blocked:
            continue
        key = (sum(v0), tuple(v0))
        if best_v0 is None or key > (sum(best_v0), tuple(best_v0)):
            best_v0 = tuple(v0)
    assert best_v0 is not None
    return CalibrationFrame(I, best_v0, sum(best_v0))


def default_threshold(M: DownwardClosedSet, s0: int) -> int:
    max_entry = max((x for o in M.obstructions for x in o), default=0)
    return 2 * (M.k + s0 + max_entry)


def minimum_threshold(M: DownwardClosedSet) -> int:
    """Below this the cone construction is unsound: the threshold must exceed
    every obstruction entry so that vectors of the count set above v are
    pinned to the cone v + Z_{>=0}^I."""
    return max((x for o in M.obstructions for x in o), default=0) + 1


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

    def sigma1_floor(self) -> Dict[int, int]:
        floor: Dict[int, int] = {}
        for letter in self.sigma1:
            if letter is not None:
                floor[letter] = floor.get(letter, 0) + 1
        return floor

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

    def stabilizer_order(self) -> int:
        mult: Dict[int, int] = {}
        for _, letter in self.abar:
            mult[letter] = mult.get(letter, 0) + 1
        out = 1
        for m in mult.values():
            out *= factorial(m)
        return out


@dataclass(frozen=True)
class Quintuple:
    """The full invariant of a calibrated pair: quadruple plus the count
    vector of the frequency assignment tau (indexed by sorted J)."""

    quadruple: Quadruple
    u: Vector


def canonical_rep(
    J: Tuple[int, ...],
    dom: Tuple[int, ...],
    sigma1_letters: Tuple[int, ...],
    abar_letters: Tuple[int, ...],
    s0: int,
) -> Quadruple:
    """The canonical labeled quadruple of a Sym(e)-orbit: sigma0 targets the
    first slots in s0-index order, abar letters ascending on the rest."""
    sigma0: List[Optional[int]] = [None] * s0
    for slot, i in enumerate(dom, start=1):
        sigma0[i] = slot
    sigma1: List[Optional[int]] = [None] * s0
    rest = [i for i in range(s0) if i not in dom]
    for i, letter in zip(rest, sigma1_letters):
        sigma1[i] = letter
    abar = tuple(
        (len(dom) + pos, letter)
        for pos, letter in enumerate(sorted(abar_letters), start=1)
    )
    return Quadruple(J, tuple(sigma0), tuple(sigma1), abar)


# the arrows out of an object: (labeled target quadruple, bijection g as the
# images of sorted J)
Arrows = List[Tuple[Quadruple, Tuple[int, ...]]]


class StratumAnalysis:
    """Extraction machinery for one stratum (a count set plus calibration).

    Probes the oracle through canonical seed pairs only; all discovered
    structure (objects, arrows, level-set antichains) is exact data for the
    stratified count.
    """

    def __init__(self, pres: ModelFunctorPresentation, M: DownwardClosedSet, t: int):
        self.pres = pres
        self.M = M
        self.t = t
        self.frame = compute_frame(M)
        self._object_cache: Dict[int, List[Tuple[Quadruple, Arrows]]] = {}
        self._terms: Optional[LevelTerms] = None

    # -- the operational equivalence-class position relation -------------------

    def compute_core(self, pair: MFPair, J: Sequence[int]) -> Tuple[Dict[int, int], List[int]]:
        """The singleton positions of the class's position relation, plus the
        frequency assignment for non-core positions.

        Positions sharing a visible frequent letter are identified; a
        concealed or infrequent position joins a frequent fiber when the
        oracle accepts the corresponding transposition (the transposition
        lemma read backwards; exact for the shipped oracles at calibration,
        guarded by stability and the direct-agreement checks).
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
        self, pair: MFPair, J: Tuple[int, ...], expected_e: Optional[int] = None
    ) -> Optional[Tuple[Quadruple, Dict[int, int], List[int]]]:
        """Recompute (quadruple, tau, core) from a pair with the given
        frequent set (the transport of the calibration along the pair's
        class); None when the pair does not have that shape (core positions
        outside the leading slots, or unassigned positions)."""
        tau, core = self.compute_core(pair, J)
        e = len(core)
        if expected_e is not None and e != expected_e:
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

    def equivalent_counts(self, beta: Vector) -> FrozenSet[Vector]:
        hook = self.pres.count_equivalents
        if hook is None:
            raise TooLarge(
                "the stratified count requires the presentation's count-vector shadow"
            )
        return hook(beta)

    def in_cone(self, beta: Vector, base: Vector) -> bool:
        Iset = set(self.frame.I)
        return all(
            beta[j] >= base[j] if (j + 1) in Iset else beta[j] == base[j]
            for j in range(self.pres.k)
        )

    def cone_equivalent(self, beta: Vector, base: Vector) -> bool:
        return any(self.in_cone(g, base) for g in self.equivalent_counts(beta))

    # -- objects, arrows, level sets -------------------------------------------

    def orbit_reps(self, e: int) -> List[Quadruple]:
        s0, k = self.pres.s0, self.pres.k
        frame = self.frame
        reps: List[Quadruple] = []
        off_letters = [l for l in range(1, k + 1)]
        for J in combinations(range(1, k + 1), len(frame.I)):
            non_J = [l for l in off_letters if l not in set(J)]
            for dom_size in range(min(s0, e) + 1):
                for dom in combinations(range(s0), dom_size):
                    abar_len = e - dom_size
                    if abar_len > 0 and not non_J:
                        continue
                    rest = s0 - dom_size
                    for sigma1_letters in product(J, repeat=rest):
                        for abar_letters in combinations_with_replacement(non_J, abar_len):
                            reps.append(
                                canonical_rep(J, dom, sigma1_letters, abar_letters, s0)
                            )
        require(len(reps), MAX_QUADRUPLES, "candidate quadruples")
        return reps

    def labeled_quadruples(self, e: int) -> List[Quadruple]:
        """Every relabeling of the core slots [e] of every orbit rep, once.

        A relabeling only places the rep's sigma0 indices (distinct) and its
        abar letters (a multiset) on the slots, so the distinct ones are the
        arrangements of that multiset: e!/stabilizer_order() per rep.
        """
        reps = self.orbit_reps(e)
        require(
            sum(factorial(e) // rep.stabilizer_order() for rep in reps),
            MAX_QUADRUPLES,
            "labeled quadruples",
        )
        out: List[Quadruple] = []
        for rep in reps:
            # label (0, i): the slot sigma0 sends s0-index i to; (1, l): abar letter l
            labels: Dict[Tuple[int, int], int] = {
                (0, i): 1 for i, x in enumerate(rep.sigma0) if x is not None
            }
            for _, letter in rep.abar:
                labels[(1, letter)] = labels.get((1, letter), 0) + 1
            for arrangement in _arrangements(labels, e):
                sigma0: List[Optional[int]] = [None] * self.pres.s0
                abar = []
                for slot, (kind, value) in enumerate(arrangement, start=1):
                    if kind == 0:
                        sigma0[value] = slot
                    else:
                        abar.append((slot, value))
                out.append(Quadruple(rep.J, tuple(sigma0), rep.sigma1, tuple(abar)))
        return sorted(out, key=Quadruple.sort_key)

    def u_test(self, q: Quadruple) -> Dict[int, int]:
        # deep inside the peeled cone: the doubled threshold plus slack for
        # the concealed positions and the core
        floor = q.sigma1_floor()
        depth = 2 * self.t + self.pres.s0 + q.e + 1
        return {l: depth + floor.get(l, 0) for l in q.J}

    def is_good(self, q: Quadruple, u: Dict[int, int]) -> bool:
        """Is (q, u) the quintuple of a pair in the peeled (calibrated) part?"""
        seed = self.build_target(q, u, q, {l: l for l in q.J})
        if seed is None:
            return False
        beta = seed.count_vector(self.pres.k)
        if not self.cone_equivalent(beta, self.frame.v_tilde(self.t)):
            return False
        observed = self.observed_quadruple(seed, q.J, expected_e=q.e)
        return observed is not None and observed[0] == q

    def realized_seed(self, q: Quadruple) -> Optional[MFPair]:
        """The seed of q deep in the peeled cone when q is an object there (the
        seed lies in the count set and is calibrated with quintuple q); None
        otherwise."""
        u0 = self.u_test(q)
        seed = self.build_target(q, u0, q, {l: l for l in q.J})
        if seed is None or not self.M.membership(seed.count_vector(self.pres.k)):
            return None
        return seed if self.is_good(q, u0) else None

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
        e = q.e
        block: Dict[int, List[int]] = {}
        pos = e + 1
        for l in q.J:
            block[l] = list(range(pos, pos + u.get(l, 0)))
            pos += u.get(l, 0)
        n = pos - 1
        if n > MAX_GROUND:
            raise TooLarge(f"seed ground set {n} exceeds {MAX_GROUND}")
        g_inv = {v: key for key, v in g.items()}
        sigma: List[int] = [0] * self.pres.s0
        used: Dict[int, int] = {l: 0 for l in q.J}
        for i in range(self.pres.s0):
            if q_target.sigma0[i] is not None:
                sigma[i] = q_target.sigma0[i]
            else:
                source_letter = g_inv[q_target.sigma1[i]]
                fiber = block[source_letter]
                idx = len(fiber) - 1 - used[source_letter]
                if idx < 0:
                    return None
                sigma[i] = fiber[idx]
                used[source_letter] += 1
        letters: Dict[int, int] = {slot: letter for slot, letter in q_target.abar}
        sigma_set = set(sigma)
        for l in q.J:
            for p in block[l]:
                if p not in sigma_set:
                    letters[p] = g[l]
        if len(letters) != n - self.pres.s0:
            return None
        alpha = tuple(letters[p] for p in sorted(letters))
        return MFPair(n, tuple(sigma), alpha)

    def discover_arrows(self, q: Quadruple, seed: MFPair) -> Arrows:
        """All arrows out of q: (labeled target quadruple, bijection g).

        g is stored as a tuple mapping sorted(J) position-wise onto letters
        of J'.  One equivalence query per candidate target quintuple
        suffices: pairs sharing a quintuple are equivalent, and every arrow
        is realized on the seed's own class.
        """
        e = q.e
        u0 = self.u_test(q)
        arrows = []
        for q_target in self.labeled_quadruples(e):
            tick()
            for g_images in permutations(q_target.J):
                g = dict(zip(q.J, g_images))
                target = self.build_target(q, u0, q_target, g)
                if target is None:
                    continue
                if not self.M.membership(target.count_vector(self.pres.k)):
                    continue
                if self.pres.eq(seed.n, seed, target):
                    arrows.append((q_target, tuple(g[l] for l in q.J)))
        return arrows

    # -- monotone learning of the calibrated region -----------------------------

    def learn_up_antichain(self, q: Quadruple) -> List[Vector]:
        """Minimal u's (indexed by sorted J) for which (q, u) is calibrated.

        The good region is an up-set in u (guarded empirically); its
        minimal elements are found by corner probes and coordinate descent.
        """
        J = q.J
        floor = q.sigma1_floor()
        floor_vec = tuple(floor.get(l, 0) for l in J)
        cap = tuple(
            f + 2 * self.t + q.e + self.pres.s0 + 3 for f in floor_vec
        )
        good = lru_cache(maxsize=None)(lambda u_vec: self.is_good(q, dict(zip(J, u_vec))))
        ac = _minimal_elements(good, floor_vec, cap)
        # up-closedness spot check: points just above each minimal stay good
        for m in ac:
            for j in range(len(m)):
                probe = m[:j] + (m[j] + 1,) + m[j + 1 :]
                if all(p <= c for p, c in zip(probe, cap)) and not good(probe):
                    raise Unstable(
                        f"calibrated region is not monotone near {m} for {q}; raise t"
                    )
        return list(ac)

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
            out.append(tuple(o[l - 1] + floor.get(l, 0) for l in J))
        return antichain_reduce(out) if out else []

    def _add_fixed_terms(self, terms: LevelTerms, q: Quadruple, g_images: Tuple[int, ...],
                         up_min: List[Vector], e: int, coeff: Fraction) -> None:
        """Add coeff times n -> |{u : sum u = n - e, u fixed by g, u in
        (count-set region) and calibrated}| to ``terms``, by
        inclusion-exclusion over the calibrated antichain."""
        J = q.J
        floor = [q.sigma1_floor().get(l, 0) for l in J]
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
        calibrated up-sets are learned here, the only place that reads them."""
        if self._terms is None:
            terms: LevelTerms = {}
            for e in range(self.pres.s0 + self.frame.d_inf + 1):
                for q, arrows in self.object_data(e):
                    up_min = self.learn_up_antichain(q)
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
        return sum(self.frame.v_tilde(self.t))

    # -- structural fingerprint for the stability check ----------------------------

    def fingerprint(self) -> tuple:
        out = []
        for e in range(self.pres.s0 + self.frame.d_inf + 1):
            for q, arrows in self.object_data(e):
                out.append((q.sort_key(), tuple(sorted((qt.sort_key(), g) for qt, g in arrows))))
        return tuple(out)


def _arrangements(counts: Dict, length: int):
    """The distinct orderings of the multiset with these multiplicities
    (which sum to length), each once; counts is restored afterwards."""
    if length == 0:
        yield ()
        return
    for label in sorted(counts):
        if counts[label]:
            counts[label] -= 1
            for rest in _arrangements(counts, length - 1):
                yield (label,) + rest
            counts[label] += 1


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
            floor = q.sigma1_floor()
            floor_vec = tuple(floor.get(l, 0) for l in q.J)
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


def extract_groupoid(
    pres: ModelFunctorPresentation,
    e: int,
    t: Optional[int] = None,
    check_stability: bool = True,
) -> ExtractedGroupoid:
    """The groupoid of quadruples with core size e at a stable calibration.

    Objects are the labeled quadruples realized by calibrated pairs with
    core [e]; arrows are the frequent-set bijections realized by equivalent
    pairs; composition is composition of bijections.  The threshold is the
    stratified count's for the presentation's count set, with the t/t+1
    check made whatever the word length.
    """
    analysis = _plan(pres, t, check_stability).calibrated(pres.countset)
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

    def identity_label(q: Quadruple):
        return tuple(q.J)

    groupoid = Groupoid.from_compose_fn(objects, arrows, compose_fn, identity_label)
    return ExtractedGroupoid(pres, e, analysis.t, groupoid, analysis)


# ---------------------------------------------------------------------------
# the stratified count
# ---------------------------------------------------------------------------


def _tail_count(pres: ModelFunctorPresentation, M: DownwardClosedSet, n: int) -> int:
    """Sym-orbits of the classes on [n] whose count vectors lie in M (one
    finite level of it), with one shadow call per class.  The shadow of a
    vector is its whole class's count-vector set, so a vector no earlier
    shadow reached starts a class."""
    level = n - pres.s0
    if level < 0:
        return 0
    hook = pres.count_equivalents
    assert hook is not None
    seen: Set[Vector] = set()
    classes = 0
    for beta in M.enumerate_level(level):
        if beta in seen:
            seen.discard(beta)
        else:
            tick()
            classes += 1
            seen.update(hook(beta))
    return classes


class StratifiedPlan:
    """Everything of the stratified count that does not depend on n, for one
    presentation and one choice of (t, check_stability).

    The strata are recorded as the counts reach them, memoised per count
    set M and threshold t: the analysis (with its object cache), whether
    its structure at t agrees with t + 1, and the peeled count set that
    follows.  A stratum is still stability-checked only at an n where it is
    occupied, so every n gets the threshold a fresh count would pick.
    """

    def __init__(
        self,
        pres: ModelFunctorPresentation,
        t: Optional[int],
        check_stability: bool,
    ):
        self.pres = pres
        self.t = t
        self.check_stability = check_stability
        self._analyses: Dict[Tuple[DownwardClosedSet, int], StratumAnalysis] = {}
        self._stable: Dict[Tuple[DownwardClosedSet, int], bool] = {}
        self._peeled: Dict[Tuple[DownwardClosedSet, int], DownwardClosedSet] = {}

    def analysis(self, M: DownwardClosedSet, t: int) -> StratumAnalysis:
        key = (M, t)
        if key not in self._analyses:
            self._analyses[key] = StratumAnalysis(self.pres, M, t)
        return self._analyses[key]

    def stable(self, M: DownwardClosedSet, t: int) -> bool:
        """Does the stratum's structure at t agree with that at t + 1?"""
        key = (M, t)
        if key not in self._stable:
            self._stable[key] = (
                self.analysis(M, t).fingerprint() == self.analysis(M, t + 1).fingerprint()
            )
        return self._stable[key]

    def calibrated(self, M: DownwardClosedSet, n: Optional[int] = None) -> StratumAnalysis:
        """The stratum's analysis at the threshold for n: from the default,
        doubled while the stratum is occupied at n (at every n when n is
        None) and unstable."""
        s0 = self.pres.s0
        t0 = self.t if self.t is not None else max(default_threshold(M, s0), 2)
        t_cur = max(t0, minimum_threshold(M))
        while True:
            analysis = self.analysis(M, t_cur)
            if not self.check_stability or (
                n is not None and n - s0 < analysis.min_occupied_total()
            ):
                return analysis
            if self.stable(M, t_cur):
                return analysis
            if self.t is not None or 2 * t_cur > MAX_T:
                raise Unstable(f"stratum unstable between t={t_cur} and t={t_cur + 1}")
            t_cur *= 2

    def peeled(self, analysis: StratumAnalysis) -> DownwardClosedSet:
        """The count set left once the stratum's classes are peeled: those
        equivalent into the v-tilde cone leave it."""
        key = (analysis.M, analysis.t)
        if key not in self._peeled:
            M = analysis.M
            v_tilde = analysis.frame.v_tilde(analysis.t)

            def member(beta: Vector) -> bool:
                return M.membership(beta) and not analysis.cone_equivalent(beta, v_tilde)

            # the shadow maps permute entries (up to bounded fuzz), so a
            # minimal non-member can carry the cone's large entry in any
            # coordinate: the cap box must be uniform
            box = max(
                max(v_tilde),
                max((x for o in M.obstructions for x in o), default=0),
            ) + 2
            peeled = DownwardClosedSet(M.k, _learn_minimal_nonmembers(member, (box,) * M.k))
            if set(peeled.obstructions) == set(M.obstructions):
                raise Unstable("peel did not shrink the count set")
            self._peeled[key] = peeled
        return self._peeled[key]


# One plan per (presentation, options), so a sweep over n builds each
# stratum once.  An entry keeps its presentation alive and is only used for
# that very object, so neither a reused id nor an equal-valued presentation
# with another oracle can pick up a foreign plan.
_PLAN_CACHE: Dict[Tuple[int, Optional[int], bool], StratifiedPlan] = {}


def _plan(
    pres: ModelFunctorPresentation, t: Optional[int], check_stability: bool
) -> StratifiedPlan:
    key = (id(pres), t, check_stability)
    plan = _PLAN_CACHE.get(key)
    if plan is None or plan.pres is not pres:
        plan = _PLAN_CACHE[key] = StratifiedPlan(pres, t, check_stability)
    return plan


def mf_count_via_groupoid(
    pres: ModelFunctorPresentation,
    n: int,
    t: Optional[int] = None,
    check_stability: bool = True,
) -> int:
    """Sym([n])-orbit count on F([n])/~ via the stratified groupoid formula.

    Peels calibrated strata from the count set (each counted by a groupoid
    Burnside sum over exact lattice level counts), recursing on the
    complement sub-model functor until the count set is finite or its next
    stratum is not occupied at n; the tail then counts the level n - s0 of
    the count set left with one shadow call per class.  Requires the
    presentation's count-vector shadow.  The n-independent work is kept in a
    plan per presentation and reused by later calls.
    """
    if pres.count_equivalents is None:
        raise TooLarge(
            "groupoid-route counting needs a builtin presentation "
            "(count-vector shadow); use mf_orbit_count_direct instead"
        )
    if n < pres.s0:
        return 0
    plan = _plan(pres, t, check_stability)
    total = 0
    M_cur = pres.countset
    for _ in range(10000):
        if M_cur.is_empty():
            return total
        analysis = None if M_cur.is_finite() else plan.calibrated(M_cur, n)
        if analysis is None or n - pres.s0 < analysis.min_occupied_total():
            # a finite count set, or a stratum not occupied at n: the shadow
            # preserves word length, so no peel from this or any deeper
            # stratum (their cone levels only grow) can remove a vector at
            # this level, and the remaining classes are countable now
            return total + _tail_count(pres, M_cur, n)
        total += analysis.stratum_count(n)
        M_cur = plan.peeled(analysis)
    raise Unstable("stratification did not terminate")


def _learn_minimal_nonmembers(
    member: Callable[[Vector], bool], caps: Vector
) -> List[Vector]:
    """Minimal elements of the complement of a downward-closed set, probed
    within the cap box (the complement's minimal elements must lie inside)."""
    outside = lru_cache(maxsize=None)(lambda v: not member(v))
    learned = DownwardClosedSet(len(caps), _minimal_elements(outside, (0,) * len(caps), caps))
    # sanity sweep: the learned antichain must reproduce membership on a grid
    for probe in product(*(range(0, c + 1, max(1, c // 3)) for c in caps)):
        if learned.membership(probe) == outside(probe):
            raise Unstable(f"non-monotone membership near {probe}")
    return list(learned.obstructions)


def _minimal_elements(
    up: Callable[[Vector], bool], floor: Vector, cap: Vector
) -> Tuple[Vector, ...]:
    """Minimal elements of an up-set within the box [floor, cap], found by
    corner probes and coordinate descent.  ``up`` should be memoised: the
    search asks it about the same points again."""
    minimals: Set[Vector] = set()
    visited: Set[Vector] = set()

    def minimize(v: Vector) -> Vector:
        cur = list(v)
        changed = True
        while changed:
            changed = False
            for j in range(len(cur)):
                while cur[j] > floor[j] and up(tuple(cur[:j] + [cur[j] - 1] + cur[j + 1 :])):
                    cur[j] -= 1
                    changed = True
        return tuple(cur)

    def search(corner: Vector) -> None:
        if corner in visited:
            return
        visited.add(corner)
        if not up(corner):
            return
        m = minimize(corner)
        minimals.add(m)
        for j in range(len(corner)):
            if m[j] > floor[j]:
                search(corner[:j] + (m[j] - 1,) + corner[j + 1 :])

    search(cap)
    return antichain_reduce(minimals)

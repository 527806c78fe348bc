import dataclasses
import random
import re
import tracemalloc
from itertools import combinations, permutations, product
from math import comb, gcd

import pytest

from widecount import lattice
from widecount.actions import (
    PermGroup,
    Permutation,
    TooLarge,
    UnionFind,
    budget,
    groupoid_orbit_count,
    groupoid_orbits_enumerate,
)
from widecount.functors.elementary import ElementaryModelFunctor, all_subgroups, elementary_count
from widecount.functors.extraction import (
    _PLAN_CACHE,
    MAX_QUADRUPLES,
    NotCalibrated,
    Quadruple,
    StratumAnalysis,
    Unstable,
    _plan,
    _tail_count,
    analyze_pair,
    compute_frame,
    default_threshold,
    extract_groupoid,
    mf_count_via_groupoid,
    strata_against_peels,
)
from widecount.functors.model import (
    MFPair,
    elementary_embedding,
    mf_orbit_count_direct,
    roots_of_unity,
    trivial_presentation,
)
from widecount.gallery import cube_orbit_count
from widecount.lattice import DownwardClosedSet, antichain_reduce


def cube_formula(d, n):
    total = 0
    for e in range(d):
        f = gcd(d, e) if e else d
        if n % (d // f) == 0:
            total += comb(n // (d // f) + f - 1, f - 1)
    return total // d


def _arrow_order(groupoid, arrow):
    ident = groupoid.identities[arrow.src]
    cur, k = arrow, 1
    while cur != ident:
        cur = groupoid.compose(cur, arrow)
        k += 1
        assert k <= 64
    return k


@pytest.mark.parametrize("d", [2, 3, 4])
def test_roots_groupoid_is_cyclic(d):
    eg = extract_groupoid(roots_of_unity(d), e=0)
    g = eg.groupoid
    assert len(g.objects) == 1
    assert len(g.arrows) == d
    orders = sorted(_arrow_order(g, a) for a in g.arrows)
    # element orders of Z/d: one per divisor pattern; a generator of order d exists
    assert orders[0] == 1 and orders[-1] == d
    expected = sorted(d // gcd(d, a) for a in range(d))
    assert orders == expected


def test_roots_core_is_empty_at_higher_e():
    eg = extract_groupoid(roots_of_unity(2), e=1)
    assert len(eg.groupoid.objects) == 0


def test_trivial_presentation_identity_arrows_only():
    pres = trivial_presentation(2, s0=0)
    eg = extract_groupoid(pres, e=0)
    g = eg.groupoid
    assert len(g.objects) >= 1
    for a in g.arrows:
        assert a.src == a.dst and _arrow_order(g, a) == 1


def test_elementary_embedding_groupoid_arrows_from_group():
    emf = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    eg = extract_groupoid(elementary_embedding(emf), e=0)
    g = eg.groupoid
    assert len(g.objects) == 1
    assert len(g.arrows) == 2  # induced by Sym(2) on the letters


def test_action_at_level_validates_and_counts():
    for d in (2, 3):
        eg = extract_groupoid(roots_of_unity(d), e=0)
        level = eg.analysis.min_occupied_total() + d + 1
        act = eg.action_at_level(level)
        assert len(act.carrier) > 0
        # construction of GroupoidAction already validates the axioms
        assert groupoid_orbit_count(act) == len(groupoid_orbits_enumerate(act))


def test_analyze_pair_worked_example():
    # d=2 at n = 2t+1: any calibrated pair has empty core and sigma1 -> letter d
    t = 3
    pres = roots_of_unity(2)
    pair = MFPair(2 * t + 1, (4,), (1, 1, 1, 2, 2, 2))
    quint = analyze_pair(pres, 2 * t + 1, pair, t=t)
    assert quint.quadruple.e == 0
    assert quint.quadruple.J == (1, 2)
    assert quint.quadruple.sigma1 == (2,)
    assert sum(quint.u) == 2 * t + 1


def test_analyze_pair_elementary_core_is_infrequent_positions():
    emf = ElementaryModelFunctor(2, PermGroup.trivial(2), DownwardClosedSet(2, [(2, 0)]))
    pres = elementary_embedding(emf)
    t = 5
    # one infrequent letter-1 position among many letter-2 positions
    word = (1,) + (2,) * (t + 2)
    pair = MFPair(len(word), (), word)
    quint = analyze_pair(pres, len(word), pair, t=t)
    assert quint.quadruple.e == 1
    assert quint.quadruple.J == (2,)
    assert quint.quadruple.abar == ((1, 1),)


def test_analyze_pair_not_calibrated():
    pres = roots_of_unity(2)
    with pytest.raises(NotCalibrated):
        analyze_pair(pres, 5, MFPair(5, (1,), (1, 1, 1, 1)), t=3)


def _count_at_threshold(pres, n, t):
    # the stratified count with every stratum built at threshold t (raised
    # above the count set's obstruction entries, below which the cone is
    # unsound) and no stability check: the strata are occupied from small n
    # on, so the groupoid sums are checked at levels the default never reads
    total, M = 0, pres.countset
    while not M.is_finite():
        floor = max((x for o in M.obstructions for x in o), default=0) + 1
        analysis = StratumAnalysis(pres, M, max(t, floor))
        if n - pres.s0 < analysis.min_occupied_total():
            break
        total += analysis.stratum_count(n)
        M = analysis.peeled()
    return total + _tail_count(pres, M, n)


@pytest.mark.parametrize("d,t_override,nmax", [(2, 2, 24), (3, 2, 15), (4, 2, 18)])
def test_stratified_count_matches_formula_small_t(d, t_override, nmax):
    pres = roots_of_unity(d)
    first = StratumAnalysis(pres, pres.countset, t_override).min_occupied_total()
    assert nmax - pres.s0 >= first  # the sweep reaches the first stratum
    for n in range(nmax + 1):
        got = _count_at_threshold(pres, n, t_override)
        want = cube_formula(d, n) if n >= 1 else 0
        assert got == want, (d, n, got, want)


@pytest.mark.parametrize("d,nmin,nmax", [(2, 0, 30), (3, 45, 52), (4, 80, 82)])
def test_stratified_count_matches_formula_where_the_first_stratum_fills(d, nmin, nmax):
    # the first stratum is occupied from n = 25, 49 and 81 on; the levels
    # straddle that length, so both the tail alone and stratum plus tail run
    pres = roots_of_unity(d)
    for n in range(nmin, nmax + 1):
        got = mf_count_via_groupoid(pres, n)
        want = cube_formula(d, n) if n >= 1 else 0
        assert got == want, (d, n, got, want)
    assert _plan(pres).strata(nmax)[0]


@pytest.mark.parametrize("d,third", [(2, 28), (3, 54)])
def test_stratified_count_matches_formula_up_to_the_third_stratum(d, third):
    # every n from 1 to the first length at which the third stratum is
    # occupied, so each stratum is read from its first occupied level on
    pres = roots_of_unity(d)
    assert [pres.s0 + a.min_occupied_total() for a in _plan(pres).strata(third)[0]][2:] == [third]
    for n in range(1, third + 1):
        assert mf_count_via_groupoid(pres, n) == cube_orbit_count(d, n), (d, n)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stratified_count_matches_direct_default(d):
    pres = roots_of_unity(d)
    for n in range(8):
        assert mf_count_via_groupoid(pres, n) == mf_orbit_count_direct(pres, n)


def _first_occupied(pres):
    return pres.s0 + _plan(pres).first_stratum().min_occupied_total()


def test_stratified_count_elementary_and_trivial():
    # each sweep runs n0 - 1 .. n0 + 3 around the first occupied length n0
    emf = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    emf2 = ElementaryModelFunctor(2, PermGroup.trivial(2), DownwardClosedSet(2, [(3, 0)]))
    for m, n0 in ((emf, 8), (emf2, 10)):
        pe = elementary_embedding(m)
        assert _first_occupied(pe) == n0
        for n in range(n0 - 1, n0 + 4):
            assert mf_count_via_groupoid(pe, n) == elementary_count(m, n), (m, n)

    # under equality every class is one pair, so the orbits are the count
    # vectors
    pt = trivial_presentation(2, s0=1)
    assert _first_occupied(pt) == 9
    for n in range(8, 13):
        assert mf_count_via_groupoid(pt, n) == comb(n - pt.s0 + pt.k - 1, pt.k - 1), n


def test_degenerate_empty_countset():
    pres = trivial_presentation(2, s0=0, countset=DownwardClosedSet.empty(2))
    for n in range(5):
        assert mf_count_via_groupoid(pres, n) == 0
        assert mf_orbit_count_direct(pres, n) == 0


def test_the_empty_count_set_has_no_frame():
    # the zero obstruction lies inside every letter set, so none is pumpable:
    # the frame, the groupoid and a pair's quintuple are refused by name,
    # while the count is 0 without a frame
    pres = trivial_presentation(2, s0=1, countset=DownwardClosedSet.empty(2))
    try:
        for build in (
            lambda: compute_frame(pres.countset),
            lambda: extract_groupoid(pres, 0),
            lambda: analyze_pair(pres, 3, MFPair(3, (1,), (1, 2)), t=1),
        ):
            with pytest.raises(ValueError, match="is empty: it has no pumpable letter set"):
                build()
        assert [mf_count_via_groupoid(pres, n) for n in range(4)] == [0, 0, 0, 0]
    finally:
        _PLAN_CACHE.clear()


def test_core_size_bound():
    # every computed core has size <= s0 + infrequent budget
    pres = roots_of_unity(2)
    eg = extract_groupoid(pres, e=0)
    frame = eg.analysis.frame
    for e in range(pres.s0 + frame.d_inf + 2):
        objs = extract_groupoid(pres, e=e).groupoid.objects if e <= pres.s0 + frame.d_inf else ()
        for q in objs:
            assert q.e <= pres.s0 + frame.d_inf


def test_roots_d2_default_past_the_second_stratum():
    # the strata at t = 2, 6, 13 and 27 are occupied from n = 9, 15, 28 and 55
    pres = roots_of_unity(2)
    for n in range(74, 151):
        assert mf_count_via_groupoid(pres, n) == cube_orbit_count(2, n), n


def _over_the_cap(pres, M):
    """Does M have more labeled quadruples of some core size than the cap?"""
    return StratumAnalysis(pres, M, default_threshold(M)).most_labeled > MAX_QUADRUPLES


def test_a_stratum_over_the_quadruple_cap_is_left_to_the_tail():
    # S_3 words avoiding the orbit of (2, 4, 4): the strata at t = 5 and 11
    # are occupied from n = 21 and 44, and from n = 44 on the count set left
    # has 6 291 456 labeled quadruples of one core size: the tail counts it
    # instead of refusing it
    emf = ElementaryModelFunctor(
        3, PermGroup.symmetric(3), DownwardClosedSet(3, [(2, 4, 4), (4, 2, 4), (4, 4, 2)])
    )
    pres = elementary_embedding(emf)
    plan = _plan(pres)
    assert not _over_the_cap(pres, plan.strata(43)[1])
    for n in (44, 60):
        strata, left = plan.strata(n)
        assert [a.t for a in strata] == [5, 11] and _over_the_cap(pres, left), n
        assert mf_count_via_groupoid(pres, n) == elementary_count(emf, n), n


def test_a_budget_below_a_stratum_under_the_cap_still_refuses():
    # at n = 15 the second d = 2 stratum (t = 6) has 8 labeled quadruples of
    # core size 3, far below the cap: a smaller budget refuses, as a budget
    # does, while n = 14, where that stratum is not occupied, still counts
    with budget(max_states=7):
        assert mf_count_via_groupoid(roots_of_unity(2), 14) == cube_orbit_count(2, 14)
        with pytest.raises(TooLarge, match="labeled quadruples: 8 exceeds the budget 7"):
            mf_count_via_groupoid(roots_of_unity(2), 15)


def _random_elementary(rng):
    """Two or three letters, any letter group, and up to two of its orbits
    of nonzero obstructions with entries at most 4."""
    k = rng.choice((2, 3))
    group = rng.choice(all_subgroups(k))
    obstructions = set()
    for _ in range(rng.randint(0, 2)):
        o = (0,) * k
        while not any(o):
            o = tuple(rng.randint(0, 4) for _ in range(k))
        obstructions |= {tuple(o[g(j) - 1] for j in range(1, k + 1)) for g in group}
    return ElementaryModelFunctor(k, group, DownwardClosedSet(k, obstructions))


def test_random_elementary_presentations():
    # n = 0..5 and, for an infinite count set, the levels around the first
    # occupied length and at twice and three times it, where deeper strata
    # are occupied and some are over the quadruple cap
    rng = random.Random(2026)
    read = fallbacks = 0
    try:
        for _ in range(40):
            emf = _random_elementary(rng)
            pres = elementary_embedding(emf)
            plan = _plan(pres)
            levels = set(range(6))
            if not pres.countset.is_finite():
                first = _first_occupied(pres)
                levels |= {*range(first - 1, first + 6), 2 * first, 3 * first}
                read += bool(plan.strata(first + 5)[0])
            for n in sorted(levels):
                assert mf_count_via_groupoid(pres, n) == elementary_count(emf, n), (emf, n)
                left = plan.strata(n)[1]
                fallbacks += not left.is_finite() and _over_the_cap(pres, left)
    finally:
        _PLAN_CACHE.clear()
    assert read > 20
    assert fallbacks > 0


def test_default_thresholds_above_fill_level():
    # levels at which the d = 3 strata at t = 2, 6 and 13 (first occupied at
    # n = 13, 27 and 54) are all occupied, and the S_3 words' at t = 2 and 5
    pres = roots_of_unity(3)
    for n in range(49, 121):
        assert mf_count_via_groupoid(pres, n) == cube_orbit_count(3, n), n
    emf = ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
    words = elementary_embedding(emf)
    for n in range(36, 46):
        assert mf_count_via_groupoid(words, n) == elementary_count(emf, n), n


def _frame_brute_force(M):
    """The calibration frame from its definition, through membership alone:
    I is pumpable when M holds a vector exceeding every obstruction entry on
    I and zero elsewhere, and a profile v0 off I blocks every obstruction
    when v0 plus that vector lies in M."""
    k = M.k
    top = max((x for o in M.obstructions for x in o), default=0)
    pumped = [
        I
        for size in range(k + 1)
        for I in combinations(range(1, k + 1), size)
        if M.membership(tuple(top + 1 if j in I else 0 for j in range(1, k + 1)))
    ]
    I = min(pumped, key=lambda I: (-len(I), I))
    off = [j for j in range(1, k + 1) if j not in I]

    def full(profile):
        v = [top + 1 if j in I else 0 for j in range(1, k + 1)]
        for j, x in zip(off, profile):
            v[j - 1] = x
        return tuple(v)

    blocking = [p for p in product(range(top + 1), repeat=len(off)) if M.membership(full(p))]
    profile = max(blocking, key=lambda p: (sum(p), p))
    v0 = tuple(0 if j in I else x for j, x in enumerate(full(profile), start=1))
    return I, v0, sum(v0)


def test_compute_frame_against_its_definition():
    rng = random.Random(5)
    checked = 0
    while checked < 300:
        k = rng.randint(1, 5)
        obstructions = [
            tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(0, 4))
        ]
        M = DownwardClosedSet(k, obstructions)
        if M.is_empty():
            continue
        frame = compute_frame(M)
        assert (frame.I, frame.v0, frame.d_inf) == _frame_brute_force(M), M
        checked += 1


def _first_strata():
    # I = {1}: two infrequent letters, so abar letters mix; s0 = 2 puts
    # distinct sigma0 indices among them.  The enumeration reads only the
    # frame, so any threshold will do.
    M = DownwardClosedSet(3, [(2, 2, 0), (2, 0, 2), (0, 2, 2)])
    yield StratumAnalysis(trivial_presentation(3, s0=2, countset=M), M, t=5)
    for pres in (roots_of_unity(3), S3_WORDS, C3_OBSTRUCTED):
        yield StratumAnalysis(pres, pres.countset, t=5)


def test_relabelings_equal_sym_e_expansion():
    mixed = 0
    for analysis in _first_strata():
        for e in range(analysis.pres.s0 + analysis.frame.d_inf + 2):
            reps = analysis.orbit_reps(e)
            mixed += sum(1 for rep in reps if len({l for _, l in rep.abar}) > 1)
            expanded = {
                rep.relabel(Permutation(images))
                for rep in reps
                for images in permutations(range(1, e + 1))
            }
            got = analysis.labeled_quadruples(e)
            assert analysis.labeled_count(e) == len(got) == len(expanded), e
            assert got == sorted(expanded, key=Quadruple.sort_key), e
    assert mixed > 0


def test_arrows_pruned_by_the_shadow_equal_the_unpruned_search():
    # every labeled target built and asked, as before the seed's shadow
    # pruned them: the same arrows, in the same order
    strata = [*_first_strata(), *_plan(roots_of_unity(2)).strata(60)[0],
              *_plan(roots_of_unity(3)).strata(60)[0], *_plan(C3_OBSTRUCTED).strata(30)[0],
              *_plan(S3_WORDS).strata(30)[0]]
    asked = 0
    for analysis in strata:
        pres, k = analysis.pres, analysis.pres.k
        for e in range(pres.s0 + analysis.frame.d_inf + 1):
            for q in analysis.orbit_reps(e):
                seed = analysis.realized_seed(q)
                if seed is None:
                    continue
                u0, unpruned = analysis.u_test(q), []
                for q_target in analysis.labeled_quadruples(e):
                    for g_images in permutations(q_target.J):
                        target = analysis.build_target(q, u0, q_target, dict(zip(q.J, g_images)))
                        if target is None or not analysis.M.membership(target.count_vector(k)):
                            continue
                        asked += 1
                        if pres.eq(seed.n, seed, target):
                            unpruned.append((q_target, g_images))
                assert analysis.discover_arrows(q, seed) == unpruned, (pres.name, analysis.t, q)
    assert asked > 300  # 337 targets built and asked


def test_labeled_quadruples_budget_checked_before_generating():
    analysis = next(_first_strata())
    assert analysis.pres.s0 + analysis.frame.d_inf == 4
    with budget(max_states=50):
        assert len(analysis.orbit_reps(4)) <= 50  # 48 reps with 384 relabelings
        with pytest.raises(TooLarge, match="labeled quadruples: 384 exceeds the budget 50"):
            analysis.labeled_quadruples(4)


def test_plan_is_built_once_per_sweep(monkeypatch):
    builds = []
    init = StratumAnalysis.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StratumAnalysis, "__init__", counting_init)
    pres = roots_of_unity(3)
    _PLAN_CACHE.clear()
    mf_count_via_groupoid(pres, 70)
    alone = len(builds)
    assert alone > 0
    _PLAN_CACHE.clear()
    builds.clear()
    for n in range(49, 71):
        mf_count_via_groupoid(pres, n)
    assert len(builds) == alone
    mf_count_via_groupoid(pres, 70)
    assert len(builds) == alone  # reused
    _PLAN_CACHE.clear()
    mf_count_via_groupoid(pres, 70)
    assert len(builds) == 2 * alone  # rebuilt
    # an equal but distinct presentation gets its own plan
    twin = roots_of_unity(3)
    assert twin == pres and twin is not pres
    before = len(builds)
    mf_count_via_groupoid(twin, 70)
    assert len(builds) == before + alone


def test_an_unstable_threshold_doubles(monkeypatch):
    # the peel at t = 2 made to remove one class more than the stratum
    # counts: the first stratum of d = 2 is counted at t = 4, so it is
    # occupied only from n = 17; the failed check at t = 2 is made once
    removed_classes = StratumAnalysis.removed_classes
    checked_at_2 = []

    def one_too_many_at_2(self, level):
        if self.t == 2:
            checked_at_2.append(level)
        return removed_classes(self, level) + (self.t == 2)

    monkeypatch.setattr(StratumAnalysis, "removed_classes", one_too_many_at_2)
    pres = roots_of_unity(2)
    plan = _plan(pres)
    try:
        for n in range(1, 60):
            assert [a.t for a in plan.strata(n)[0]][:1] == ([4] if n >= 17 else []), n
            assert mf_count_via_groupoid(pres, n) == cube_orbit_count(2, n), n
        assert len(checked_at_2) == 1
        # when the self-check fails at every threshold, doubling stops at
        # MAX_T, whose mismatch is named at its first check level, n = 256;
        # it is raised at the first n that reaches the default threshold,
        # n = 9, and below that the tail still counts
        monkeypatch.setattr(
            StratumAnalysis,
            "removed_classes",
            lambda self, level: removed_classes(self, level) + 1,
        )
        pres = roots_of_unity(2)
        assert mf_count_via_groupoid(pres, 8) == cube_orbit_count(2, 8)
        with pytest.raises(
            Unstable, match=re.escape("over I=(1, 2) counts 0 classes at n=256, its peel removes 1")
        ) as raised:
            mf_count_via_groupoid(pres, 9)
        assert str(raised.value).endswith("(t=64)")
        # the plan keeps the failure: the next count builds no analysis and
        # raises the same message
        built = []
        init = StratumAnalysis.__init__

        def counting_init(self, *args):
            built.append(args[-1])
            init(self, *args)

        monkeypatch.setattr(StratumAnalysis, "__init__", counting_init)
        with pytest.raises(Unstable) as again:
            mf_count_via_groupoid(pres, 10)
        assert str(again.value) == str(raised.value) and built == []
    finally:
        _PLAN_CACHE.clear()


def test_a_hole_doubles_the_threshold(monkeypatch):
    # the first d = 2 stratum's peel made to leave a hole at t = 2: it is
    # counted at t = 4, so it is occupied only from n = 17
    pres = roots_of_unity(2)
    peeled = StratumAnalysis.peeled

    def holed(self):
        if self.t == 2 and self.M == pres.countset:
            raise Unstable("peel leaves a hole at (5, 4); raise t")
        return peeled(self)

    monkeypatch.setattr(StratumAnalysis, "peeled", holed)
    plan = _plan(pres)
    try:
        for n in range(1, 60):
            assert [a.t for a in plan.strata(n)[0]][:1] == ([4] if n >= 17 else []), n
            assert mf_count_via_groupoid(pres, n) == cube_orbit_count(2, n), n
        # a peel that leaves a hole at every threshold stops the doubling at MAX_T
        def always_holed(self):
            raise Unstable("peel leaves a hole at (5, 4); raise t")

        monkeypatch.setattr(StratumAnalysis, "peeled", always_holed)
        with pytest.raises(Unstable, match=re.escape("hole at (5, 4); raise t (t=64)")):
            mf_count_via_groupoid(roots_of_unity(2), 257)
    finally:
        _PLAN_CACHE.clear()


def test_stanley_pieces_are_built_once_per_sweep(monkeypatch):
    # each stratum keeps its count as level terms, so later n only evaluate them
    calls = []
    decompose = lattice.stanley_decompose

    def counting_decompose(M):
        calls.append(None)
        return decompose(M)

    monkeypatch.setattr(lattice, "stanley_decompose", counting_decompose)
    # a sweep reaching the strata at t = 2, 6, 13 and 27 one by one decomposes
    # what its last n alone does
    pres = roots_of_unity(2)
    _PLAN_CACHE.clear()
    assert mf_count_via_groupoid(pres, 74) == cube_orbit_count(2, 74)
    assert [a.t for a in _plan(pres).strata(74)[0]] == [2, 6, 13, 27]
    alone = len(calls)
    assert alone > 0
    _PLAN_CACHE.clear()
    calls.clear()
    for n in range(1, 75):
        assert mf_count_via_groupoid(pres, n) == cube_orbit_count(2, n), n
    assert len(calls) == alone


@pytest.mark.parametrize(
    "label,t,arrows",
    [("roots2", 2, 2), ("roots3", 2, 3), ("roots4", 2, 4), ("s3_words", 2, 6)],
)
def test_extract_groupoid_takes_the_plan_calibration(label, t, arrows):
    if label == "s3_words":
        emf = ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
        pres = elementary_embedding(emf)
    else:
        pres = roots_of_unity(int(label[-1]))
    _PLAN_CACHE.clear()
    eg = extract_groupoid(pres, e=0)
    assert eg.t == eg.analysis.t == t
    assert len(eg.groupoid.objects) == 1
    assert len(eg.groupoid.arrows) == arrows


def test_extract_groupoid_shares_the_first_stratum_with_the_count(monkeypatch):
    # the groupoid is read off the count's first stratum, so extracting it
    # first builds no analysis the count alone would not
    built = []
    init = StratumAnalysis.__init__

    def counting_init(self, pres, M, t):
        built.append(t)
        init(self, pres, M, t)

    monkeypatch.setattr(StratumAnalysis, "__init__", counting_init)
    pres = roots_of_unity(2)
    try:
        mf_count_via_groupoid(pres, 20)
        alone = list(built)
        built.clear()
        pres = roots_of_unity(2)
        extract_groupoid(pres, e=0)
        mf_count_via_groupoid(pres, 20)
        assert built == alone == [2, 6, 13]
    finally:
        _PLAN_CACHE.clear()


@pytest.mark.parametrize(
    "route",
    [
        pytest.param(mf_count_via_groupoid, id="mf_count_via_groupoid"),
        pytest.param(lambda pres, n: extract_groupoid(pres, e=0), id="extract_groupoid"),
        pytest.param(lambda pres, n: strata_against_peels(pres, [n]), id="strata_against_peels"),
    ],
)
@pytest.mark.parametrize("n", [4, 25])  # the first stratum is occupied from n = 9
def test_stratified_routes_need_the_shadow(route, n):
    pres = dataclasses.replace(roots_of_unity(2), count_equivalents=None)
    with pytest.raises(TooLarge, match="count-vector shadow"):
        route(pres, n)


def _objects(analysis):
    return [
        q
        for e in range(analysis.pres.s0 + analysis.frame.d_inf + 1)
        for q, _ in analysis.object_data(e)
    ]


def test_up_set_guard_rejects_a_minimum_the_oracle_does_not_see(monkeypatch):
    # the oracle turns down the seed of one built minimal point: the count
    # must name that object and point, and search no further
    pres = roots_of_unity(2)
    _PLAN_CACHE.clear()
    analysis = _plan(pres).first_stratum()
    q = _objects(analysis)[-1]
    u = analysis.up_antichain(q)[0]
    seed = analysis.build_target(q, dict(zip(q.J, u)), q, {l: l for l in q.J})
    observed = StratumAnalysis.observed_quadruple

    def blind(self, pair, J, expected_e=None):
        return None if pair == seed else observed(self, pair, J, expected_e)

    monkeypatch.setattr(StratumAnalysis, "observed_quadruple", blind)
    _PLAN_CACHE.clear()
    try:
        n = pres.s0 + analysis.min_occupied_total()
        # below the stratum's first occupied length nothing reads the region
        assert mf_count_via_groupoid(pres, n - 1) == cube_orbit_count(2, n - 1)
        with pytest.raises(Unstable, match=re.escape(f"{q} at its calibrated minimum {u}")):
            mf_count_via_groupoid(pres, n)
    finally:
        _PLAN_CACHE.clear()


def test_up_set_guard_rejects_a_minimum_past_the_cone_walk():
    # below the box the walk holds every cone-equivalent vector; a minimal
    # point past it may not be minimal, so it is refused
    pres = roots_of_unity(2)
    analysis = StratumAnalysis(pres, pres.countset, 6)
    q = _objects(analysis)[0]
    box, shadows = analysis._cone_walk()
    assert analysis.up_antichain(q)
    analysis._walk = (min(max(gamma) for gamma in shadows) - 1, shadows)
    with pytest.raises(Unstable, match="lies past the cone walk"):
        analysis.up_antichain(q)
    # q is an object, so a walk that holds none of its region missed it
    analysis._walk = (box, set())
    with pytest.raises(Unstable, match="no calibrated point"):
        analysis.up_antichain(q)


def test_up_sets_are_built_only_at_the_counted_threshold(monkeypatch):
    # the self-check reads the counted stratum itself, so up-sets are built
    # only at the thresholds the count reads
    built = []
    build = StratumAnalysis.up_antichain

    def counting_build(self, q):
        built.append(self.t)
        return build(self, q)

    monkeypatch.setattr(StratumAnalysis, "up_antichain", counting_build)
    pres = roots_of_unity(3)
    _PLAN_CACHE.clear()
    assert mf_count_via_groupoid(pres, 70) == cube_orbit_count(3, 70)
    assert built and set(built) == {a.t for a in _plan(pres).strata(70)[0]} == {2, 6, 13}


def test_deadline_leaves_no_half_built_plan(monkeypatch):
    from widecount.functors import extraction

    pres = roots_of_unity(3)
    with budget(seconds=0), pytest.raises(TooLarge, match="time limit"):
        mf_count_via_groupoid(pres, 60)
    assert mf_count_via_groupoid(pres, 60) == cube_formula(3, 60)
    # stop at the k-th tick, at several depths of the build, then rerun
    for stop in (1, 5, 40, 200):
        pres = roots_of_unity(3)
        ticks = []

        def tick():
            ticks.append(None)
            if len(ticks) == stop:
                raise TooLarge("time limit reached")

        monkeypatch.setattr(extraction, "tick", tick)
        with pytest.raises(TooLarge):
            mf_count_via_groupoid(pres, 60)
        monkeypatch.undo()
        assert mf_count_via_groupoid(pres, 60) == cube_formula(3, 60), stop


@pytest.mark.parametrize(
    "pres,n",
    [
        pytest.param(roots_of_unity(2), 9, id="roots2"),
        pytest.param(roots_of_unity(3), 13, id="roots3"),
        pytest.param(roots_of_unity(4), 17, id="roots4"),
        pytest.param(
            elementary_embedding(
                ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
            ),
            12,
            id="S3-words",
        ),
        pytest.param(
            elementary_embedding(
                ElementaryModelFunctor(
                    3, PermGroup.cyclic(3), DownwardClosedSet(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
                )
            ),
            7,
            id="C3-words-obstructed",
        ),
    ],
)
def test_tail_count_is_the_shadow_component_count(pres, n):
    # n is the first length at which the first stratum is occupied
    [analysis] = _plan(pres).strata(n)[0]
    assert n - pres.s0 == analysis.min_occupied_total()
    for M in (pres.countset, analysis.peeled()):
        betas = M.enumerate_level(n - pres.s0)
        on_level = set(betas)
        uf = UnionFind(betas)
        for beta in betas:
            for gamma in pres.count_equivalents(beta):
                if gamma in on_level:
                    uf.union(beta, gamma)
        components = len(uf.blocks())

        calls = []

        def hook(beta):
            calls.append(beta)
            return pres.count_equivalents(beta)

        counted = _tail_count(dataclasses.replace(pres, count_equivalents=hook), M, n)
        assert counted == components
        assert len(calls) == components


def _tail_count_reference(pres, M, n):
    """The tail as a list-and-set loop: the whole level listed, one tuple
    kept for every vector a shadow reached and the loop has not visited."""
    level = n - pres.s0
    if level < 0:
        return 0
    seen = set()
    classes = 0
    for beta in M.enumerate_level(level):
        if beta in seen:
            seen.discard(beta)
        else:
            classes += 1
            seen.update(pres.count_equivalents(beta))
    return classes


def _recording(pres):
    calls = []

    def hook(beta):
        calls.append(beta)
        return pres.count_equivalents(beta)

    return dataclasses.replace(pres, count_equivalents=hook), calls


def _assert_tail_matches_reference(pres, M, n):
    walked, walked_calls = _recording(pres)
    listed, listed_calls = _recording(pres)
    assert _tail_count(walked, M, n) == _tail_count_reference(listed, M, n), (pres.name, M, n)
    assert walked_calls == listed_calls, (pres.name, M, n)


def test_tail_count_equals_the_list_and_set_loop_on_random_sets():
    rng = random.Random(18)
    for _ in range(40):
        k = rng.randint(1, 5)
        M = DownwardClosedSet(
            k, [tuple(rng.randint(0, 6) for _ in range(k)) for _ in range(rng.randint(0, 4))]
        )
        # any shadow will do: the walk must skip exactly what the loop skips
        group = rng.choice([PermGroup.symmetric, PermGroup.cyclic, PermGroup.trivial])(k)
        pres = rng.choice([
            roots_of_unity(k),
            elementary_embedding(ElementaryModelFunctor(k, group, DownwardClosedSet.full(k))),
        ])
        for n in range(pres.s0, pres.s0 + 26):
            _assert_tail_matches_reference(pres, M, n)


@pytest.mark.parametrize(
    "pres",
    [
        *(pytest.param(roots_of_unity(d), id=f"roots{d}") for d in range(1, 6)),
        pytest.param(elementary_embedding(
            ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
        ), id="S3-words"),
        pytest.param(elementary_embedding(
            ElementaryModelFunctor(4, PermGroup.cyclic(4), DownwardClosedSet.full(4))
        ), id="C4-words"),
        pytest.param(elementary_embedding(
            ElementaryModelFunctor(2, PermGroup.trivial(2), DownwardClosedSet.full(2))
        ), id="trivial-k2"),
        pytest.param(elementary_embedding(
            ElementaryModelFunctor(1, PermGroup.trivial(1), DownwardClosedSet(1, [(9,)]))
        ), id="k1-capped"),
    ],
)
def test_tail_count_equals_the_list_and_set_loop_on_builtins(pres):
    for n in range(-1, 26):
        _assert_tail_matches_reference(pres, pres.countset, n)


def _tail_count_traced(pres, M, n):
    tracemalloc.start()
    try:
        counted = _tail_count(pres, M, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return counted, peak


def test_tail_count_memory_stays_below_the_level_size():
    # the count set left by the first d = 4 stratum peeled at t = 10, at
    # n = 81: a list of its 91 877 points and a set of reached tuples peak
    # at 17.2 MB, a set of marks per pending prefix at 4.15 MB, a byte row
    # per pending prefix at about 0.49 MB
    M = DownwardClosedSet(4, [(20, 20, 20, 20), (20, 20, 21, 19), (20, 21, 20, 19), (21, 20, 20, 19)])
    counted, peak = _tail_count_traced(roots_of_unity(4), M, 81)
    assert counted == 23820
    assert peak < 1_000_000, peak


def test_tail_count_memory_with_three_coordinate_prefixes():
    # k = 5, so the pending prefixes have three coordinates: a set of marks
    # per prefix peaks at 2.88 MB, a byte row per prefix at about 0.66 MB
    pres, M = roots_of_unity(5), DownwardClosedSet.full(5)
    counted, peak = _tail_count_traced(pres, M, 31)
    assert counted == _tail_count_reference(pres, M, 31) == 10472
    assert peak < 1_400_000, peak


def test_the_tail_counts_its_level_points_against_the_budget():
    # at n = 150 the d = 4 count set left by the strata at t = 2, 6 and 13
    # holds 119 044 level points; the tail has no cap of its own
    pres = roots_of_unity(4)
    with budget(max_states=10**5):
        with pytest.raises(TooLarge, match="tail level points: 100017 exceeds the budget 100000"):
            mf_count_via_groupoid(pres, 150)
    assert mf_count_via_groupoid(pres, 150) == cube_orbit_count(4, 150)


def test_deadline_reaches_the_tail_loop():
    pres = roots_of_unity(4)
    with budget(seconds=0), pytest.raises(TooLarge, match="time limit"):
        _tail_count(pres, pres.countset, 81)


S3_WORDS = elementary_embedding(
    ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
)


@pytest.mark.parametrize(
    "pres,levels",
    [
        # from the first stratum's first occupied level, past the second's
        pytest.param(roots_of_unity(2), [*range(9, 31), *range(55, 60)], id="roots2"),
        pytest.param(roots_of_unity(3), range(13, 31), id="roots3"),
        pytest.param(roots_of_unity(4), [17, 18, 39, 40], id="roots4"),
        pytest.param(S3_WORDS, range(12, 26), id="S3-words"),
    ],
)
def test_each_counted_stratum_counts_what_its_peel_removes(pres, levels):
    rows = strata_against_peels(pres, levels)
    for n, t, count, removed in rows:
        assert count == removed, (n, t)
    assert len(rows) >= len(levels)


def _removed_by_the_tails(analysis, level):
    """The two-tail reference: the classes of M at the level less those of
    the peeled set."""
    pres, n = analysis.pres, level + analysis.pres.s0
    return _tail_count(pres, analysis.M, n) - _tail_count(pres, analysis.peeled(), n)


@pytest.mark.parametrize(
    "pres,n",
    [
        # every stratum the oracle sweeps reach: t = 2, 6, 13, 27, 55 for
        # d = 2, up to 27 for d = 3, up to 13 for d = 4, up to 23 for S_3 words
        pytest.param(roots_of_unity(2), 400, id="roots2"),
        pytest.param(roots_of_unity(3), 150, id="roots3"),
        pytest.param(roots_of_unity(4), 90, id="roots4"),
        pytest.param(S3_WORDS, 119, id="S3-words"),
    ],
)
def test_removed_classes_equal_the_two_tails_on_builtins(pres, n):
    # ten levels from one below the first occupied one, past the four the
    # self-check reads
    strata = _plan(pres).strata(n)[0]
    assert len(strata) >= 3
    for analysis in strata:
        low = analysis.min_occupied_total()
        counts = [analysis.removed_classes(level) for level in range(low - 1, low + 9)]
        assert counts == [_removed_by_the_tails(analysis, level)
                          for level in range(low - 1, low + 9)], analysis.t
        assert counts[0] == 0 and all(counts[1:4]), analysis.t


def test_removed_classes_equal_the_two_tails_on_random_presentations():
    # the strata of the presentations of test_random_elementary_presentations
    # at its largest n, at the four self-check levels
    rng = random.Random(2026)
    checked = 0
    try:
        for _ in range(40):
            pres = elementary_embedding(_random_elementary(rng))
            if pres.countset.is_finite():
                continue
            for analysis in _plan(pres).strata(3 * _first_occupied(pres))[0]:
                low = analysis.min_occupied_total()
                counts = [analysis.removed_classes(level) for level in range(low - 1, low + 3)]
                assert counts == [_removed_by_the_tails(analysis, level)
                                  for level in range(low - 1, low + 3)], pres
                assert counts[0] == 0 and all(counts[1:]), pres
                checked += 1
    finally:
        _PLAN_CACHE.clear()
    assert checked > 70


def test_removed_classes_refuse_a_shadow_that_splits_a_class():
    # a shadow reaching (0, level) at the first occupied level leaves the
    # points the peel removes at t = 2, which lie in the cone over (4, 4)
    pres = roots_of_unity(2)
    analysis = StratumAnalysis(pres, pres.countset, 2)
    analysis.peeled()
    low = analysis.min_occupied_total()
    assert analysis.removed_classes(low) == 1
    shadow = pres.count_equivalents
    analysis.pres = dataclasses.replace(
        pres, count_equivalents=lambda beta: shadow(beta) | {(0, sum(beta))}
    )
    with pytest.raises(Unstable, match=re.escape("would split a class")):
        analysis.removed_classes(low)


C3_OBSTRUCTED = elementary_embedding(
    ElementaryModelFunctor(
        3, PermGroup.cyclic(3), DownwardClosedSet(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
    )
)


def test_peel_raises_on_a_hole():
    # the second d = 2 count set at the first stratum's t: (12, 11) is in M
    # and its own shadow, but it lies above (11, 11), which is equivalent to
    # the cone point (12, 10); a set learned from minimal non-members dropped it
    pres = roots_of_unity(2)
    first = StratumAnalysis(pres, pres.countset, 6)
    with pytest.raises(Unstable, match=r"hole at \(12, 11\)"):
        StratumAnalysis(pres, first.peeled(), 6).peeled()


@pytest.mark.parametrize(
    "pres,n",
    [
        pytest.param(roots_of_unity(2), 90, id="roots2"),  # t = 6 and t = 32
        pytest.param(roots_of_unity(3), 120, id="roots3"),
        pytest.param(S3_WORDS, 60, id="S3-words"),
        pytest.param(C3_OBSTRUCTED, 39, id="C3-words-obstructed"),
    ],
)
def test_built_peel_equals_the_brute_force_over_its_box(pres, n):
    # every point of the box stays exactly when it is in M and not
    # equivalent into the v-tilde cone
    strata = _plan(pres).strata(n)[0]
    assert strata
    for analysis in strata:
        M, v_tilde = analysis.M, analysis.frame.v(2 * analysis.t)
        box = max(max(v_tilde), max((x for o in M.obstructions for x in o), default=0)) + 2
        peeled = analysis.peeled()
        for x in product(range(box + 1), repeat=M.k):
            stays = M.membership(x) and not analysis.cone_equivalent(x, v_tilde)
            assert peeled.membership(x) == stays, (analysis.t, x)


def test_peel_trips_on_a_shadow_that_moves_an_entry_by_two():
    pres = roots_of_unity(2)
    shadow = pres.count_equivalents
    far = dataclasses.replace(
        pres, count_equivalents=lambda beta: shadow(beta) | {(beta[1] + 2, beta[0] - 2)}
    )
    with pytest.raises(Unstable, match="moves an entry by more than one"):
        StratumAnalysis(far, far.countset, 6).peeled()


def test_deadline_stops_a_peel_and_the_next_call_builds_it_whole(monkeypatch):
    from widecount.functors import extraction

    pres = roots_of_unity(3)
    whole = StratumAnalysis(pres, pres.countset, 8).peeled()
    analysis = StratumAnalysis(pres, pres.countset, 8)
    with budget(seconds=0), pytest.raises(TooLarge, match="time limit"):
        analysis.peeled()
    assert analysis._peeled is None
    # and halfway through the cone's 64 points
    ticks = []

    def tick():
        ticks.append(None)
        if len(ticks) == 32:
            raise TooLarge("time limit reached")

    monkeypatch.setattr(extraction, "tick", tick)
    with pytest.raises(TooLarge):
        analysis.peeled()
    monkeypatch.undo()
    assert analysis._peeled is None
    assert analysis.peeled() == whole


def test_built_up_sets_equal_the_brute_force_scan():
    # the old definition as the reference: (q, u) is calibrated when is_good
    # holds, scanned over the box [floor, floor + 2t + e + s0 + 3]
    for pres in (roots_of_unity(2), roots_of_unity(3), S3_WORDS, C3_OBSTRUCTED):
        _PLAN_CACHE.clear()
        analysis = _plan(pres).first_stratum()
        objects = _objects(analysis)
        assert objects
        for q in objects:
            floor = [q.sigma1_floor()[l] for l in q.J]
            side = 2 * analysis.t + q.e + pres.s0 + 3
            scan = product(*(range(f, f + side + 1) for f in floor))
            brute = antichain_reduce(u for u in scan if analysis.is_good(q, dict(zip(q.J, u))))
            assert tuple(analysis.up_antichain(q)) == brute, (pres.name, q)
    _PLAN_CACHE.clear()


@pytest.mark.parametrize(
    "pres,n",
    [
        pytest.param(roots_of_unity(3), 60, id="roots3"),
        pytest.param(S3_WORDS, 40, id="S3-words"),
    ],
)
def test_stratum_terms_read_the_peels_cone_walk(pres, n):
    # one cone walk per stratum: once the strata are calibrated and peeled,
    # the level terms ask the shadow nothing
    calls = []
    shadow = pres.count_equivalents
    counted = dataclasses.replace(
        pres, count_equivalents=lambda beta: calls.append(beta) or shadow(beta)
    )
    strata = _plan(counted).strata(n)[0]
    assert strata and calls
    calls.clear()
    for analysis in strata:
        analysis.stratum_terms()
    assert calls == []

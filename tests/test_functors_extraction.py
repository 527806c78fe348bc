import dataclasses
import random
from functools import lru_cache
from itertools import permutations, product
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
from widecount.functors.elementary import ElementaryModelFunctor, elementary_count
from widecount.functors.extraction import (
    _PLAN_CACHE,
    NotCalibrated,
    Quadruple,
    StratumAnalysis,
    Unstable,
    _minimal_elements,
    _plan,
    _tail_count,
    analyze_pair,
    extract_groupoid,
    mf_count_via_groupoid,
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


def test_explicit_t_is_stable_or_raises():
    # an explicit t either passes the t/t+1 stability gate (and then must
    # reproduce the default structure) or raises Unstable
    pres = roots_of_unity(3)
    default = extract_groupoid(pres, e=0)
    try:
        pinned = extract_groupoid(pres, e=0, t=1)
    except Unstable:
        return
    assert len(pinned.groupoid.objects) == len(default.groupoid.objects)
    assert len(pinned.groupoid.arrows) == len(default.groupoid.arrows)


@pytest.mark.parametrize("d,t_override,nmax", [(2, 2, 24), (3, 2, 15), (4, 2, 18)])
def test_stratified_count_matches_formula_small_t(d, t_override, nmax):
    pres = roots_of_unity(d)
    for n in range(nmax + 1):
        got = mf_count_via_groupoid(pres, n, t=t_override, check_stability=False)
        want = cube_formula(d, n) if n >= 1 else 0
        assert got == want, (d, n, got, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stratified_count_matches_direct_default(d):
    pres = roots_of_unity(d)
    for n in range(8):
        assert mf_count_via_groupoid(pres, n) == mf_orbit_count_direct(pres, n)


def test_stratified_count_elementary_and_trivial():
    emf = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    pe = elementary_embedding(emf)
    for n in range(10):
        assert mf_count_via_groupoid(pe, n) == elementary_count(emf, n)
        assert mf_count_via_groupoid(pe, n, t=3, check_stability=False) == elementary_count(emf, n)

    emf2 = ElementaryModelFunctor(2, PermGroup.trivial(2), DownwardClosedSet(2, [(3, 0)]))
    pe2 = elementary_embedding(emf2)
    for n in range(10):
        assert mf_count_via_groupoid(pe2, n, t=3, check_stability=False) == elementary_count(emf2, n)

    pt = trivial_presentation(2, s0=1)
    for n in range(1, 8):
        assert mf_count_via_groupoid(pt, n, t=3, check_stability=False) == mf_orbit_count_direct(pt, n)


def test_degenerate_empty_countset():
    pres = trivial_presentation(2, s0=0, countset=DownwardClosedSet.empty(2))
    for n in range(5):
        assert mf_count_via_groupoid(pres, n) == 0
        assert mf_orbit_count_direct(pres, n) == 0


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
    # from n = 76 on, the second stratum (core size up to 11) is occupied
    pres = roots_of_unity(2)
    for n in range(74, 151):
        assert mf_count_via_groupoid(pres, n) == cube_orbit_count(2, n), n


def test_default_thresholds_above_fill_level():
    # the first stratum fills at n = 49 for d = 3, and the S_3 words' one at 36
    pres = roots_of_unity(3)
    for n in range(49, 121):
        assert mf_count_via_groupoid(pres, n) == cube_orbit_count(3, n), n
    emf = ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
    words = elementary_embedding(emf)
    for n in range(36, 46):
        assert mf_count_via_groupoid(words, n) == elementary_count(emf, n), n


def test_relabelings_equal_sym_e_expansion():
    # I = {1}: two infrequent letters, so abar letters mix; s0 = 2 puts
    # distinct sigma0 indices among them
    M = DownwardClosedSet(3, [(2, 2, 0), (2, 0, 2), (0, 2, 2)])
    pres = trivial_presentation(3, s0=2, countset=M)
    analysis = StratumAnalysis(pres, M, t=5)
    assert pres.s0 + analysis.frame.d_inf == 4
    mixed = 0
    for e in range(6):
        reps = analysis.orbit_reps(e)
        mixed += sum(1 for rep in reps if len({l for _, l in rep.abar}) > 1)
        expanded = {
            rep.relabel(Permutation(images))
            for rep in reps
            for images in permutations(range(1, e + 1))
        }
        got = analysis.labeled_quadruples(e)
        assert len(got) == len(expanded), e
        assert got == sorted(expanded, key=Quadruple.sort_key), e
    assert mixed > 0


def test_labeled_quadruples_budget_checked_before_generating():
    M = DownwardClosedSet(3, [(2, 2, 0), (2, 0, 2), (0, 2, 2)])
    analysis = StratumAnalysis(trivial_presentation(3, s0=2, countset=M), M, t=5)
    with budget(max_states=50):
        assert len(analysis.orbit_reps(4)) <= 50  # 48 reps with 384 relabelings
        with pytest.raises(TooLarge):
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
    # other options, or an equal but distinct presentation, get their own plan
    before = len(builds)
    mf_count_via_groupoid(pres, 70, check_stability=False)
    assert len(builds) > before
    before = len(builds)
    mf_count_via_groupoid(pres, 70, t=16, check_stability=False)
    assert len(builds) > before
    twin = roots_of_unity(3)
    assert twin == pres and twin is not pres
    before = len(builds)
    mf_count_via_groupoid(twin, 70)
    assert len(builds) == before + alone


def test_stanley_pieces_are_built_once_per_sweep(monkeypatch):
    # each stratum keeps its count as level terms, so later n only evaluate them
    calls = []
    decompose = lattice.stanley_decompose

    def counting_decompose(M):
        calls.append(None)
        return decompose(M)

    monkeypatch.setattr(lattice, "stanley_decompose", counting_decompose)
    pres = roots_of_unity(2)
    _PLAN_CACHE.clear()
    assert mf_count_via_groupoid(pres, 25) == cube_orbit_count(2, 25)
    alone = len(calls)
    assert alone > 0
    _PLAN_CACHE.clear()
    calls.clear()
    for n in range(25, 75):
        assert mf_count_via_groupoid(pres, n) == cube_orbit_count(2, n), n
    assert len(calls) == alone


@pytest.mark.parametrize(
    "label,t,arrows",
    [("roots2", 6, 2), ("roots3", 8, 3), ("roots4", 10, 4), ("s3_words", 6, 6)],
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


def test_extract_groupoid_needs_the_shadow():
    pres = dataclasses.replace(roots_of_unity(2), count_equivalents=None)
    with pytest.raises(TooLarge, match="count-vector shadow"):
        extract_groupoid(pres, e=0)


def test_up_set_guard_rejects_a_calibrated_region_that_is_not_monotone(monkeypatch):
    # punch a hole just above every minimal element of each object's
    # calibrated region: it still holds deep in the cone, at u_test, but it
    # is no longer an up-set, and the count that reads it must say so
    pres = roots_of_unity(2)
    _PLAN_CACHE.clear()
    analysis = _plan(pres, None, True).calibrated(pres.countset)
    holes = {}
    for e in range(pres.s0 + analysis.frame.d_inf + 1):
        for q, _ in analysis.object_data(e):
            holes[q] = {(m[0] + 1,) + m[1:] for m in analysis.learn_up_antichain(q)}
    assert holes
    is_good = StratumAnalysis.is_good

    def holed(self, q, u):
        return tuple(u[l] for l in q.J) not in holes.get(q, ()) and is_good(self, q, u)

    monkeypatch.setattr(StratumAnalysis, "is_good", holed)
    _PLAN_CACHE.clear()
    try:
        for q in holes:
            assert holed(analysis, q, analysis.u_test(q))
        n = pres.s0 + analysis.min_occupied_total()
        # below the stratum's first occupied length nothing reads the region
        assert mf_count_via_groupoid(pres, n - 1) == cube_orbit_count(2, n - 1)
        with pytest.raises(Unstable, match="not monotone"):
            mf_count_via_groupoid(pres, n)
    finally:
        _PLAN_CACHE.clear()


def test_up_sets_are_learned_only_at_the_counted_threshold(monkeypatch):
    # the t + 1 analysis exists only for the stability check, which compares
    # objects and arrows: it learns no up-set
    learned = []
    learn = StratumAnalysis.learn_up_antichain

    def counting_learn(self, q):
        learned.append(self.t)
        return learn(self, q)

    monkeypatch.setattr(StratumAnalysis, "learn_up_antichain", counting_learn)
    _PLAN_CACHE.clear()
    assert mf_count_via_groupoid(roots_of_unity(3), 70) == cube_orbit_count(3, 70)
    assert learned and set(learned) == {8}


def test_minimal_element_search_against_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 4)
        obstructions = [
            tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(rng.randint(0, 4))
        ]
        M = DownwardClosedSet(k, obstructions)
        outside = lru_cache(maxsize=None)(lambda v: not M.membership(v))
        cap = (5,) * k
        assert _minimal_elements(outside, (0,) * k, cap) == M.obstructions
        floor = tuple(rng.randint(0, 2) for _ in range(k))
        if not any(floor):
            floor = (1,) + floor[1:]
        box = product(*(range(f, c + 1) for f, c in zip(floor, cap)))
        brute = antichain_reduce(v for v in box if not M.membership(v))
        assert _minimal_elements(outside, floor, cap) == brute, (M, floor)


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
        pytest.param(roots_of_unity(2), 25, id="roots2"),
        pytest.param(roots_of_unity(3), 49, id="roots3"),
        pytest.param(roots_of_unity(4), 81, id="roots4"),
        pytest.param(
            elementary_embedding(
                ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
            ),
            36,
            id="S3-words",
        ),
        pytest.param(
            elementary_embedding(
                ElementaryModelFunctor(
                    3, PermGroup.cyclic(3), DownwardClosedSet(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
                )
            ),
            21,
            id="C3-words-obstructed",
        ),
    ],
)
def test_tail_count_is_the_shadow_component_count(pres, n):
    # n is the first length at which the first stratum is occupied
    plan = _plan(pres, None, True)
    analysis = plan.calibrated(pres.countset, n)
    assert n - pres.s0 == analysis.min_occupied_total()
    for M in (pres.countset, plan.peeled(analysis)):
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


def test_deadline_reaches_the_tail_loop():
    pres = roots_of_unity(4)
    with budget(seconds=0), pytest.raises(TooLarge, match="time limit"):
        _tail_count(pres, pres.countset, 81)

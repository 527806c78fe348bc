import random
from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest

from widecount import lattice
from widecount.actions import PermGroup, Permutation, TooLarge, budget
from widecount.functors.extraction import _plan
from widecount.functors.model import roots_of_unity
from widecount.lattice import (
    DownwardClosedSet,
    StanleyPiece,
    WeightedLevelProblem,
    antichain_reduce,
    contract_vector,
    count_level,
    cycle_contract,
    denumerant,
    evaluate_terms,
    expand_vector,
    fixed_count_level,
    level_quasipolynomial,
    level_terms,
    stanley_decompose,
    terms_quasipolynomial,
)


def test_membership_examples():
    full = DownwardClosedSet.full(2)
    assert full.membership((100, 3))
    m = DownwardClosedSet(2, [(2, 0)])
    assert m.membership((1, 5))
    assert not m.membership((2, 0))
    m3 = DownwardClosedSet(3, [(1, 1, 1)])
    assert m3.membership((0, 7, 7))


def test_antichain_reduction_and_json():
    m = DownwardClosedSet(2, [(2, 0), (3, 1), (2, 0)])
    assert m.obstructions == ((2, 0),)
    blob = m.to_json()
    assert DownwardClosedSet.from_json(blob) == m
    assert antichain_reduce([(1, 2), (2, 1), (2, 2)]) == ((1, 2), (2, 1))


def test_empty_full_finite_flags():
    assert DownwardClosedSet.empty(3).is_empty()
    assert DownwardClosedSet.full(3).is_full()
    assert not DownwardClosedSet.full(2).is_finite()
    assert DownwardClosedSet(2, [(3, 0), (0, 2)]).is_finite()
    assert not DownwardClosedSet(2, [(3, 0)]).is_finite()
    assert DownwardClosedSet(2, [(3, 0), (0, 2), (1, 1)]).is_finite()


def test_stanley_decompose_full():
    pieces = stanley_decompose(DownwardClosedSet.full(2))
    assert pieces == [StanleyPiece((0, 0), frozenset({0, 1}))]


def test_stanley_decompose_single_coordinate_cap():
    pieces = stanley_decompose(DownwardClosedSet(2, [(2, 0)]))
    assert sorted((p.offset, tuple(sorted(p.free))) for p in pieces) == [
        ((0, 0), (1,)),
        ((1, 0), (1,)),
    ]


def test_stanley_decompose_cross():
    M = DownwardClosedSet(2, [(1, 1)])
    pieces = stanley_decompose(M)
    assert len(pieces) == 2
    # semantic check: disjoint cover of {b1 == 0 or b2 == 0}
    for n in range(8):
        members = M.enumerate_level(n)
        for beta in members:
            assert sum(1 for p in pieces if p.contains(beta)) == 1
        assert len(members) == count_level(WeightedLevelProblem((1, 1), M), n)


def _random_dcs(rng, k):
    n_obs = rng.randint(0, 3)
    return DownwardClosedSet(
        k, [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(n_obs)]
    )


def test_decomposition_soundness_randomized():
    rng = random.Random(20240811)
    for _ in range(50):
        k = rng.randint(1, 4)
        M = _random_dcs(rng, k)
        pieces = stanley_decompose(M)
        problem = WeightedLevelProblem((1,) * k, M)
        for n in range(13):
            members = M.enumerate_level(n)
            # disjointness and coverage
            for beta in members:
                assert sum(1 for p in pieces if p.contains(beta)) == 1
            assert count_level(problem, n) == len(members)


def test_denumerant_examples():
    assert [denumerant((1, 2), n) for n in (0, 5)] == [1, 3]
    assert denumerant((1, 1, 1), 7) == comb(9, 2)
    assert denumerant((), 0) == 1
    assert denumerant((), 3) == 0


def test_denumerant_tables_grow_geometrically(monkeypatch):
    # an ascending sweep must not rebuild the table at every n
    monkeypatch.setattr(lattice, "_DENUMERANT_CACHE", {})
    tables = []
    for n in range(201):
        assert denumerant((2, 3), n) == n // 6 + (0 if n % 6 == 1 else 1)
        table = lattice._DENUMERANT_CACHE[(2, 3)]
        if not tables or table is not tables[-1]:
            tables.append(table)
    assert len(tables) <= 3  # 64, 128, 256 entries


def test_count_level_examples():
    assert count_level(WeightedLevelProblem((1, 2), DownwardClosedSet.full(2)), 5) == 3
    assert count_level(WeightedLevelProblem((1, 1, 1), DownwardClosedSet.full(3)), 7) == 36
    capped = WeightedLevelProblem((2,), DownwardClosedSet(1, [(2,)]))
    assert count_level(capped, 2) == 1
    assert count_level(capped, 4) == 0


def test_cycle_contract_examples():
    full2 = DownwardClosedSet.full(2)
    swap = Permutation.from_cycles("(1 2)", 2)
    problem = cycle_contract(full2, swap)
    assert problem.weights == (2,)
    assert problem.feasible.is_full()
    assert [count_level(problem, n) for n in range(5)] == [1, 0, 1, 0, 1]

    ident3 = Permutation.identity(3)
    problem = cycle_contract(DownwardClosedSet.full(3), ident3)
    assert problem.weights == (1, 1, 1)

    M = DownwardClosedSet(2, [(2, 1)])
    contracted = cycle_contract(M, swap)
    assert contracted.feasible.obstructions == ((2,),)
    # verify against direct enumeration of fixed vectors up to degree 8
    for n in range(9):
        direct = [b for b in M.enumerate_level(n) if b[0] == b[1]]
        assert count_level(contracted, n) == len(direct)


def test_contract_expand_round_trip():
    g = Permutation.from_cycles("(1 2 3)", 4)
    beta = (5, 5, 5, 2)
    y = contract_vector(beta, g)
    assert y is not None and expand_vector(y, g) == beta
    assert contract_vector((1, 2, 1, 0), g) is None


def test_contraction_soundness_randomized():
    rng = random.Random(77)
    for _ in range(20):
        k = rng.randint(1, 4)
        M = _random_dcs(rng, k)
        for images in permutations(range(1, k + 1)):
            g = Permutation(images)
            for n in range(13):
                direct = sum(
                    1
                    for beta in M.enumerate_level(n)
                    if all(beta[g(j) - 1] == beta[j - 1] for j in range(1, k + 1))
                )
                assert fixed_count_level(M, g, n) == direct


def test_level_quasipolynomial_examples():
    full2 = DownwardClosedSet.full(2)
    res = level_quasipolynomial(full2, Permutation.identity(2))
    assert res.qp.period == 1
    assert [res.qp.evaluate(n) for n in range(5)] == [n + 1 for n in range(5)]

    res = level_quasipolynomial(full2, Permutation.from_cycles("(1 2)", 2))
    assert res.qp.period == 2
    assert [res.qp.evaluate(n) for n in range(6)] == [1, 0, 1, 0, 1, 0]

    res = level_quasipolynomial(DownwardClosedSet.full(3), Permutation.from_cycles("(1 2 3)", 3))
    assert res.qp.period == 3
    for n in range(31):
        assert res.qp.evaluate(n) == (1 if n % 3 == 0 else 0)

    from widecount.quasipoly import Quasipolynomial

    res = level_quasipolynomial(DownwardClosedSet.empty(2), Permutation.identity(2))
    assert res.qp == Quasipolynomial(1, [()])


def test_level_quasipolynomial_matches_counts_with_obstructions():
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(1, 3)
        M = _random_dcs(rng, k)
        for images in permutations(range(1, k + 1)):
            g = Permutation(images)
            res = level_quasipolynomial(M, g)
            end = res.onset + 4 * res.qp.period * (res.qp.degree + 2)
            for n in range(res.onset, end + 1):
                assert res.qp.evaluate(n) == fixed_count_level(M, g, n)


def _check_terms_form(terms, divisor=1):
    res = terms_quasipolynomial(terms, divisor)
    end = res.onset + 4 * res.qp.period * (res.qp.degree + 2)
    for n in range(res.onset, end + 1):
        assert res(n) == Fraction(evaluate_terms(terms, n), divisor), (terms, n)
    return res


def test_terms_quasipolynomial_equals_the_evaluated_sum():
    rng = random.Random(8)
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            w = tuple(sorted(rng.randint(1, 4) for _ in range(rng.randint(0, 3))))
            key = (w, rng.randint(0, 7))
            terms[key] = terms.get(key, 0) + rng.randint(-3, 3)  # zero and negative too
        if terms and rng.random() < 0.5:
            # a term cancelled by another at the same place
            (w, b), c = rng.choice(sorted(terms.items()))
            terms[(w, b + 2)] = terms.get((w, b + 2), 0) + c
            terms[(w, b + 2)] -= c
        _check_terms_form(terms, rng.randint(1, 4))


def test_terms_quasipolynomial_period_degree_onset():
    # period lcm(2, 3), degree bound 2, onset the largest base level
    res = _check_terms_form({((2, 3), 4): 1, ((1, 1, 1), 1): -2, ((2,), 0): 1})
    assert res.onset == 4 and res.validated_range == (4, 4 + 6 * 3 - 1)
    # an empty weight vector counts only at its base level, so its onset is one later
    res = _check_terms_form({((), 5): 3, ((1,), 2): 1})
    assert res.onset == 6 and res.qp.degree == 0
    # terms with coefficient 0 play no part
    assert _check_terms_form({((1,), 1): 1, ((5,), 40): 0}).onset == 1
    assert _check_terms_form({((2,), 3): Fraction(1, 2), ((2,), 5): Fraction(-1, 2)}).onset == 5
    # d_(1,1)(n) - d_(1,1)(n - 1) = 1 for n >= 1
    res = _check_terms_form({((1, 1), 0): 1, ((1, 1), 1): -1})
    assert res.qp.period == 1 and res.qp.degree == 0 and res(100) == 1
    assert _check_terms_form({}).qp.degree == -1


def test_level_terms_shift_and_scale():
    M = DownwardClosedSet(3, [(2, 1, 0), (0, 0, 3)])
    g = Permutation.from_cycles("(1 2)", 3)
    problem = cycle_contract(M, g)
    terms = level_terms(problem, 3, -2, level_terms(problem))
    for n in range(30):
        assert evaluate_terms(terms, n) == count_level(problem, n) - 2 * count_level(problem, n - 3)


def _level_brute_force(M, n):
    """Members of degree n: every vector whose first k - 1 coordinates are
    at most n, completed by the last, filtered by membership."""
    if M.k == 0:
        return [()] if n == 0 else []
    vectors = (head + (n - sum(head),) for head in product(range(n + 1), repeat=M.k - 1))
    return sorted(v for v in vectors if v[-1] >= 0 and M.membership(v))


def test_enumerate_level_equals_filtered_brute_force():
    rng = random.Random(4)
    for _ in range(250):
        k = rng.randint(1, 5)
        M = DownwardClosedSet(
            k, [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(rng.randint(0, 4))]
        )
        for n in range(10):
            assert M.enumerate_level(n) == _level_brute_force(M, n), (M, n)
    assert DownwardClosedSet.empty(3).enumerate_level(2) == []
    assert DownwardClosedSet.full(0).enumerate_level(0) == [()]


@pytest.mark.parametrize(
    "k,obstructions",
    [
        # x in [2, n-5] and [4, n-3] overlap
        pytest.param(2, [(2, 5), (4, 3)], id="overlap"),
        # from x0 >= 1, [2, r-3] holds [4, r-5]
        pytest.param(3, [(1, 2, 3), (0, 4, 5)], id="nest"),
        # [2, n-6] and [5, n-2] touch at n = 10; a one-point gap at n = 9
        pytest.param(2, [(2, 6), (5, 2)], id="touch"),
        # [0, r-5] and [3, r] cover every x once r >= 7
        pytest.param(2, [(0, 5), (3, 0)], id="cover"),
        # as "cover" on the last two coordinates, from x0 >= 1
        pytest.param(4, [(1, 0, 0, 5), (1, 0, 3, 0), (0, 2, 2, 2)], id="cover-after-prefix"),
        pytest.param(1, [], id="k1-full"),
        pytest.param(1, [(3,)], id="k1-capped"),
    ],
)
def test_enumerate_level_interval_cases(k, obstructions):
    M = DownwardClosedSet(k, obstructions)
    for n in range(-1, 15):
        expected = _level_brute_force(M, n) if n >= 0 else []
        assert M.enumerate_level(n) == expected, (M, n)


def _tail_sized_sets():
    for d, n in ((3, 49), (4, 81)):
        # n is the first length at which the first stratum is occupied
        pres = roots_of_unity(d)
        plan = _plan(pres, None, True)
        yield f"roots{d}-peeled", plan.peeled(plan.calibrated(pres.countset, n))
    rng = random.Random(11)
    for k in range(2, 6):
        for _ in range(3):
            # caps on the first k - 3 coordinates keep a level in the 10^5s
            caps = [tuple(rng.randint(1, 6) if i == j else 0 for i in range(k)) for j in range(k - 3)]
            obs = [tuple(rng.randint(0, 12) for _ in range(k)) for _ in range(rng.randint(1, 5))]
            yield f"random-k{k}", DownwardClosedSet(k, caps + obs)


def test_enumerate_level_at_tail_sizes():
    for label, M in _tail_sized_sets():
        identity = Permutation(tuple(range(1, M.k + 1)))
        for n in (0, 1, 2, 19, 20, 21, 59, 80, 120):
            members = M.enumerate_level(n)
            assert all(a < b for a, b in zip(members, members[1:])), (label, n)
            assert all(M.membership(beta) for beta in members), (label, n)
            assert len(members) == fixed_count_level(M, identity, n), (label, n)


def test_deadline_stops_a_level_build():
    with budget(seconds=0), pytest.raises(TooLarge, match="time limit"):
        DownwardClosedSet.full(4).enumerate_level(80)

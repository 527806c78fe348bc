import random
from math import comb

import pytest

from widecount.actions import PermGroup, TooLarge
from widecount.functors.elementary import (
    ElementaryModelFunctor,
    all_subgroups,
    elementary_brute,
    elementary_count,
    elementary_quasipolynomial,
)
from widecount.lattice import DownwardClosedSet


def test_points_counts():
    # d=3 letters, trivial group, all words: multisets of size n from 3 symbols
    emf = ElementaryModelFunctor(3, PermGroup.trivial(3), DownwardClosedSet.full(3))
    assert elementary_count(emf, 5) == comb(7, 2) == 21
    for n in range(7):
        assert elementary_count(emf, n) == comb(n + 2, 2)


def test_galois_counts():
    emf = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    assert elementary_count(emf, 7) == 4
    for n in range(21):
        assert elementary_count(emf, n) == n // 2 + 1


def test_obstructed_counts():
    emf = ElementaryModelFunctor(2, PermGroup.trivial(2), DownwardClosedSet(2, [(3, 0)]))
    assert elementary_count(emf, 10) == 3  # count vectors (0,10),(1,9),(2,8)


def test_stability_enforced():
    with pytest.raises(ValueError):
        ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet(2, [(3, 0)]))


def _check_from_onset(emf, expected):
    res = elementary_quasipolynomial(emf)
    end = res.onset + 4 * res.qp.period * (res.qp.degree + 2)
    for n in range(res.onset, end + 1):
        assert res.qp.evaluate(n) == expected(n), n
    return res


def test_quasipolynomial_validated_range_is_the_build_span():
    # one build from the terms of every g: its span is onset .. onset +
    # period * (degree + 1) - 1, with the period lcm(cycle lengths) and the
    # degree bound k - 1, which the forms below attain
    for k, group, period in ((3, PermGroup.trivial(3), 1), (2, PermGroup.symmetric(2), 2),
                             (3, PermGroup.symmetric(3), 6), (4, PermGroup.cyclic(4), 4)):
        res = elementary_quasipolynomial(ElementaryModelFunctor(k, group, DownwardClosedSet.full(k)))
        assert (res.qp.period, res.qp.degree, res.onset) == (period, k - 1, 0)
        assert res.validated_range == (res.onset, res.onset + period * k - 1)


def test_quasipolynomial_points_and_galois():
    points = ElementaryModelFunctor(3, PermGroup.trivial(3), DownwardClosedSet.full(3))
    assert _check_from_onset(points, lambda n: comb(n + 2, 2)).qp.period == 1

    galois = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    assert _check_from_onset(galois, lambda n: n // 2 + 1).qp.period == 2

    rotated = [tuple((2, 1, 0, 0)[(j - r) % 4] for j in range(4)) for r in range(4)]
    obstructed = ElementaryModelFunctor(4, PermGroup.cyclic(4), DownwardClosedSet(4, rotated))
    _check_from_onset(obstructed, lambda n: elementary_count(obstructed, n))


def test_quasipolynomial_empty():
    emf = ElementaryModelFunctor(2, PermGroup.trivial(2), DownwardClosedSet.empty(2))
    _check_from_onset(emf, lambda n: 0)


def test_brute_matches_examples():
    points = ElementaryModelFunctor(3, PermGroup.trivial(3), DownwardClosedSet.full(3))
    assert elementary_brute(points, 5) == 21
    galois = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    assert elementary_brute(galois, 7) == 4
    obstructed = ElementaryModelFunctor(2, PermGroup.trivial(2), DownwardClosedSet(2, [(3, 0)]))
    assert elementary_brute(obstructed, 10) == 3


def test_brute_budget():
    emf = ElementaryModelFunctor(3, PermGroup.trivial(3), DownwardClosedSet.full(3))
    with pytest.raises(TooLarge):
        elementary_brute(emf, 20)


def _random_stable_obstruction(rng, k, group):
    # orbit-close a random obstruction so the count set is group-stable
    base = tuple(rng.randint(0, 3) for _ in range(k))
    orbit = {tuple(base[g(j) - 1] for j in range(1, k + 1)) for g in group}
    return DownwardClosedSet(k, sorted(orbit))


def test_count_matches_brute_all_subgroups():
    # all subgroups of Sym(k) for k <= 3, full and randomized stable count sets
    rng = random.Random(20240809)
    for k in (1, 2, 3):
        for group in all_subgroups(k):
            countsets = [DownwardClosedSet.full(k), _random_stable_obstruction(rng, k, group)]
            for M in countsets:
                emf = ElementaryModelFunctor(k, group, M)
                for n in range(0, 9 if k < 3 else 8):
                    assert elementary_count(emf, n) == elementary_brute(emf, n), (
                        k,
                        group,
                        M,
                        n,
                    )


def test_all_subgroups_of_sym3():
    groups = all_subgroups(3)
    assert sorted(g.order for g in groups) == [1, 2, 2, 2, 3, 6]

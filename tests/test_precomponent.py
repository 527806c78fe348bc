import pytest

from widecount.actions import NotAnAction, PermGroup, TooLarge, budget
from widecount.functors.elementary import ElementaryModelFunctor
from widecount.functors.model import (
    count_vector_blocks,
    elementary_embedding,
    group_in_buckets,
    mf_orbit_count_direct,
    roots_of_unity,
    seed_blocks,
    trivial_presentation,
)
from widecount.functors.precomponent import (
    PreComponentPresentation,
    broken_compatibility_presentation,
    planes_precomponent,
    precomp_count,
    precomp_quasipolynomial,
    verify_compatibility,
)
from widecount.lattice import DownwardClosedSet
from widecount.quasipoly import NoFit


def test_single_functor_reduces_to_direct_count():
    for d in (2, 3):
        pres = roots_of_unity(d)
        pc = PreComponentPresentation.from_single(pres)
        for n in range(7):
            assert precomp_count(pc, n) == mf_orbit_count_direct(pres, n), (d, n)


def test_grouping_compares_within_shadow_buckets():
    # 363 136 preceq calls when every item met every class representative
    pres = roots_of_unity(2)
    calls = []

    def preceq(n, x, y):
        calls.append(n)
        return pres.eq(n, x[1], y[1])

    pc = PreComponentPresentation("counted", (pres,), preceq)
    assert precomp_count(pc, 9) == mf_orbit_count_direct(pres, 9)
    assert len(calls) < 363136


def _vector(pc):
    return lambda item: (item[0], item[1].count_vector(pc.functors[item[0] - 1].k))


def _key(pc):
    return lambda gamma: (gamma[0], pc.functors[gamma[0] - 1].shadow_key(gamma[1]))


def test_single_functor_domination_asks_nothing():
    # the seed grouping alone: with one functor no class can dominate another
    pres = roots_of_unity(2)
    calls = []

    def preceq(n, x, y):
        calls.append(n)
        return pres.eq(n, x[1], y[1])

    pc = PreComponentPresentation("counted", (pres,), preceq)
    assert precomp_count(pc, 9) == mf_orbit_count_direct(pres, 9)
    counted = len(calls)
    calls.clear()
    seed_blocks(pc.items(9), _vector(pc), _key(pc), lambda x, y: preceq(9, x, y) and preceq(9, y, x))
    assert counted == len(calls)


def _class_route(pc, n):
    """The count from every class: bucketed grouping, domination against
    every later class representative, orbits as count-vector blocks."""
    vector = _vector(pc)
    classes = group_in_buckets(
        pc.items(n), vector, _key(pc), lambda x, y: pc.preceq(n, x, y) and pc.preceq(n, y, x)
    )
    reps = [cls[0] for cls in classes]
    maximal = [not any(pc.preceq(n, rep, y) for y in reps if y[0] > rep[0]) for rep in reps]
    block_of = count_vector_blocks(classes, vector)
    blocks = [block_of[vector(rep)] for rep in reps]
    maximal_blocks = {block for block, top in zip(blocks, maximal) if top}
    if sum(block in maximal_blocks for block in blocks) != sum(maximal):
        raise NotAnAction("symmetry moved a maximal class to a non-maximal one")
    return len(maximal_blocks)


def _dominated_pair():
    # constant functor (one class per n) dominated everywhere by a second functor
    low = trivial_presentation(1, s0=0)
    emf = ElementaryModelFunctor(2, PermGroup.trivial(2), DownwardClosedSet.full(2))
    high = elementary_embedding(emf)

    def preceq(n, x, y):
        if x[0] == y[0] == 1:
            return low.eq(n, x[1], y[1])
        if x[0] == y[0] == 2:
            return high.eq(n, x[1], y[1])
        return (x[0], y[0]) == (1, 2)

    return PreComponentPresentation("dominated", (low, high), preceq), high


def test_dominated_functor_drops_out():
    pc, high = _dominated_pair()
    for n in range(6):
        assert precomp_count(pc, n) == mf_orbit_count_direct(high, n)


@pytest.mark.parametrize(
    "build, n_max",
    [
        (lambda: PreComponentPresentation.from_single(roots_of_unity(2)), 7),
        (lambda: PreComponentPresentation.from_single(roots_of_unity(3)), 5),
        (lambda: PreComponentPresentation.from_single(elementary_embedding(
            ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
        )), 6),
        (lambda: PreComponentPresentation.from_single(elementary_embedding(
            ElementaryModelFunctor(
                3, PermGroup.cyclic(3), DownwardClosedSet(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
            )
        )), 6),
        (lambda: PreComponentPresentation.from_single(trivial_presentation(2, s0=1)), 4),
        (lambda: _dominated_pair()[0], 5),
        (planes_precomponent, 8),
    ],
    ids=["roots2", "roots3", "S3-words", "C3-words-obstructed", "trivial-k2-s1", "dominated", "planes"],
)
def test_seed_route_equals_the_class_route(build, n_max):
    pc = build()
    for n in range(n_max + 1):
        assert precomp_count(pc, n) == _class_route(pc, n), n


def test_planes_counts_one():
    pc = planes_precomponent()
    for n in range(8):
        assert precomp_count(pc, n) == 1


def test_planes_quasipolynomial_is_one():
    res = precomp_quasipolynomial(planes_precomponent(), n_max=9, max_period=2, max_degree=1)
    assert res.qp.period == 1
    assert res.qp.evaluate(100) == 1


def test_compatibility_builtins_pass():
    assert verify_compatibility(planes_precomponent(), 4).passed
    pc, _ = _dominated_pair()
    assert verify_compatibility(pc, 4).passed
    assert verify_compatibility(
        PreComponentPresentation.from_single(roots_of_unity(2)), 4
    ).passed


def test_compatibility_negative_control():
    report = verify_compatibility(broken_compatibility_presentation(), 3)
    assert not report.passed
    assert report.first_witness() is not None


def test_nofit_surfaces():
    pc = PreComponentPresentation.from_single(roots_of_unity(2))
    with pytest.raises(NoFit):
        # floor(n/2)+1 cannot be matched by a constant
        precomp_quasipolynomial(pc, n_max=6, max_period=1, max_degree=0)


class _NoItems(PreComponentPresentation):
    def items(self, n):
        raise AssertionError("items built before the budget check")


def test_maximal_classes_check_the_budget_before_building():
    pres = roots_of_unity(2)
    pc = _NoItems("no-items", (pres,), lambda n, x, y: pres.eq(n, x[1], y[1]))
    assert pc.item_count(16) > 200000
    with pytest.raises(TooLarge):
        precomp_count(pc, 16)
    with budget(max_states=10), pytest.raises(TooLarge):
        precomp_count(pc, 3)


def test_a_block_that_is_partly_maximal_is_refused():
    # the third functor dominates only the classes of the first that conceal
    # position 1, so on [2] the class concealing 2 is maximal and its
    # translate concealing 1 is not: the order is not Sym([n])-stable
    functors = (trivial_presentation(1, s0=1), trivial_presentation(1), trivial_presentation(1))

    def preceq(n, x, y):
        if x[0] == y[0]:
            return x == y
        return (x[0], y[0]) == (1, 3) and x[1].sigma == (1,)

    pc = PreComponentPresentation("half-dominated", functors, preceq)
    assert precomp_count(pc, 1) == 2
    with pytest.raises(NotAnAction, match="symmetry moved a maximal class to a non-maximal one"):
        precomp_count(pc, 2)


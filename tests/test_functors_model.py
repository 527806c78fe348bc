import dataclasses
import random
from functools import partial
from math import comb, gcd

import pytest

from widecount.actions import NotAnAction, PermGroup
from widecount.functors.elementary import ElementaryModelFunctor, elementary_count
from widecount.functors.model import (
    MFPair,
    _equivalence_classes,
    apply_injection,
    apply_permutation,
    broken_axiom3_presentation,
    broken_symmetry_presentation,
    check_equivalence,
    count_vector_blocks,
    elementary_embedding,
    mf_classes,
    mf_orbit_count_direct,
    roots_of_unity,
    seed_blocks,
    transposed,
    trivial_presentation,
    verify_axioms,
)
from widecount.lattice import DownwardClosedSet


def cube_formula(d, n):
    total = 0
    for e in range(d):
        f = gcd(d, e) if e else d
        if n % (d // f) == 0:
            total += comb(n // (d // f) + f - 1, f - 1)
    assert total % d == 0
    return total // d


def test_pair_basics():
    pair = MFPair(5, (2, 4), (1, 3, 2))
    assert pair.domain == (1, 3, 5)
    assert pair.letters() == {1: 1, 3: 3, 5: 2}
    assert pair.letter_at(3) == 3 and pair.letter_at(2) is None
    assert pair.count_vector(3) == (1, 1, 1)
    with pytest.raises(ValueError):
        MFPair(3, (1, 1), (2,))


def test_letter_table_is_the_pair_relation():
    # the table against alpha read along the positions outside sigma
    for s0 in (0, 1, 2):
        pres = trivial_presentation(2, s0=s0)
        for n in range(s0, 5):
            for pair in pres.pairs(n):
                domain = tuple(p for p in range(1, n + 1) if p not in pair.sigma)
                letters = dict(zip(domain, pair.alpha))
                assert pair.letter_table[0] is None and len(pair.letter_table) == n + 1
                assert pair.domain == domain
                assert pair.letters() == letters
                assert [pair.letter_at(p) for p in range(1, n + 1)] == [
                    letters.get(p) for p in range(1, n + 1)
                ]


def test_mf_classes_match_union_find_classes():
    # the bucketed grouping against the union-find closure of every eq pair
    for d in (2, 3, 4):
        pres = roots_of_unity(d)
        for n in range(5):
            grouped = {frozenset(cls) for cls in mf_classes(pres, n)}
            witness, classes = _equivalence_classes(pres, n)
            assert witness is None
            assert grouped == {frozenset(cls) for cls in classes}, (d, n)


def test_apply_injection():
    pair = MFPair(4, (2,), (1, 2, 1))  # letters at 1,3,4
    # injection [3] -> [4] hitting 1,2,3
    down = apply_injection(pair, (1, 2, 3), 4)
    assert down == MFPair(3, (2,), (1, 2))
    # injection missing the sigma image
    assert apply_injection(pair, (1, 3, 4), 4) is None
    # permutation action
    moved = apply_permutation(pair, (4, 3, 2, 1))
    assert moved.sigma == (3,)
    assert moved.letters() == {1: 1, 2: 2, 4: 1}


def test_transposed_is_the_permutation_action():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 9)
        s0 = rng.randint(0, min(3, n))
        pair = MFPair(n, tuple(rng.sample(range(1, n + 1), s0)),
                      tuple(rng.randint(1, 3) for _ in range(n - s0)))
        i, j = rng.sample(range(1, n + 1), 2)
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        assert transposed(pair, i, j) == apply_permutation(pair, images), (pair, i, j)


def test_roots_classes_at_two():
    pres = roots_of_unity(2)
    classes = mf_classes(pres, 2)
    assert len(classes) == 2  # the two lines y = x and y = -x
    assert sorted(len(c) for c in classes) == [2, 2]


def test_roots_direct_counts():
    p3 = roots_of_unity(3)
    assert mf_orbit_count_direct(p3, 3) == 4
    p2 = roots_of_unity(2)
    assert mf_orbit_count_direct(p2, 4) == 3
    for d in (2, 3):
        pres = roots_of_unity(d)
        for n in range(1, 8):
            assert mf_orbit_count_direct(pres, n) == cube_formula(d, n)
        assert mf_orbit_count_direct(pres, 0) == 0  # no pairs below s0


def test_elementary_embedding_reduces():
    emf = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    pres = elementary_embedding(emf)
    for n in range(8):
        assert mf_orbit_count_direct(pres, n) == elementary_count(emf, n)


def test_direct_count_refuses_an_oracle_that_is_not_equivariant():
    # joining (1, 2) with (2, 2) but not (2, 1) with (2, 2) breaks the swap
    # symmetry: the classes {(1, 2), (2, 2)} and {(2, 1)} share the count
    # vector (1, 1) with different count-vector sets, so no orbit count of
    # the classes is defined
    joined = {(1, 2), (2, 2)}
    pres = dataclasses.replace(
        trivial_presentation(2),
        eq=lambda n, a, b: a == b or {a.alpha, b.alpha} == joined,
        count_equivalents=None,
    )
    assert mf_orbit_count_direct(pres, 1) == 2
    with pytest.raises(NotAnAction, match=r"\(1, 1\)"):
        mf_orbit_count_direct(pres, 2)


def _class_route(pres, n):
    """The orbit count from every class: the distinct count-vector sets."""
    blocks = count_vector_blocks(mf_classes(pres, n), lambda pair: pair.count_vector(pres.k))
    return len(set(blocks.values()))


def _s3_words():
    return elementary_embedding(
        ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
    )


def _c3_words_obstructed():
    return elementary_embedding(
        ElementaryModelFunctor(
            3, PermGroup.cyclic(3), DownwardClosedSet(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
        )
    )


@pytest.mark.parametrize(
    "build, n_max",
    [
        (lambda: roots_of_unity(2), 8),
        (lambda: roots_of_unity(3), 6),
        (lambda: roots_of_unity(4), 5),
        (lambda: roots_of_unity(5), 5),
        (_s3_words, 7),
        (_c3_words_obstructed, 7),
        (lambda: trivial_presentation(2), 6),
        (lambda: trivial_presentation(2, s0=1), 5),
        (lambda: trivial_presentation(1, s0=2), 6),
    ],
    ids=["roots2", "roots3", "roots4", "roots5", "S3-words", "C3-words-obstructed",
         "trivial-k2", "trivial-k2-s1", "trivial-k1-s2"],
)
def test_seed_route_equals_the_class_route(build, n_max):
    pres = build()
    for n in range(n_max + 1):
        assert mf_orbit_count_direct(pres, n) == _class_route(pres, n), n


@pytest.mark.parametrize(
    "n, joined, message",
    [
        # {12, 22} holds one (1, 1) word of two but the only (0, 2) word
        (2, {(1, 2), (2, 2)}, r"\(1, 1\): its class does not divide the bucket evenly"),
        # {112, 122} has the right numbers for the block {(2, 1), (1, 2)},
        # but its translate 121 is alone
        (3, {(1, 1, 2), (1, 2, 2)}, r"\(2, 1\): a translate of its class meets other"),
        # 112 and its translate 121 are alone, so (2, 1) is a block of its
        # own, which the class {122, 211} meets
        (3, {(2, 1, 1), (1, 2, 2)}, r"\(1, 2\): its block meets another"),
    ],
    ids=["sizes", "witness", "meet"],
)
def test_seed_route_names_the_seed_count_vector(n, joined, message):
    # eq joins two words of length n and nothing else
    pres = dataclasses.replace(
        trivial_presentation(2),
        eq=lambda m, a, b: a == b or (m == n and {a.alpha, b.alpha} == joined),
        count_equivalents=None,
    )
    assert mf_orbit_count_direct(pres, n - 1) == _class_route(pres, n - 1) == n
    with pytest.raises(NotAnAction, match=message):
        mf_orbit_count_direct(pres, n)
    with pytest.raises(NotAnAction):
        _class_route(pres, n)


def _partition_presentation(rng):
    """A trivial presentation whose eq is a random partition of a small
    F([n]): random labels, or equality with one to three classes merged."""
    k, s0 = rng.randint(1, 3), rng.randint(0, 1)
    n = rng.randint(s0, s0 + (5 if k == 1 else 3 if k == 2 else 2))
    base = trivial_presentation(k, s0=s0)
    pairs = list(base.pairs(n))
    if rng.random() < 0.5:
        parts = rng.randint(1, len(pairs))
        label = {pair: rng.randrange(parts) for pair in pairs}
    else:
        label = {pair: i for i, pair in enumerate(pairs)}
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(pairs), rng.choice(pairs)
            label = {p: label[a] if part == label[b] else part for p, part in label.items()}
    pres = dataclasses.replace(
        base, eq=lambda m, a, b: label[a] == label[b], count_equivalents=None
    )
    return pres, n


def _count_or_refusal(route, pres, n):
    try:
        return route(pres, n)
    except NotAnAction:
        return None


def test_seed_route_agrees_wherever_neither_route_refuses():
    # each route refuses some partitions the other accepts; where neither
    # refuses, the counts agree
    rng = random.Random(21)
    compared = 0
    for _ in range(4000):
        pres, n = _partition_presentation(rng)
        seeds = _count_or_refusal(mf_orbit_count_direct, pres, n)
        classes = _count_or_refusal(_class_route, pres, n)
        if seeds is not None and classes is not None:
            assert seeds == classes
            compared += 1
    assert compared > 2000


def test_seed_route_asks_eq_a_few_times_per_pair():
    # a pass over the bucket for each seed and for each witness: 2 031
    # calls for the 1 024 pairs, where grouping each pair against every
    # class representative of its bucket asked 21 224 times
    base = roots_of_unity(2)
    calls = []

    def eq(n, a, b):
        calls.append(n)
        return base.eq(n, a, b)

    pres = dataclasses.replace(base, eq=eq)
    assert mf_orbit_count_direct(pres, 8) == cube_formula(2, 8)
    assert len(calls) <= 3 * pres.pair_count(8)


def test_seed_blocks_name_a_seed_and_a_witness_per_orbit():
    pres = roots_of_unity(3)
    for n in range(1, 6):
        blocks = seed_blocks(
            pres.pairs(n), lambda pair: pair.count_vector(3), pres.shadow_key, partial(pres.eq, n)
        )
        assert len(blocks) == cube_formula(3, n)
        for seed, witness in blocks:
            if witness is not None:
                assert witness.count_vector(3) == seed.count_vector(3)
                assert not pres.eq(n, seed, witness)


def test_no_pairs_below_s0():
    pres = roots_of_unity(2)
    assert mf_classes(pres, 0) == []


def test_equivalence_checks():
    assert check_equivalence(roots_of_unity(2), 3) is None
    assert check_equivalence(roots_of_unity(3), 3) is None
    witness = check_equivalence(broken_symmetry_presentation(2), 3)
    assert witness is not None and witness["axiom"] == "symmetric"


def test_count_equivalents_shadow_is_exact():
    # the count-vector shadow must list exactly the count vectors of a class
    for d in (2, 3):
        pres = roots_of_unity(d)
        for n in (2, 3, 4):
            classes = mf_classes(pres, n)
            for cls in classes:
                counts = {p.count_vector(d) for p in cls}
                for p in cls:
                    assert counts == set(pres.count_equivalents(p.count_vector(d)))


def _roots_shadow_reference(d):
    """The per-entry roots-of-unity shadow: one source index table and one
    landing index per letter, the concealed letter's count moved to the
    revealed letter's."""

    def letter_of(r):
        r %= d
        return d if r == 0 else r

    moves = [
        (
            letter - 1,
            tuple(letter_of(m + letter) - 1 for m in range(1, d + 1)),
            letter_of(-letter) - 1,
        )
        for letter in range(1, d + 1)
    ]

    def count_equivalents(beta):
        out = [beta]
        for letter_index, source, landing in moves:
            if beta[letter_index] == 0:
                continue
            shifted = [beta[s] for s in source]
            shifted[d - 1] -= 1
            shifted[landing] += 1
            out.append(tuple(shifted))
        return frozenset(out)

    return count_equivalents


def _elementary_shadow_reference(emf):
    """The per-entry elementary shadow: beta read through every g^-1."""
    sources = [tuple(g.inverse()(m) - 1 for m in range(1, emf.k + 1)) for g in emf.group]

    def count_equivalents(beta):
        return frozenset(tuple([beta[i] for i in source]) for source in sources)

    return count_equivalents


def _shadow_cases():
    for d in range(1, 7):
        yield f"roots{d}", roots_of_unity(d), _roots_shadow_reference(d)
    for k in range(1, 5):
        for name in ("symmetric", "cyclic", "trivial"):
            emf = ElementaryModelFunctor(k, getattr(PermGroup, name)(k), DownwardClosedSet.full(k))
            yield f"{name}{k}", elementary_embedding(emf), _elementary_shadow_reference(emf)


@pytest.mark.parametrize(
    "pres,reference", [pytest.param(pres, ref, id=label) for label, pres, ref in _shadow_cases()]
)
def test_builtin_shadows_equal_the_per_entry_reference(pres, reference):
    full = DownwardClosedSet.full(pres.k)
    for level in range(13):
        for beta in full.enumerate_level(level):
            shadow = pres.count_equivalents(beta)
            assert shadow == reference(beta), beta
            assert all(type(gamma) is tuple and len(gamma) == pres.k for gamma in shadow)


def test_verify_axioms_builtins_pass():
    assert verify_axioms(roots_of_unity(2), 4).passed
    assert verify_axioms(roots_of_unity(3), 3).passed
    emf = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    assert verify_axioms(elementary_embedding(emf), 4).passed
    assert verify_axioms(trivial_presentation(2, s0=1), 4).passed


def test_verify_axioms_negative_controls():
    report = verify_axioms(broken_symmetry_presentation(2), 3)
    assert not report.passed
    assert report.first_witness() is not None

    report = verify_axioms(broken_axiom3_presentation(), 3)
    assert not report.passed
    assert any(f["axiom"] == "axiom3" for f in report.failures) or report.failures


@pytest.mark.parametrize(
    "pres",
    [
        roots_of_unity(2),
        roots_of_unity(3),
        elementary_embedding(
            ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
        ),
        elementary_embedding(
            ElementaryModelFunctor(
                3, PermGroup.cyclic(3), DownwardClosedSet(3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)])
            )
        ),
        roots_of_unity(4),
        trivial_presentation(2, s0=1),
    ],
    ids=["roots2", "roots3", "S3-words", "C3-words-obstructed", "roots4", "trivial-k2-s1"],
)
def test_shadow_is_the_class_count_vectors(pres):
    for n in range(pres.s0, 6):
        for cls in mf_classes(pres, n):
            realized = frozenset(pair.count_vector(pres.k) for pair in cls)
            for pair in cls:
                assert pres.count_equivalents(pair.count_vector(pres.k)) == realized, (n, pair)


def test_equivalence_transitivity_witness():
    # words within Hamming distance one: reflexive and symmetric, not transitive
    def eq(n, a, b):
        return sum(x != y for x, y in zip(a.alpha, b.alpha)) <= 1

    pres = dataclasses.replace(trivial_presentation(2), eq=eq)
    assert check_equivalence(pres, 1) is None
    assert check_equivalence(pres, 2) == {
        "axiom": "transitive (closure disagrees)",
        "witness": (MFPair(2, (), (1, 1)), MFPair(2, (), (2, 2))),
    }


def test_verify_axioms_asks_each_ordered_pair_once():
    base = roots_of_unity(3)
    calls = []

    def eq(n, a, b):
        calls.append(n)
        return base.eq(n, a, b)

    pres = dataclasses.replace(base, eq=eq)
    assert verify_axioms(pres, 4).passed
    assert len(calls) == sum(pres.pair_count(n) ** 2 for n in range(5))


def test_verify_axioms_goes_on_after_an_equivalence_failure():
    report = verify_axioms(broken_symmetry_presentation(2), 3, max_failures=3)
    assert report.checked_n == [0, 1, 2, 3]
    assert [f["axiom"] for f in report.failures] == ["equivalence:symmetric"] * 2
    assert [f["n"] for f in report.failures] == [2, 3]


def test_pair_count_without_listing_pairs():
    rng = random.Random(3)
    presentations = [roots_of_unity(d) for d in (1, 2, 3)] + [broken_axiom3_presentation()]
    for _ in range(20):
        k, s0 = rng.randint(1, 3), rng.randint(0, 2)
        obstructions = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(0, 3))]
        presentations.append(trivial_presentation(k, s0=s0, countset=DownwardClosedSet(k, obstructions)))
    for pres in presentations:
        for n in range(6):
            assert pres.pair_count(n) == sum(1 for _ in pres.pairs(n)), (pres.name, n)
    # 2^39 words: counted from the 40 count vectors of the level
    assert roots_of_unity(2).pair_count(40) == 40 * 2**39

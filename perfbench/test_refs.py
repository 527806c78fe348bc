"""The benchmark's reference computations against published values and
small brute-force tables.

    python3 -m pytest -q perfbench/test_refs.py
"""
import os
import random
import sys
from fractions import Fraction
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refs  # noqa: E402
import workloads  # noqa: E402

# OEIS A000666: symmetric 0/1 matrices up to simultaneous row/column
# permutation (graphs with loops), n = 0..6
A000666 = [1, 2, 6, 20, 90, 544, 5096]
# OEIS A000595: binary relations on n points (all 0/1 matrices), n = 0..4
A000595 = [1, 2, 10, 104, 3044]
# OEIS A000055: unlabeled trees, n = 1..14
A000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
# OEIS A000081: unlabeled rooted trees, n = 1..10
A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_matrix_orbit_counts_match_oeis():
    assert [refs.matrix_orbit_count(n, 2, True) for n in range(7)] == A000666
    assert [refs.matrix_orbit_count(n, 2, False) for n in range(5)] == A000595


def test_trees_match_oeis():
    assert [refs.rooted_trees(n) for n in range(1, 11)] == A000081
    assert [refs.unlabeled_trees(n) for n in range(1, 15)] == A000055
    assert [refs.labeled_trees(n) for n in range(1, 7)] == [1, 1, 3, 16, 125, 1296]


def test_rotation_orbits_match_brute_force_and_a007997():
    for d in range(1, 6):
        for n in range(13):
            assert refs.rotation_orbits(d, n) == refs.rotation_orbits_brute(d, n), (d, n)
    # A007997: d = 3 has ceil((n+1)(n+2)/6) orbits
    assert [refs.rotation_orbits(3, n) for n in range(40)] == [
        -(-(n + 1) * (n + 2) // 6) for n in range(40)
    ]


def test_weak_compositions_are_binomials():
    for parts in range(1, 6):
        for total in range(15):
            assert refs.weak_compositions(total, parts) == comb(total + parts - 1, parts - 1)


def test_symmetric_orbits_on_count_vectors_are_partitions():
    # partitions of n into at most 3 parts, A001399: round((n+3)^2 / 12)
    group = refs.group_elements("S", 3)
    for n in range(30):
        assert refs.count_vector_orbits(group, [], 3, n) == round((n + 3) ** 2 / 12)


def test_fixed_vector_counts_match_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(2, 4)
        obs = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(0, 3))]
        perm = rng.sample(range(k), k)
        for n in range(12):
            assert refs.fixed_vector_count(perm, obs, n) == refs.fixed_vector_count_brute(perm, obs, n)


def test_burnside_orbits_match_canonical_images():
    rng = random.Random(11)
    for kind in ("S", "C", "1"):
        for k in (3, 4):
            group = refs.group_elements(kind, k)
            base = tuple(rng.randint(0, 3) for _ in range(k))
            obs = sorted({refs.act(g, base) for g in group})  # a G-stable count set
            for n in range(12):
                assert refs.orbit_count_by_fixed_vectors(group, obs, n) == refs.count_vector_orbits(
                    group, obs, k, n
                )


def test_rational_rank_small_cases():
    F = Fraction
    assert refs.rational_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert refs.rational_rank([[F(1, 2), F(1)], [F(1), F(1, 2)]]) == 2
    assert refs.rational_rank([[F(0)] * 3] * 3) == 0
    assert refs.rational_rank([[F(1), F(1), F(0)], [F(1), F(0), F(1)], [F(0), F(1), F(-1)]]) == 2


def test_rank_tables_small_brute_force():
    one = [Fraction(0), Fraction(1)]
    assert refs.rank_orbit_table(one, 1, True) == {0: 1, 1: 1}
    # [[a, b], [b, c]] up to swapping the two indices: rank 1 is diag(1, 0)
    # and the all-ones matrix; rank 2 is I, the swap and [[1, 1], [1, 0]]
    assert refs.rank_orbit_table(one, 2, True) == {0: 1, 1: 2, 2: 3}
    for n in range(4):
        for symmetric in (True, False):
            table = refs.rank_orbit_table(one, n, symmetric)
            assert sum(table.values()) == refs.matrix_orbit_count(n, 2, symmetric)


def test_generated_quasipolynomials_have_their_shape():
    rng = random.Random(3)
    for period, degree, _ in workloads.FIT_SHAPES:
        qp = refs.random_quasipolynomial(rng, period, degree)
        assert len(qp) == period and len({poly[0] for poly in qp}) == period
        assert all(len(poly) == degree + 1 and poly[-1] != 0 for poly in qp)
    assert refs.qp_value(2, [[1, 1], [0, 2]], 3) == 6
    assert refs.qp_value(2, [[1, 1], [0, 2]], 4) == 5


def test_specs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        assert workloads.specs(name, 5) == workloads.specs(name, 5)
        ids = [spec["id"] for block in workloads.specs(name, 5) for spec in block]
        assert len(ids) == len(set(ids))

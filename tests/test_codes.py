import random
from math import comb

import pytest

from widecount import codes
from widecount.actions import TooLarge, budget
from widecount.codes import (
    LinearCode,
    _cycles,
    _subspace_point_sets,
    alphabet_size,
    all_codes,
    canonical_code,
    canonical_point_multiset,
    codes_quasipolynomial,
    count_codes_burnside,
    count_codes_direct,
    field,
    projective_points,
    puncture,
    semilinear_point_maps,
)
from widecount.lattice import denumerant


def test_fields_construct_and_validate():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        assert len(F.automorphisms()) == F.f
    with pytest.raises(ValueError):
        field(6)
    with pytest.raises(ValueError):
        field(16)


def test_f4_arithmetic():
    F = field(4)  # elements 0, 1, w=2, w^2=3 with w^2 = w + 1
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.add(2, 3) == 1
    assert F.frobenius[2] == 3 and F.frobenius[3] == 2


def test_puncture_examples():
    c = LinearCode.from_rows(2, [(1, 0, 1), (0, 1, 1)])
    assert puncture(c, 3).generator == ((1, 0), (0, 1))
    c2 = LinearCode.from_rows(2, [(1, 1)])
    assert puncture(c2, 2).generator == ((1,),)
    c3 = LinearCode.from_rows(2, [(1, 0)])
    assert puncture(c3, 1) is None


def test_canonical_examples():
    full = LinearCode.from_rows(2, [(0, 1), (1, 0)])
    assert canonical_code(full).generator == ((1, 0), (0, 1))
    a = LinearCode.from_rows(2, [(1, 1, 0)])
    b = LinearCode.from_rows(2, [(0, 1, 1)])
    assert canonical_code(a) == canonical_code(b)
    fa = LinearCode.from_rows(4, [(1, 2)])  # <(1, w)>
    fb = LinearCode.from_rows(4, [(1, 3)])  # <(1, w^2)>, Frobenius-related
    assert canonical_code(fa) == canonical_code(fb)


def test_canonical_invariance_random_group_elements():
    rng = random.Random(20240810)
    pts = projective_points(2, 2)
    maps = semilinear_point_maps(2, 2)
    for code in list(all_codes(2, 2, 4))[:20]:
        base = canonical_point_multiset(code)
        for _ in range(100):
            table = maps[rng.randrange(len(maps))]
            moved_points = sorted(table[i] for i in code.column_points())
            columns = [pts.rep(i) for i in moved_points]
            rows = tuple(tuple(col[i] for col in columns) for i in range(2))
            moved = LinearCode.from_rows(2, rows, expect_dim=2)
            assert canonical_point_multiset(moved) == base


def test_direct_counts():
    assert count_codes_direct(2, 2, 2) == 1
    assert count_codes_direct(2, 2, 3) == 3
    assert count_codes_direct(2, 1, 4) == 4
    # below the dimension no code exists
    assert count_codes_direct(2, 2, 1) == 0
    assert count_codes_direct(3, 1, 0) == 0


def test_direct_matches_burnside():
    for q in (2, 3, 4):
        for m in (0, 1, 2):
            for n in range(0, codes.DIRECT_BUDGET["n"] + 1):
                assert count_codes_direct(q, m, n) == count_codes_burnside(q, m, n), (q, m, n)


def _recorded_canonical_forms(monkeypatch, q, m, n):
    forms = []

    def recording(code):
        forms.append(canonical_point_multiset(code))
        return forms[-1]

    with monkeypatch.context() as patch:
        patch.setattr(codes, "canonical_point_multiset", recording)
        count = count_codes_direct(q, m, n)
    assert count == len(set(forms))
    return forms


def test_direct_route_canonicalises_each_anchored_multiset_once(monkeypatch):
    for q, m, n in ((2, 2, 5), (3, 2, 7), (4, 2, 5), (3, 1, 4), (2, 0, 3)):
        forms = _recorded_canonical_forms(monkeypatch, q, m, n)
        assert len(forms) == comb(alphabet_size(q, m) + n - m - 1, n - m), (q, m, n)


def test_direct_route_reaches_every_class_of_all_codes(monkeypatch):
    for q in (2, 3):
        for m in (0, 1, 2):
            for n in range(m, 6):
                forms = _recorded_canonical_forms(monkeypatch, q, m, n)
                every = {canonical_point_multiset(code) for code in all_codes(q, m, n)}
                assert set(forms) == every, (q, m, n)


def test_family_is_asked_once_per_code():
    # codes without a zero column: removing one zero column matches the
    # other classes with the classes of length n - 1
    for q, m, n in ((2, 2, 5), (3, 1, 4), (3, 2, 4)):
        asked = []

        def projective(code):
            asked.append(code)
            return 1 not in code.column_points()

        count = count_codes_direct(q, m, n, family=projective)
        assert count == count_codes_burnside(q, m, n) - count_codes_burnside(q, m, n - 1)
        full_length = [code for code in asked if code.n == n]
        # one ask per column multiset holding e1..em
        anchored = comb(alphabet_size(q, m) + n - m - 1, n - m)
        assert len(full_length) == len(set(full_length)) == anchored, (q, m, n)


def test_budget_guard():
    with pytest.raises(TooLarge):
        count_codes_direct(5, 2, 4)
    # the guard counts the C(4 + 6 - 2 - 1, 6 - 2) = 35 anchored column
    # multisets that are listed, not the 651 planes of F_2^6
    with budget(max_states=35):
        assert count_codes_direct(2, 2, 6) == 16
    with budget(max_states=34), pytest.raises(TooLarge, match="35 exceeds"):
        count_codes_direct(2, 2, 6)


def test_alphabet_size():
    assert alphabet_size(2, 2) == 4
    assert alphabet_size(3, 2) == 5
    assert alphabet_size(4, 2) == 6
    for q in (2, 3, 4):
        for m in (1, 2):
            assert alphabet_size(q, m) == 1 + (q**m - 1) // (q - 1)
            assert projective_points(q, m).k == alphabet_size(q, m)


def test_puncturing_closure():
    # puncturing any counted code in any allowed coordinate stays a code of
    # the family at length n-1
    shorter = {canonical_point_multiset(c) for c in all_codes(2, 2, 4)}
    for code in all_codes(2, 2, 5):
        for coord in range(1, 6):
            punctured = puncture(code, coord)
            if punctured is not None:
                assert canonical_point_multiset(punctured) in shorter


def test_quasipolynomial_binary_dimension_one():
    res = codes_quasipolynomial(2, 1, 9)
    assert res.qp.period == 1 and res.qp.degree == 1
    for n in range(10, 15):
        assert res.qp.evaluate(n) == count_codes_burnside(2, 1, n) == n


def test_quasipolynomial_ternary_dimension_one():
    res = codes_quasipolynomial(3, 1, 12)
    for n in range(13, 18):
        assert res.qp.evaluate(n) == count_codes_burnside(3, 1, n)


def test_quasipolynomial_binary_dimension_two():
    res = codes_quasipolynomial(2, 2, 45)
    assert res.qp.period == 6 and res.qp.degree == 3
    for n in range(46, 56):
        assert res.qp.evaluate(n) == count_codes_burnside(2, 2, n)


def test_quasipolynomial_exact_whatever_the_window():
    # the form is built from its proven period and degree, so n_max no
    # longer matters; the old fit on n <= 40 was wrong from n = 42 on
    for n_max in (14, 40):
        res = codes_quasipolynomial(2, 2, n_max)
        assert res.onset == 0
        for n in range(201):
            assert res.qp.evaluate(n) == count_codes_burnside(2, 2, n), (n_max, n)


def test_quasipolynomial_ternary_dimension_two():
    res = codes_quasipolynomial(3, 2, 100)
    assert res.qp.period == 12 and res.onset == 0
    for n in range(201):
        assert res.qp.evaluate(n) == count_codes_burnside(3, 2, n)


def test_user_family_predicate():
    # the family of codes with no zero column is NOT puncturing-closed in
    # general; the even-weight-free family below is
    def no_repeated_column(code):
        pts = code.column_points()
        return len(set(pts)) == len(pts) and 1 not in pts

    # projective columns distinct and nonzero: every puncture keeps that
    count = count_codes_direct(2, 2, 3, family=no_repeated_column)
    assert count == 1  # only the simplex-like arrangement of 3 distinct points

    def not_closed(code):
        return code.n != 2  # drops everything at length 2: closure spot check trips

    with pytest.raises(ValueError):
        count_codes_direct(2, 2, 3, family=not_closed)


def test_burnside_terms_equal_the_literal_sum():
    # the per-map, per-subspace sum the gathered terms stand for
    for q in (2, 3, 4):
        for m in (1, 2):
            maps = semilinear_point_maps(q, m)
            subspaces = _subspace_point_sets(q, m)
            for n in range(41):
                total = sum(
                    moebius
                    * denumerant(
                        [len(c) for c in _cycles(table, points) if points.issuperset(c)], n
                    )
                    for table in maps
                    for points, moebius in subspaces
                )
                assert total % len(maps) == 0
                assert count_codes_burnside(q, m, n) == total // len(maps), (q, m, n)

import random
import time
from collections import Counter
from functools import reduce
from itertools import combinations, product
from math import comb, prod

import pytest

from widecount import codes
from widecount.actions import TooLarge, budget, cycles
from widecount.codes import (
    FiniteField,
    LinearCode,
    _subspace_count,
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
    # no field size below 2, and 0 is divisible by every prime
    for q in (0, -4, 1):
        with pytest.raises(ValueError, match="prime power"):
            FiniteField(q)


def test_frobenius_tripwire(monkeypatch):
    F = field(4)
    F._validate()
    # the identity keeps sums and products but generates a group of order 1
    monkeypatch.setattr(F, "frobenius", tuple(range(4)))
    with pytest.raises(AssertionError, match="automorphism group of order f fails"):
        F._validate()
    # a map that swaps 0 and 1 keeps neither
    monkeypatch.setattr(F, "frobenius", (1, 0, 3, 2))
    with pytest.raises(AssertionError, match="keeps sums and products fails"):
        F._validate()


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
        base = canonical_point_multiset(2, 2, code.column_points())
        for _ in range(100):
            table = maps[rng.randrange(len(maps))]
            moved_points = sorted(table[i] for i in code.column_points())
            columns = [pts.rep(i) for i in moved_points]
            rows = tuple(tuple(col[i] for col in columns) for i in range(2))
            moved = LinearCode.from_rows(2, rows, expect_dim=2)
            assert canonical_point_multiset(2, 2, moved.column_points()) == base


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
            for n in range(0, 9):
                assert count_codes_direct(q, m, n) == count_codes_burnside(q, m, n), (q, m, n)


def _recorded_canonical_forms(monkeypatch, q, m, n):
    forms = []

    def recording(q, m, points):
        forms.append(canonical_point_multiset(q, m, points))
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
                every = {canonical_point_multiset(q, m, code.column_points()) for code in all_codes(q, m, n)}
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
    # C(14 + 7 - 3 - 1, 7 - 3) = 2380 anchored multisets, each under the
    # 5 616 maps of PGammaL(3, 3), exceed the 10^7 canonical-form operations
    with pytest.raises(TooLarge, match="2380 exceeds the budget 1780"):
        count_codes_direct(3, 3, 7)
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
    shorter = {canonical_point_multiset(2, 2, c.column_points()) for c in all_codes(2, 2, 4)}
    for code in all_codes(2, 2, 5):
        for coord in range(1, 6):
            punctured = puncture(code, coord)
            if punctured is not None:
                assert canonical_point_multiset(2, 2, punctured.column_points()) in shorter


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
    cases = [(q, m, 40) for q in (2, 3, 4) for m in (1, 2)] + [(2, 3, 20), (3, 3, 8)]
    for q, m, top in cases:
        maps, subspaces = semilinear_point_maps(q, m), _subspace_point_sets(q, m)
        weights = [
            (moebius, [len(c) for c in cycles(table.__getitem__, sorted(points)) if points.issuperset(c)])
            for table in maps
            for points, moebius in subspaces
        ]
        for n in range(top + 1):
            total = sum(moebius * denumerant(w, n) for moebius, w in weights)
            assert total % len(maps) == 0
            assert count_codes_burnside(q, m, n) == total // len(maps), (q, m, n)


# ---------------------------------------------------------------------------
# the engine for every dimension against independent references
# ---------------------------------------------------------------------------

FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)
ENGINE_CASES = [(q, m) for q in FIELD_SIZES for m in (0, 1, 2)] + [(2, 3), (3, 3), (2, 4)]


def _gl_by_determinant(q, m):
    """GL(m, q) for m <= 2 as the module once built it: by hand for m <= 1,
    by filtering every 2 x 2 matrix on its determinant for m = 2."""
    F = field(q)
    if m == 0:
        return {()}
    if m == 1:
        return {((a,),) for a in range(1, q)}
    return {
        ((a, b), (c, d))
        for a, b, c, d in product(range(q), repeat=4)
        if F.sub(F.mul(a, d), F.mul(b, c))
    }


def _hand_written_lattice(q, m):
    """(point set, Moebius value to the top) of every subspace of F_q^m, m <= 2."""
    full = frozenset(range(1, projective_points(q, m).k + 1))
    if m == 0:
        return {(full, 1)}
    if m == 1:
        return {(full, 1), (frozenset({1}), -1)}
    lines = {(frozenset({1, idx}), -1) for idx in range(2, len(full) + 1)}
    return {(full, 1), (frozenset({1}), q)} | lines


def _gaussian_binomial(m, j, q):
    """[m choose j]_q by the q-Pascal rule."""
    if j in (0, m):
        return 1
    return _gaussian_binomial(m - 1, j - 1, q) + q**j * _gaussian_binomial(m - 1, j, q)


def test_engine_equals_the_hand_written_constructions_below_dimension_three():
    for q in FIELD_SIZES:
        for m in (0, 1, 2):
            assert set(_subspace_point_sets(q, m)) == _hand_written_lattice(q, m), (q, m)


def test_point_maps_are_the_semilinear_maps_below_dimension_three():
    # every pair (A, phi) of GammaL(m, q), applied to each point as A phi(v)
    for q in FIELD_SIZES:
        F = field(q)
        for m in (0, 1, 2):
            pts = projective_points(q, m)
            pairs = {
                (0,) + tuple(
                    pts.index_of(tuple(
                        reduce(F.add, (F.mul(a, phi[x]) for a, x in zip(row, vec)), 0) for row in A
                    ))
                    for vec in pts.reps
                )
                for A in _gl_by_determinant(q, m)
                for phi in F.automorphisms()
            }
            assert set(semilinear_point_maps(q, m)) == pairs, (q, m)


def test_point_maps_are_distinct_with_the_projective_order():
    # |PGammaL(m, q)| = f |GL(m, q)| / (q - 1): GammaL acts on the points
    # with the scalars as its kernel once m >= 2
    for q, m in [case for case in ENGINE_CASES if case[1] >= 2] + [(4, 3)]:
        maps = semilinear_point_maps(q, m)
        assert len(set(maps)) == len(maps), (q, m)
        assert len(maps) == field(q).f * prod(q**m - q**i for i in range(m)) // (q - 1), (q, m)
    for q in FIELD_SIZES:
        assert semilinear_point_maps(q, 0) == ((0, 1),)
        assert semilinear_point_maps(q, 1) == ((0, 1, 2),)


def test_a_short_generating_set_trips_the_order_check(monkeypatch):
    full = codes._semilinear_generators
    # without the Frobenius (4, 2) reaches PGL(2, 4), without the diagonals
    # (3, 2) reaches PSL(2, 3)
    for q, m, cut, reached, order in ((4, 2, -1, 60, 120), (3, 2, 2, 12, 24)):
        monkeypatch.setattr(codes, "_semilinear_generators", lambda q, m: full(q, m)[:cut])
        with pytest.raises(AssertionError, match=f"give {reached} point maps of GammaL\\(2, {q}\\), not {order}"):
            semilinear_point_maps.__wrapped__(q, m)


def test_subspaces_counted_by_gaussian_binomials_with_their_moebius_values():
    for q, m in ENGINE_CASES:
        F, pts = field(q), projective_points(q, m)
        subspaces = _subspace_point_sets(q, m)
        assert len({points for points, _ in subspaces}) == len(subspaces) == _subspace_count(q, m)
        dimensions = Counter()
        for points, moebius in subspaces:
            # a subspace: the sum of any two of its points lies in it
            for u, v in combinations(sorted(points), 2):
                assert pts.index_of(tuple(map(F.add, pts.rep(u), pts.rep(v)))) in points
            d = next(d for d in range(m + 1) if len(points) == alphabet_size(q, d))
            j = m - d
            assert moebius == (-1) ** j * q ** (j * (j - 1) // 2), (q, m, d)
            dimensions[d] += 1
        assert dimensions == {d: _gaussian_binomial(m, d, q) for d in range(m + 1)}, (q, m)
    for q, m in ((4, 3), (2, 5)):
        assert _subspace_count(q, m) == sum(_gaussian_binomial(m, d, q) for d in range(m + 1))


def test_direct_matches_burnside_beyond_dimension_two():
    for q, m, top in ((2, 3, 8), (3, 3, 6), (2, 4, 5)):
        for n in range(top + 1):
            assert count_codes_direct(q, m, n) == count_codes_burnside(q, m, n), (q, m, n)


def test_counts_beyond_dimension_two():
    binary = [1, 4, 10, 22, 43, 77, 131, 213, 333, 507, 751, 1088]
    assert [count_codes_burnside(2, 3, n) for n in range(3, 15)] == binary
    assert [count_codes_burnside(3, 3, n) for n in range(3, 7)] == [1, 4, 12, 31]
    assert [count_codes_burnside(2, 4, n) for n in range(4, 8)] == [1, 5, 16, 43]
    form = codes_quasipolynomial(2, 3, 0)
    assert form.onset == 0
    for n in (*range(3, 15), 10**4):
        assert form(n) == count_codes_burnside(2, 3, n), n


def test_guards_refuse_before_listing_anything(monkeypatch):
    def listing(*args):
        raise AssertionError("listed before the guard")

    for name in ("product", "projective_points", "semilinear_point_maps"):
        monkeypatch.setattr(codes, name, listing)
    group = r"\|PGammaL\(5, 2\)\|: 9999360 exceeds the budget 1000000"
    # (4, 3) is admitted: its 44 subspaces under 120 960 point maps fit the
    # 10^7 canonical-form operations.  A budget of 40 states refuses it at the
    # group guard, which the budget tightens too and which runs first
    tight = r"\|PGammaL\(3, 4\)\|: 120960 exceeds the budget 40"
    start = time.perf_counter()
    for call, match, cap in (
        (lambda: count_codes_burnside(2, 5, 6), group, None),
        (lambda: count_codes_direct(2, 5, 6), group, None),
        (lambda: codes_quasipolynomial(2, 5, 0), group, None),
        (lambda: count_codes_burnside(4, 3, 6), tight, 40),
        (lambda: codes_quasipolynomial(4, 3, 0), tight, 40),
        (lambda: count_codes_direct(4, 3, 5), "253 exceeds the budget 82", None),
    ):
        with budget(max_states=cap), pytest.raises(TooLarge, match=match):
            call()
    # the work guard of the orbit-counting route, reached with a lower cap
    monkeypatch.setattr(codes, "MAX_CANONICAL_OPS", 40 * 120960)
    for call in (lambda: count_codes_burnside(4, 3, 6), lambda: codes_quasipolynomial(4, 3, 0)):
        with pytest.raises(TooLarge, match=r"subspaces of F_4\^3 .*: 44 exceeds the budget 40"):
            call()
    assert time.perf_counter() - start < 1

import random
from fractions import Fraction
from math import lcm

import pytest

from widecount.codes import count_codes_burnside
from widecount.lattice import evaluate_terms, terms_quasipolynomial
from widecount.quasipoly import (
    FittedQuasipolynomial,
    NoFit,
    Quasipolynomial,
    build_quasipolynomial,
    fit,
    fit_sequence,
)

F = Fraction

# floor(n/2)+1 as a period-2 quasipolynomial: n even -> n/2+1, n odd -> (n+1)/2
HALF_FLOOR = Quasipolynomial(2, [(F(1), F(1, 2)), (F(1, 2), F(1, 2))])


def test_evaluate_floor_half():
    assert HALF_FLOOR.evaluate(5) == 3
    assert [HALF_FLOOR.evaluate(n) for n in range(8)] == [n // 2 + 1 for n in range(8)]


def test_evaluate_constant_and_zero():
    assert Quasipolynomial(1, [(F(1),)]).evaluate(100) == 1
    zero = Quasipolynomial(1, [()])
    for n in (-3, 0, 7, 1000):
        assert zero.evaluate(n) == 0
    # trailing zero coefficients are trimmed, so zero has degree -1
    assert Quasipolynomial(3, [(F(0),)] * 3) == zero and zero.degree == -1


def test_construction_normalizes_to_the_minimal_period():
    padded = Quasipolynomial(4, [HALF_FLOOR.constituents[i % 2] for i in range(4)])
    assert padded.period == 2
    assert padded == HALF_FLOOR
    assert padded != Quasipolynomial(1, [(F(1),)])


def test_degree_and_integrality():
    assert HALF_FLOOR.degree == 1
    for n in range(12):
        v = HALF_FLOOR.evaluate(n)
        assert isinstance(v, Fraction) and v.denominator == 1


def test_json_round_trip():
    data = HALF_FLOOR.to_json_dict(onset=3)
    assert data["period"] == 2
    assert data["onset"] == 3
    assert data["constituents"][0] == [["1", "1"], ["1", "2"]]
    back = Quasipolynomial.from_json_dict(data)
    assert back == HALF_FLOOR


def test_fit_galois_sequence():
    res = fit_sequence([1, 1, 2, 2, 3, 3, 4, 4, 5, 5], start=0, max_period=4, max_degree=2)
    assert res.onset == 0
    assert res.qp.period == 2
    # constituents (n+2)/2 on evens and (n+1)/2 on odds
    assert res.qp.constituents[0] == (F(1), F(1, 2))
    assert res.qp.constituents[1] == (F(1, 2), F(1, 2))


def test_fit_linear():
    res = fit_sequence([n + 1 for n in range(10)], start=0, max_period=4, max_degree=3)
    assert res.qp.period == 1
    assert res.qp.degree == 1
    assert res.onset == 0


def test_fit_trees_nofit():
    # unlabeled trees on 1..10 vertices: superpolynomial, must not fit
    trees = [1, 1, 1, 1, 2, 3, 6, 11, 23, 47]
    with pytest.raises(NoFit) as exc:
        fit({n: trees[n - 1] for n in range(1, 11)}, max_period=6, max_degree=6)
    assert exc.value.witness is not None


def test_fit_holds_out_as_many_points_as_it_trains_on():
    # on n <= 40 the code counts match period 1, degree 2 from onset 36 on
    # (five points per class, three used to interpolate), a form that is
    # wrong from n = 42 on; the true form, period 6 and degree 3, needs
    # eight points per class
    seq = {n: count_codes_burnside(2, 2, n) for n in range(41)}
    with pytest.raises(NoFit):
        fit(seq, max_period=12, max_degree=4)


def test_build_interpolates_each_class_from_the_onset():
    # floor(n/2)+1 from n = 3 on, junk before: degree bound 1, period 2
    res = build_quasipolynomial(lambda n: n // 2 + 1 if n >= 3 else 99, 2, 1, 3)
    assert res.qp == HALF_FLOOR
    assert res.onset == 3 and res.validated_range == (3, 6)


def test_fit_prefers_minimal_period_then_degree_then_onset():
    # constant 5 fits with (1, 0, start); nothing smaller exists
    res = fit_sequence([5] * 8, start=0, max_period=3, max_degree=2)
    assert (res.qp.period, res.qp.degree, res.onset) == (1, 0, 0)
    # a sequence that is quadratic only from n=2 onwards
    vals = [99, 99] + [n * n for n in range(2, 14)]
    res = fit_sequence(vals, start=0, max_period=2, max_degree=2)
    assert res.qp.period == 1 and res.qp.degree == 2 and res.onset == 2


def _random_qp(rng: random.Random) -> Quasipolynomial:
    period = rng.randint(1, 6)
    degree = rng.randint(0, 4)
    consts = []
    for _ in range(period):
        consts.append(
            tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree + 1))
        )
    return Quasipolynomial(period, consts)


def _scaled_to_integers(qp: Quasipolynomial) -> Quasipolynomial:
    """qp times the lcm of its coefficients' denominators."""
    denom = lcm(*(c.denominator for poly in qp.constituents for c in poly))
    return Quasipolynomial(qp.period, [tuple(c * denom for c in poly) for poly in qp.constituents])


def test_fit_round_trip_random():
    rng = random.Random(20240811)
    for _ in range(40):
        qp = _random_qp(rng)
        window = (qp.degree + 2) * qp.period * 2 + qp.period * 2
        # quasipoly.fit expects integers; scale away denominators
        scaled = _scaled_to_integers(qp)
        seq = {n: int(scaled.evaluate(n)) for n in range(window)}
        res = fit(seq, max_period=6, max_degree=4)
        assert res.qp == scaled


def test_fit_never_reports_failing_holdout():
    rng = random.Random(7)
    for _ in range(25):
        qp = _random_qp(rng)
        scaled = _scaled_to_integers(qp)
        window = (qp.degree + 2) * qp.period * 2 + 12
        seq = {n: int(scaled.evaluate(n)) for n in range(window)}
        try:
            res = fit(seq, max_period=6, max_degree=4)
        except NoFit:
            continue
        for n in range(res.onset, window):
            assert res.qp.evaluate(n) == seq[n]


def test_fitted_quasipolynomial_fields():
    res = fit_sequence([3, 3, 3, 3, 3, 3], start=2, max_period=2, max_degree=1)
    assert isinstance(res, FittedQuasipolynomial)
    assert res.validated_range == (2, 7)
    assert res.evaluate(100) == 3


def _lagrange(points):
    """Reference: Lagrange interpolation in Fractions through distinct abscissae."""
    coeffs = [F(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [F(1)]
        denom = F(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [F(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-xj)
                new[k + 1] += c
            basis = new
        for k, c in enumerate(basis):
            coeffs[k] += c * yi / denom
    return coeffs


def _horner(poly, n):
    acc = F(0)
    for c in reversed(poly):
        acc = acc * n + c
    return acc


def test_build_matches_lagrange_interpolation():
    # each residue class is interpolated on points spaced ``period`` apart
    # from its first argument at or after the onset: random rational
    # constituents (some zero, some integer-valued), onsets from -30 to 60
    rng = random.Random(20261019)
    for trial in range(150):
        period, degree, onset = rng.randint(1, 12), rng.randint(0, 6), rng.randint(-30, 60)
        consts = []
        for _ in range(period):
            shape = rng.random()
            if shape < 0.15:
                consts.append(())
            elif shape < 0.4:
                consts.append(tuple(F(rng.randint(-9, 9)) for _ in range(degree + 1)))
            else:
                consts.append(tuple(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(degree + 1)))

        def value(n):
            v = _horner(consts[n % period], n)
            return v.numerator if v.denominator == 1 and trial % 2 else v

        built = build_quasipolynomial(value, period, degree, onset)
        # the same values given as integers over a common denominator
        scale = lcm(*(F(value(n)).denominator for n in range(onset, onset + period * (degree + 1))))
        whole = build_quasipolynomial(lambda n: int(value(n) * scale * 7), period, degree, onset,
                                      scale * 7)
        assert whole == built
        reference = []
        for r in range(period):
            first = onset + (r - onset) % period
            points = [(n, F(value(n))) for n in range(first, first + period * (degree + 1), period)]
            reference.append(_lagrange(points))
        assert built.qp == Quasipolynomial(period, reference) == Quasipolynomial(period, consts)
        for n in (-7, 0, 1, 10**6):
            assert built.qp.evaluate(n) == _horner(consts[n % period], n)


def test_build_from_fraction_valued_terms():
    # terms_quasipolynomial hands the builder integers and folds the divisor
    # into its one denominator, so the values it interpolates are not whole;
    # period lcm(2, 3, 4) = 12, degree bound 1, onset 2
    terms = {((2, 3), 1): 1, ((1, 2), 0): 3, ((4,), 2): -1}
    for divisor in (1, 2, 6, 7):
        res = terms_quasipolynomial(terms, divisor)
        assert res.onset == 2
        for r in range(12):
            first = 2 + r
            points = [(n, F(evaluate_terms(terms, n), divisor)) for n in (first, first + 12)]
            ref = _lagrange(points)
            for n in (first, first + 12 * 1000, first - 24):
                assert res.qp.evaluate(n) == _horner(ref, n)


def test_evaluate_matches_fraction_horner():
    rng = random.Random(3)
    for _ in range(60):
        qp = _random_qp(rng)
        for n in (-7, 0, 1, 10**6):
            value = qp.evaluate(n)
            assert isinstance(value, Fraction)
            assert value == _horner(qp.constituents[n % qp.period], n)

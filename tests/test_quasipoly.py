import random
from fractions import Fraction

import pytest

from widecount.codes import count_codes_burnside
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
    assert Quasipolynomial.constant(1).evaluate(100) == 1
    zero = Quasipolynomial.zero()
    for n in (-3, 0, 7, 1000):
        assert zero.evaluate(n) == 0


def test_add_floor_plus_ceil_is_linear():
    ceil_half = Quasipolynomial(2, [(F(0), F(1, 2)), (F(1, 2), F(1, 2))])
    total = HALF_FLOOR.add(ceil_half)
    # floor(n/2)+1 + ceil(n/2) == n+1, so the sum collapses to period 1
    assert total.period == 1
    assert total.constituents == ((F(1), F(1)),)


def test_scale_constant():
    assert Quasipolynomial.constant(1).scale(3).evaluate(17) == 3


def test_equal_eventually_under_period_refinement():
    refined = HALF_FLOOR.with_period(4)
    assert refined.period == 2  # normalization collapses it again
    padded = Quasipolynomial(4, [HALF_FLOOR.constituents[i % 2] for i in range(4)])
    assert padded.equal_eventually(HALF_FLOOR)
    assert not padded.equal_eventually(Quasipolynomial.constant(1))


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
    assert back.equal_eventually(HALF_FLOOR)


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
    assert res.qp.equal_eventually(HALF_FLOOR)
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


def test_fit_round_trip_random():
    rng = random.Random(20240811)
    for _ in range(40):
        qp = _random_qp(rng)
        window = (qp.degree + 2) * qp.period * 2 + qp.period * 2
        seq = {n: qp.evaluate(n) for n in range(window)}
        # quasipoly.fit expects integers; scale away denominators
        denom = 1
        for poly in qp.constituents:
            for c in poly:
                denom = denom * c.denominator // __import__("math").gcd(denom, c.denominator)
        scaled = qp.scale(denom)
        seq = {n: int(scaled.evaluate(n)) for n in range(window)}
        res = fit(seq, max_period=6, max_degree=4)
        assert res.qp.equal_eventually(scaled)


def test_fit_never_reports_failing_holdout():
    rng = random.Random(7)
    for _ in range(25):
        qp = _random_qp(rng)
        denom = 1
        for poly in qp.constituents:
            for c in poly:
                denom = denom * c.denominator // __import__("math").gcd(denom, c.denominator)
        scaled = qp.scale(denom)
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

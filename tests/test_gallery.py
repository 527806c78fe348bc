from fractions import Fraction
from itertools import product
from math import comb, gcd, prod

import pytest

from widecount import gallery
from widecount.actions import TooLarge, budget, require, tick
from widecount.functors.elementary import elementary_count
from widecount.gallery import (
    canonical_tree,
    canonical_tree_exhaustive,
    cube_orbit_count,
    cube_orbit_count_brute,
    exact_rank,
    exact_rank_fraction,
    fixed_rank_orbit_count,
    fixed_rank_orbit_counts,
    fixed_rank_orbit_counts_brute,
    galois_orbit_count,
    galois_orbit_count_brute,
    labeled_tree_count,
    matrix_orbit_count,
    planes_component_count,
    planes_orbit_count,
    points_component_count,
    points_orbit_count,
    prufer_to_edges,
    sorted_degree_prufer_sequences,
    symmetric_binary_rank_formula,
    tree_orbit_count,
    unlabeled_tree_counts,
)
from widecount.quasipoly import NoFit, fit
import random
import time


def test_planes():
    assert planes_component_count(4) == 6
    assert planes_orbit_count(4) == 1
    assert planes_orbit_count(2) == 1
    assert planes_orbit_count(0) == 1
    assert planes_component_count(2) == 1
    for n in range(3, 31):
        assert planes_component_count(n) == comb(n, 2)
        assert planes_orbit_count(n) == 1


def test_points():
    assert points_orbit_count(2, 3) == 4
    assert points_orbit_count(3, 2) == 6
    for n in range(10):
        assert points_orbit_count(1, n) == 1
    assert points_component_count(3, 2) == 9


def test_galois():
    assert galois_orbit_count(5) == 3
    assert galois_orbit_count(0) == 1
    assert galois_orbit_count(6) == 4
    for n in range(9):
        assert galois_orbit_count(n) == galois_orbit_count_brute(n)


def test_cube_formula_vs_brute():
    assert cube_orbit_count(3, 3) == 4
    for n in range(12):
        assert cube_orbit_count(2, n) == n // 2 + 1
        assert cube_orbit_count(1, n) == 1
    for d in range(1, 7):
        for n in range(13):
            assert cube_orbit_count(d, n) == cube_orbit_count_brute(d, n), (d, n)


def test_example_functor_counts_each_elementary_example():
    for name in ("planes", "points", "galois", "cube"):
        for d in (1, 2, 5):
            emf = gallery.example_functor(name, d)
            for n in range(10):
                assert elementary_count(emf, n) == gallery.example_counts(name, n, d)["orbits"]
    assert gallery.example_functor("trees") is None


def test_cube_fit_recovers_period():
    for d in range(1, 7):
        window = (d + 2) * d * 2 + 2 * d + 4
        seq = {n: cube_orbit_count(d, n) for n in range(window)}
        res = fit(seq, max_period=d, max_degree=d)
        assert d % res.qp.period == 0
        for n in range(window, window + 2 * d):
            assert res.qp.evaluate(n) == cube_orbit_count(d, n)


def test_exact_rank_agrees_with_fractions():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        assert exact_rank(m) == exact_rank_fraction(m)


def test_exact_rank_rectangular_and_rank_deficient():
    rng = random.Random(43)
    seen = set()
    for _ in range(300):
        rows, cols, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] for _ in range(rows)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(k)]
        m = [[sum((a * b[c] for a, b in zip(row, right)), Fraction(0)) for c in range(cols)] for row in left]
        assert len(m) == rows and all(len(row) == cols for row in m)
        r = exact_rank_fraction(m)
        assert exact_rank(m) == r <= min(rows, cols, k)
        seen.add((r < min(rows, cols), rows == cols))
    # deficient and full-rank cases of both square and rectangular shapes occur
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert exact_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert exact_rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    assert exact_rank([[]]) == 0
    assert exact_rank([]) == 0


@pytest.mark.parametrize(
    "matrix, row", [([[1, 2], [3]], 1), ([[1], [2, 3]], 1), ([[1, 2], [3, 4], []], 2)]
)
def test_exact_rank_rejects_ragged_rows(matrix, row):
    with pytest.raises(ValueError, match=f"row {row} has {len(matrix[row])} entries"):
        exact_rank(matrix)


def test_exact_rank_large_entries():
    # Hadamard bounds above 3.3e24: 8 x 8 with entries up to 1000, and
    # products of rank 8 and 5 with entries up to 4500
    rng = random.Random(44)
    m = [[rng.randint(-1000, 1000) for _ in range(8)] for _ in range(8)]
    assert exact_rank(m) == exact_rank_fraction(m) == 8
    for rank in (8, 5):
        a = [[rng.randint(-30, 30) for _ in range(rank)] for _ in range(8)]
        b = [[rng.randint(-30, 30) for _ in range(8)] for _ in range(rank)]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        assert exact_rank(m) == exact_rank_fraction(m) <= rank
    assert fixed_rank_orbit_counts([0, 10**6], 4, "general") == fixed_rank_orbit_counts(
        [0, 1], 4, "general"
    )


def _product(rng, rows, rank, cols, bound):
    a = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rows)]
    b = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank)]
    return [[sum(x * y[c] for x, y in zip(row, b)) for c in range(cols)] for row in a]


def test_rank_step_leaves_primitive_rows():
    # each step reduces the rows after a row and leaves them primitive, with
    # a positive first nonzero entry; the ranks it raises sum to the rank
    rng = random.Random(45)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = _product(rng, rows, rng.randint(0, 5), cols, 9)
        flat, width, rank = [x for row in m for x in row], cols, 0
        for i in range(rows):
            raised, flat = gallery._rank_mod(flat, flat[width:], width)
            assert raised in (0, 1)
            width -= raised
            rank += raised
            assert len(flat) == (rows - 1 - i) * width
            if any(flat):
                assert gcd(*flat) == 1 and next(x for x in flat if x) > 0
        assert rank == exact_rank_fraction(m)
    m = [[rng.randint(-1000, 1000) for _ in range(40)] for _ in range(40)]
    assert exact_rank(m) == exact_rank_fraction(m) == 40
    m = _product(rng, 30, 15, 30, 1000)
    assert exact_rank(m) == exact_rank_fraction(m) == 15


def test_symmetric_binary_rank_counts():
    # n = 6 and 7 settle rows whose fixed points split into several blocks
    for n in range(1, 8):
        counts = fixed_rank_orbit_counts([Fraction(0), Fraction(1)], n, "symmetric")
        for k in (0, 1, 2):
            want = symmetric_binary_rank_formula(k, n) if k <= n else 0
            assert counts.get(k, 0) == want, (n, k)
        assert sum(counts.values()) == matrix_orbit_count([0, 1], n, "symmetric"), n


def test_symmetric_examples():
    assert fixed_rank_orbit_count([0, 1], 2, 4, "symmetric") == 14
    assert fixed_rank_orbit_count([0, 1], 1, 5, "symmetric") == 5
    assert fixed_rank_orbit_count([0, 1], 0, 5, "symmetric") == 1


def test_rank_scale_invariance():
    a = fixed_rank_orbit_counts([Fraction(0), Fraction(1)], 4, "symmetric")
    b = fixed_rank_orbit_counts([Fraction(0), Fraction(3)], 4, "symmetric")
    assert a == b
    a = fixed_rank_orbit_counts([Fraction(0), Fraction(1)], 3, "general")
    b = fixed_rank_orbit_counts([Fraction(0), Fraction(1, 2)], 3, "general")
    assert a == b


@pytest.mark.parametrize("shape", ["symmetric", "general"])
@pytest.mark.parametrize(
    "entries", [[0, 1], [0, 1, 2], [0, Fraction(1, 2), 1]], ids=["01", "012", "0half1"]
)
def test_rank_counts_match_brute_force(entries, shape):
    for n in range(4):
        counts = fixed_rank_orbit_counts(entries, n, shape)
        assert counts == fixed_rank_orbit_counts_brute(entries, n, shape), n
        assert sum(counts.values()) == matrix_orbit_count(entries, n, shape)


def test_rank_counts_match_brute_force_symmetric_binary_4():
    counts = fixed_rank_orbit_counts([0, 1], 4, "symmetric")
    assert counts == fixed_rank_orbit_counts_brute([0, 1], 4, "symmetric")
    assert counts == {0: 1, 1: 4, 2: 14, 3: 31, 4: 40}


def test_rank_counts_do_not_depend_on_entry_order():
    rng = random.Random(5)
    entries = [Fraction(-1), Fraction(1, 2), Fraction(2)]
    for shape, n in (("symmetric", 4), ("general", 3)):
        want = fixed_rank_orbit_counts(entries, n, shape)
        for order in ([2, 1, 0], [1, 0, 2], rng.sample(range(3), 3)):
            assert fixed_rank_orbit_counts([entries[i] for i in order], n, shape) == want


def test_rank_counts_collapse_equal_entries():
    want = {0: 1, 1: 3, 2: 7, 3: 9}
    assert fixed_rank_orbit_counts([0, 1], 3) == want
    assert fixed_rank_orbit_counts([0, 1, 1], 3) == want
    assert fixed_rank_orbit_counts([0, 1, Fraction(2, 2)], 3) == want
    assert matrix_orbit_count([0, 1, 1], 3) == sum(want.values())


def test_rank_counts_reject_negative_n():
    for count in (fixed_rank_orbit_counts, fixed_rank_orbit_counts_brute, matrix_orbit_count):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            count([0, 1], -1)


def test_general_shape_budget():
    with pytest.raises(TooLarge):
        fixed_rank_orbit_counts([0, 1, 2, 3], 8, "general")


def test_general_shape_small():
    # 2x2 general {0,1}: 16 matrices; simultaneous swap fixes the 4 matrices
    # constant on its two cell orbits, so Burnside gives (16 + 4) / 2
    counts = fixed_rank_orbit_counts([0, 1], 2, "general")
    assert sum(counts.values()) == 10
    assert counts[0] == 1


def test_trees():
    assert tree_orbit_count(4) == (16, 2)
    assert tree_orbit_count(3) == (3, 1)
    assert tree_orbit_count(2) == (1, 1)
    assert labeled_tree_count(5) == 125
    with pytest.raises(TooLarge):
        tree_orbit_count(12)
    # no tree on no vertices, from every tree count alike
    for n in (0, -1, -5):
        for count in (tree_orbit_count, labeled_tree_count, lambda n: gallery.example_counts("trees", n)):
            with pytest.raises(ValueError, match="n must be positive"):
                count(n)


def test_tree_counts_match_growth_oracle():
    growth = unlabeled_tree_counts(10)
    assert growth == (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)
    for n in range(2, gallery.TREE_BRUTE_LIMIT + 1):
        assert tree_orbit_count(n) == (n ** (n - 2), growth[n - 1])


def _non_increasing_multiplicities(seq, n):
    counts = [seq.count(v) for v in range(1, n + 1)]
    return all(a >= b for a, b in zip(counts, counts[1:]))


def test_sorted_degree_sequences_are_the_filtered_product():
    for n in range(2, 8):
        listed = [seq for seq, _ in sorted_degree_prufer_sequences(n)]
        expected = [
            seq for seq in product(range(1, n + 1), repeat=n - 2)
            if _non_increasing_multiplicities(seq, n)
        ]
        assert len(listed) == len(set(listed))
        assert sorted(listed) == expected, n
    assert sum(1 for _ in sorted_degree_prufer_sequences(7)) == 246


def test_sorted_degree_sequences_reach_every_tree_class():
    for n in range(2, 7):
        every = {
            canonical_tree(prufer_to_edges(seq, n), n)
            for seq in product(range(1, n + 1), repeat=n - 2)
        }
        sorted_only = {
            canonical_tree(prufer_to_edges(seq, n), n)
            for seq, _ in sorted_degree_prufer_sequences(n)
        }
        assert sorted_only == every, n


def test_canonical_tree_matches_exhaustive():
    rng = random.Random(7)
    for n in range(2, 7):
        for _ in range(30):
            seq = tuple(rng.randint(1, n) for _ in range(n - 2))
            edges = prufer_to_edges(seq, n)
            seq2 = tuple(rng.randint(1, n) for _ in range(n - 2))
            edges2 = prufer_to_edges(seq2, n)
            same_code = canonical_tree(edges, n) == canonical_tree(edges2, n)
            same_exh = canonical_tree_exhaustive(edges, n) == canonical_tree_exhaustive(edges2, n)
            assert same_code == same_exh


def test_tree_sequence_has_no_quasipolynomial():
    counts = unlabeled_tree_counts(10)
    with pytest.raises(NoFit):
        fit({n: counts[n - 1] for n in range(1, 11)}, max_period=6, max_degree=6)


def test_example_counts_run_no_brute_force(monkeypatch):
    def refuse(*args):
        raise AssertionError("brute force called")

    monkeypatch.setattr(gallery, "galois_orbit_count_brute", refuse)
    monkeypatch.setattr(gallery, "cube_orbit_count_brute", refuse)
    assert gallery.example_counts("galois", 18) == {"orbits": galois_orbit_count(18)}
    assert gallery.example_counts("cube", 40, d=4) == {"orbits": cube_orbit_count(4, 40)}


def test_budget_only_tightens_the_rank_cap():
    # the 8-cycle's first row meets all eight cell orbits: 4^8 value
    # choices, over the route's own cap of 10^4 whatever the budget
    with budget(max_states=10**9), pytest.raises(TooLarge, match="choices: 16384 exceeds the budget 10000"):
        fixed_rank_orbit_counts([0, 1, 2, 3], 8, "general")
    # at most 1 553 reduced states in one row: within the route's cap, above
    # a budget of 1000
    assert fixed_rank_orbit_counts([0, 1], 5, "general")
    with budget(max_states=1000), pytest.raises(TooLarge, match="reduced rank states: .* exceeds the budget 1000"):
        fixed_rank_orbit_counts([0, 1], 5, "general")
    # the brute force lists 2^10 assignments
    with budget(max_states=1000), pytest.raises(TooLarge):
        fixed_rank_orbit_counts_brute([0, 1], 4, "symmetric")


def test_integer_cap_bounds_what_a_row_stores(monkeypatch):
    # {0,1} general at n = 5 keeps at most 46 590 integers in a row, by the
    # bound of states times the longest key: within the default cap, over
    # a cap of 10^4
    assert fixed_rank_orbit_counts([0, 1], 5, "general")
    monkeypatch.setattr(gallery, "RANK_INTEGER_BUDGET", 10**4)
    with pytest.raises(TooLarge, match=r"reduced rank states of \d+ integers: \d+ exceeds the budget"):
        fixed_rank_orbit_counts([0, 1], 5, "general")


def test_row_cap_refuses_before_a_row_expands():
    # 100 values on two cell orbits a row: the first row's 10^4 prefixes
    # leave 6 010 states, each of which the last row would expand 10^4
    # ways.  The widest row the tests settle expands 793 800 prefixes.
    start = time.perf_counter()
    with budget(max_states=10**9), pytest.raises(
        TooLarge, match="row value choices over all states: 60100000 exceeds the budget 1000000"
    ):
        fixed_rank_orbit_counts(range(100), 2, "general")
    assert time.perf_counter() - start < 1


def _brute_histogram(images, symmetric, entries):
    """Every matrix constant on the cell orbits of `images`, ranked one by
    one by exact rational elimination."""
    n = len(images)
    orbits = gallery._cell_orbits(images, symmetric)
    hist = [0] * (n + 1)
    for values in product(entries, repeat=len(orbits)):
        m = [[Fraction(0)] * n for _ in range(n)]
        for orbit, v in zip(orbits, values):
            for i, j in orbit:
                m[i - 1][j - 1] = v
                if symmetric:
                    m[j - 1][i - 1] = v
        hist[exact_rank_fraction(m)] += 1
    return hist


# the brute force ranks |entries|^orbits matrices, so it leaves out the
# cases above this many: the identity of Sym(4) in both shapes, the identity
# of Sym(3) and a transposition of Sym(4) in general shape with three
# entries.  The pinned counts and the brute-force orbit counts cover those
HISTOGRAM_BRUTE_LIMIT = 3**8


@pytest.mark.parametrize("shape", ["symmetric", "general"])
@pytest.mark.parametrize(
    "entries",
    [[0, 1], [1, 2], [-1, 0, 1], [0, Fraction(1, 2), 1]],
    ids=["01", "12", "-101", "0half1"],
)
def test_fixed_rank_histogram_equals_brute_force(entries, shape):
    symmetric = shape == "symmetric"
    values = sorted(Fraction(e) for e in entries)
    ints = gallery._integerize(values)
    skipped = []
    for n in range(5):
        for images, _ in gallery._cycle_type_representatives(n):
            orbits = gallery._cell_orbits(images, symmetric)
            if len(values) ** len(orbits) > HISTOGRAM_BRUTE_LIMIT:
                skipped.append(images)
                continue
            want = _brute_histogram(images, symmetric, values)
            assert gallery._fixed_rank_histogram(images, symmetric, ints) == want, images
    assert skipped == {
        (2, True): [],
        (3, True): [(1, 2, 3, 4)],
        (2, False): [(1, 2, 3, 4)],
        (3, False): [(1, 2, 3), (2, 1, 3, 4), (1, 2, 3, 4)],
    }[len(values), symmetric]


def test_fixed_rank_counts_pinned():
    assert fixed_rank_orbit_counts([0, 1, 2], 4, "symmetric") == {0: 1, 1: 8, 2: 95, 3: 587, 4: 2441}
    assert fixed_rank_orbit_counts([0, 1], 4, "general") == {0: 1, 1: 26, 2: 368, 3: 1619, 4: 1030}
    assert fixed_rank_orbit_counts([0, 1], 5, "symmetric") == {
        0: 1, 1: 5, 2: 22, 3: 79, 4: 184, 5: 253
    }
    assert fixed_rank_orbit_counts([-1, 0, 1], 4, "symmetric") == {
        0: 1, 1: 16, 2: 127, 3: 762, 4: 2226
    }
    assert fixed_rank_orbit_counts([1, 2], 4, "symmetric") == {1: 2, 2: 10, 3: 27, 4: 51}


@pytest.mark.parametrize("n, shape", [(5, "general"), (6, "symmetric")])
def test_fixed_rank_counts_sum_to_all_orbits_beyond_enumeration(n, shape):
    # 2^25 and 2^21 fixed matrices for the identity alone
    counts = fixed_rank_orbit_counts([0, 1], n, shape)
    assert sorted(counts) == list(range(n + 1))
    assert sum(counts.values()) == matrix_orbit_count([0, 1], n, shape)


def test_fixed_rank_counts_lifted_by_the_row_0_multisets():
    # the identity's row 0 lists 3 * 10 prefixes, not 3^4, and its later
    # rows list by blocks: the widest row expands 793 800 prefixes, where
    # 1 111 644 were refused
    counts = fixed_rank_orbit_counts([0, 2, 3], 4, "general")
    assert sorted(counts) == list(range(5))
    assert sum(counts.values()) == matrix_orbit_count([0, 2, 3], 4, "general")


def test_deadline_stops_a_rank_count():
    with budget(seconds=0), pytest.raises(TooLarge, match="time limit"):
        fixed_rank_orbit_counts([0, 1], 4, "symmetric")


def test_fixed_rank_histogram_merges_equal_states(monkeypatch):
    # tick() runs once per source state; a key that kept the sign would
    # split states that have the same completions (667 and 223 states)
    states = []
    monkeypatch.setattr(gallery, "tick", lambda: states.append(1))
    identity = (1, 2, 3, 4)
    assert gallery._fixed_rank_histogram(identity, True, [0, 1, 2]) == [1, 30, 884, 9018, 49116]
    assert len(states) == 1 + 29 + 323 + 203
    states.clear()
    assert gallery._fixed_rank_histogram(identity, False, [0, 1]) == [1, 225, 6750, 36000, 22560]
    assert len(states) == 1 + 8 + 46 + 112


def test_every_row_lists_its_fixed_points_by_blocks(monkeypatch):
    # the identity's later rows list the orbits of their fixed points once
    # per multiset within each block too: listing row 0 alone that way
    # took 2 318 and 4 701 elimination steps
    steps = []
    rank_mod = gallery._rank_mod
    monkeypatch.setattr(gallery, "_rank_mod", lambda *args: steps.append(1) or rank_mod(*args))
    assert gallery._fixed_rank_histogram((1, 2, 3, 4, 5), True, [0, 1]) == [1, 31, 360, 2980, 10800, 18596]
    assert len(steps) == 1210
    steps.clear()
    assert gallery._fixed_rank_histogram((1, 2, 3, 4), True, [0, 1, 2]) == [1, 30, 884, 9018, 49116]
    assert len(steps) == 3567


@pytest.mark.parametrize(
    "images, symmetric, entries",
    [((2, 1, 3, 4, 5), True, [-1, Fraction(1, 2)]), ((2, 1, 3, 4), True, [-1, Fraction(1, 2), 2]),
     ((2, 1, 3, 4), False, [-1, Fraction(1, 2)])],
)
def test_fixed_rank_histogram_lists_row_0_by_multisets(monkeypatch, images, symmetric, entries):
    # a transposition that fixes two or three points besides index 0: row 0
    # lists the values of their orbits once per multiset, and the weights
    # still count every value of row 0; each later row lists once per
    # multiset within each block, and the blocks split after row 0
    calls = []
    row_choices = gallery._row_choices
    monkeypatch.setattr(gallery, "_row_choices", lambda *args: calls.append((args, row_choices(*args))) or calls[-1][1])
    values = sorted(Fraction(e) for e in entries)
    hist = gallery._fixed_rank_histogram(images, symmetric, gallery._integerize(values))
    assert hist == _brute_histogram(images, symmetric, values)
    (free, sizes, ints), _ = calls[0]
    row_0 = sum(min(i for i, _ in orbit) == 1 for orbit in gallery._cell_orbits(images, symmetric))
    fixed = sum(images[j - 1] == j for j in range(2, len(images) + 1))
    size = len(ints)
    assert (free, sizes, size) == (row_0 - fixed, (fixed,), len(values)) and fixed >= 2
    for (free, sizes, _), (_, weights, splits) in calls:
        assert sum(weights) == size ** (free + sum(sizes))
        assert len(weights) == size**free * prod(comb(size + s - 1, s) for s in sizes)
        assert all(sum(split) == sum(sizes) for split in splits)
    # after row 0 every split of the fixed points after the next row is listed
    later = {sizes for (_, sizes, _), _ in calls[1:]}
    assert {(fixed - 1,), (1,) * (fixed - 1)} <= later


def _reference_histogram(images, symmetric, entries):
    """The row programme with one stored vector per (orbit, row) indicator
    and a keyed state per last-row choice: `_fixed_rank_histogram` must give
    the same histograms and trip the same caps."""
    n = len(images)
    orbits = gallery._cell_orbits(images, symmetric)
    first = [min(i for i, _ in orbit) - 1 for orbit in orbits]
    indicator = {}
    for k, orbit in enumerate(orbits):
        for i, j in orbit:
            for a, b in ((i, j), (j, i)) if symmetric else ((i, j),):
                indicator.setdefault((k, a - 1), [0] * n)[b - 1] = 1
    slots = sorted(indicator, key=lambda s: (first[s[0]], s))
    start = [0] * (n * n) + [v for s in slots for v in indicator[s]]
    states = {(0, tuple(start)): 1}
    for r in range(n):
        slots = [s for s in slots if first[s[0]] >= r]
        group = [k for k, f in enumerate(first) if f == r]
        spread = [[(j - r, t) for t, (o, j) in enumerate(slots) if o == k] for k in group]
        own = sum(len(places) for places in spread)
        nxt = {}
        for (rank, flat), count in states.items():
            tick()
            m = n - rank
            known_end = (n - r) * m
            later = flat[known_end + own * m :]
            partial = [flat[:known_end]]
            for places in spread:
                require(len(partial) * len(entries), gallery.RANK_CHOICE_BUDGET, "row value choices")
                step = [0] * known_end
                for row, t in places:
                    at = known_end + t * m
                    step[row * m : (row + 1) * m] = flat[at : at + m]
                partial = [
                    [a + v * d for a, d in zip(known, step)] for known in partial for v in entries
                ]
            for known in partial:
                w = known[:m]
                rest = list(known[m:]) + list(later)
                p = next((c for c, x in enumerate(w) if x), None)
                if p is None:
                    key_rank = rank
                else:
                    key_rank = rank + 1
                    out = []
                    for s in range(0, len(rest), m):
                        f = rest[s + p]
                        out += [w[p] * rest[s + c] - f * w[c] for c in range(m) if c != p]
                    rest = out
                g = gcd(*rest)
                if g > 1:
                    rest = [x // g for x in rest]
                if next((x for x in rest if x), 0) < 0:
                    rest = [-x for x in rest]
                key = (key_rank, tuple(rest))
                nxt[key] = nxt.get(key, 0) + count
            require(len(nxt), gallery.RANK_STATE_BUDGET, "reduced rank states")
        states = nxt
    hist = [0] * (n + 1)
    for (rank, _), count in states.items():
        hist[rank] += count
    return hist


def _random_entries(rng, size):
    """`size` distinct rationals, one of them negative and one not an integer."""
    pool = sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)})
    while True:
        values = sorted(rng.sample(pool, size))
        if values[0] < 0 and any(v.denominator > 1 for v in values):
            return values


# (number of entries, shape, largest n); four entries stop at n = 3 in
# general shape, where the identity of Sym(4) holds over 10^6 states a row
@pytest.mark.parametrize(
    "size, shape, top",
    [(2, "symmetric", 5), (2, "general", 5), (3, "symmetric", 4), (3, "general", 4),
     (4, "symmetric", 4), (4, "general", 3)],
)
def test_fixed_rank_histogram_equals_reference(size, shape, top):
    symmetric = shape == "symmetric"
    rng = random.Random(f"{size} {shape}")
    ints = gallery._integerize(_random_entries(rng, size))
    for n in range(top + 1):
        for images, _ in gallery._cycle_type_representatives(n):
            want = _reference_histogram(images, symmetric, ints)
            assert gallery._fixed_rank_histogram(images, symmetric, ints) == want, (ints, images)


def _least_state_budget(histogram, images, symmetric, entries):
    """The least S for which `histogram` finishes within budget(max_states=S)."""
    lo, hi = 0, gallery.RANK_STATE_BUDGET
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            with budget(max_states=mid):
                histogram(images, symmetric, entries)
            hi = mid
        except TooLarge:
            lo = mid
    return hi


# (least budget, the reference's) where two or more fixed points besides
# index 0 let the rows list one choice per multiset of their values
SOONER_THAN_THE_REFERENCE = {(1, 2, 3, 4): (323, 725), (1, 2, 3): (100, 105), (2, 1, 3, 4): (30, 33)}


@pytest.mark.parametrize(
    "images, symmetric, entries",
    [((1,), True, [0, 1]), ((1,), False, [1, 2]), ((1, 2, 3, 4), True, [0, 1, 2]),
     ((1, 2, 3), False, [-2, 0, 1]), ((2, 1, 3, 4), False, [0, 1]), ((2, 3, 1, 4), True, [-1, 1])],
)
def test_fixed_rank_histogram_trips_the_reference_caps(images, symmetric, entries):
    # the state cap and --max-states stop the programme on the same inputs,
    # or sooner where row 0 lists fewer choices
    least = _least_state_budget(gallery._fixed_rank_histogram, images, symmetric, entries)
    reference = _least_state_budget(_reference_histogram, images, symmetric, entries)
    assert (least, reference) == SOONER_THAN_THE_REFERENCE.get(images, (reference, reference))
    assert 1 < least < gallery.RANK_STATE_BUDGET

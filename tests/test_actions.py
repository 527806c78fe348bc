import random
from itertools import product

import pytest

from widecount.actions import (
    Arrow,
    Groupoid,
    GroupoidAction,
    NotAnAction,
    PermGroup,
    Permutation,
    TooLarge,
    budget,
    canonical_form,
    require,
    tick,
    group_orbit_count,
    group_orbits_enumerate,
    groupoid_orbit_count,
    groupoid_orbits_enumerate,
)


def test_permutation_parsing_and_algebra():
    p = Permutation.from_cycles("(1 2)(3 4 5)", 5)
    assert p.images == (2, 1, 4, 5, 3)
    assert (p * p.inverse()) == Permutation.identity(5)
    assert p.cycle_string() == "(1 2)(3 4 5)"
    q = Permutation.from_cycles("()", 3)
    assert q == Permutation.identity(3)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 6)", 5)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_group_materialization():
    s3 = PermGroup.symmetric(3)
    assert s3.order == 6
    c4 = PermGroup.cyclic(4)
    assert c4.order == 4
    assert PermGroup.trivial(5).order == 1
    g = PermGroup.from_json({"degree": 4, "generators": ["(1 2)", "(3 4)"]})
    assert g.order == 4


def test_group_orbit_count_swap_on_pairs():
    # Sym(2) acting on {11,12,21,22} by coordinate swap -> 3 orbits
    g = PermGroup.symmetric(2)
    universe = [(a, b) for a in (1, 2) for b in (1, 2)]

    def act(perm, x):
        # position permutation of a length-2 word
        return tuple(x[perm(i) - 1] for i in (1, 2))

    assert group_orbit_count(g, universe, act) == 3
    assert len(group_orbits_enumerate(g, universe, act)) == 3


def _compositions(n, d):
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in _compositions(n - first, d - 1):
            out.append((first,) + rest)
    return out


def test_group_orbit_count_rotation_on_compositions():
    g = PermGroup.cyclic(3)
    universe = _compositions(3, 3)
    assert len(universe) == 10

    def act(perm, x):
        return tuple(x[perm(i) - 1] for i in (1, 2, 3))

    assert group_orbit_count(g, universe, act) == 4


def test_trivial_group_counts_everything():
    g = PermGroup.trivial(2)
    universe = list(range(17))
    assert group_orbit_count(g, universe, lambda perm, x: x) == 17


def test_not_an_action_detected():
    g = PermGroup.symmetric(2)
    universe = [0, 1, 2]
    with pytest.raises(NotAnAction):
        group_orbit_count(g, universe, lambda perm, x: 0 if perm.images != (1, 2) else x)


def _two_object_groupoid():
    # objects p,q; trivial vertex groups; a single arrow each way
    f = Arrow("p", "q", "f")
    finv = Arrow("q", "p", "f_inv")
    idp = Arrow("p", "p", "id")
    idq = Arrow("q", "q", "id")
    arrows = [idp, idq, f, finv]
    compose = {
        (idp, idp): idp,
        (idq, idq): idq,
        (idp, f): f,
        (f, idq): f,
        (idq, finv): finv,
        (finv, idp): finv,
        (f, finv): idp,
        (finv, f): idq,
    }
    return Groupoid(["p", "q"], arrows, compose, {"p": idp, "q": idq})


def test_two_object_groupoid_orbits():
    g = _two_object_groupoid()
    carrier = ["a", "b", "c", "d"]
    anchor = {"a": "p", "b": "p", "c": "q", "d": "q"}
    f, finv = g.hom("p", "q")[0], g.hom("q", "p")[0]
    maps = {
        g.identities["p"]: {"a": "a", "b": "b"},
        g.identities["q"]: {"c": "c", "d": "d"},
        f: {"a": "c", "b": "d"},
        finv: {"c": "a", "d": "b"},
    }
    act = GroupoidAction(g, carrier, anchor, maps)
    assert groupoid_orbit_count(act) == 2
    blocks = groupoid_orbits_enumerate(act)
    assert sorted(sorted(b) for b in blocks) == [["a", "c"], ["b", "d"]]


def test_single_object_groupoid_reduces_to_group():
    grp = PermGroup.cyclic(2)
    g = Groupoid.from_group(grp)
    universe = _compositions(4, 2)  # 5 compositions, swap action

    def swap(x):
        return (x[1], x[0])

    maps = {}
    for arrow in g.arrows:
        maps[arrow] = {x: tuple(x[arrow.label(i) - 1] for i in (1, 2)) for x in universe}
    act = GroupoidAction(g, universe, {x: 0 for x in universe}, maps)
    direct = group_orbit_count(grp, universe, lambda p, x: tuple(x[p(i) - 1] for i in (1, 2)))
    assert groupoid_orbit_count(act) == direct == 3


def test_empty_carrier():
    g = _two_object_groupoid()
    maps = {a: {} for a in g.arrows}
    act = GroupoidAction(g, [], {}, maps)
    assert groupoid_orbit_count(act) == 0
    assert groupoid_orbits_enumerate(act) == []


def test_groupoid_action_axioms_enforced():
    g = _two_object_groupoid()
    carrier = ["a", "c"]
    anchor = {"a": "p", "c": "q"}
    f, finv = g.hom("p", "q")[0], g.hom("q", "p")[0]
    bad_maps = {
        g.identities["p"]: {"a": "a"},
        g.identities["q"]: {"c": "c"},
        f: {"a": "c"},
        finv: {"c": "c"},  # lands in the wrong fiber
    }
    with pytest.raises(NotAnAction):
        GroupoidAction(g, carrier, anchor, bad_maps)


def _random_groupoid_action(rng):
    """A random finite groupoid action: objects with isomorphic fibers.

    Build from a random base group on a random set, then spread over
    several objects with bijections between fibers.
    """
    n_obj = rng.randint(1, 5)
    base = rng.choice(
        [PermGroup.trivial(3), PermGroup.cyclic(2), PermGroup.cyclic(3), PermGroup.symmetric(3)]
    )
    # keep token blocks aligned with the base degree so the action is total
    fiber_size = base.degree * rng.randint(0, max(1, 200 // (n_obj * base.degree)))
    # vertex group acts on [fiber_size] tokens by a random action built from
    # permutation images on token indices
    tokens = list(range(fiber_size))

    # base acts on tokens blockwise: permute residues within each degree-block
    def act_token(g, t):
        # act through the permutation of residues 1..degree
        r = t % base.degree + 1
        return (t - (r - 1)) + (g(r) - 1)

    objects = [f"q{i}" for i in range(n_obj)]
    arrows = []
    compose = {}
    # arrows: (i -> j, g) for all i, j, g in base; compose via group law
    arrow_of = {}
    for i in objects:
        for j in objects:
            for g in base:
                a = Arrow(i, j, (g.images,))
                arrow_of[(i, j, g)] = a
                arrows.append(a)
    for i in objects:
        for j in objects:
            for k in objects:
                for g in base:
                    for h in base:
                        compose[(arrow_of[(i, j, g)], arrow_of[(j, k, h)])] = arrow_of[
                            (i, k, h * g)
                        ]
    identities = {i: arrow_of[(i, i, Permutation.identity(base.degree))] for i in objects}
    gpd = Groupoid(objects, arrows, compose, identities)
    carrier = [(i, t) for i in objects for t in tokens]
    anchor = {x: x[0] for x in carrier}
    maps = {}
    for (i, j, g), a in arrow_of.items():
        maps[a] = {(i, t): (j, act_token(g, t)) for t in tokens}
    return GroupoidAction(gpd, carrier, anchor, maps)


def test_randomized_groupoid_count_equals_union_find():
    rng = random.Random(202408)
    for _ in range(30):
        act = _random_groupoid_action(rng)
        assert groupoid_orbit_count(act) == len(groupoid_orbits_enumerate(act))


def test_orbit_cardinality_identities():
    # |G(a(y))| = |G(p)| and stabilizer sizes constant along an orbit
    act = _random_groupoid_action(random.Random(7))
    g = act.groupoid
    for block in groupoid_orbits_enumerate(act):
        outs = {g.out_degree(act.anchor[y]) for y in block}
        assert len(outs) == 1
        stabs = set()
        for y in block:
            p = act.anchor[y]
            stabs.add(sum(1 for loop in g.loops(p) if act.maps[loop][y] == y))
        assert len(stabs) == 1


def test_canonical_form_examples():
    s3 = PermGroup.symmetric(3)
    assert canonical_form((2, 1, 2), position_group=s3) == (1, 2, 2)
    s2 = PermGroup.symmetric(2)
    assert canonical_form((1, 2), position_group=s2, alphabet_group=s2) == (1, 2)
    assert (
        canonical_form(
            (3, 1, 3, 2),
            position_group=PermGroup.symmetric(4),
            alphabet_group=PermGroup.symmetric(3),
        )
        == (1, 1, 2, 3)
    )


def test_canonical_form_idempotent_and_orbit_constant():
    rng = random.Random(99)
    s4 = PermGroup.symmetric(4)
    s2 = PermGroup.symmetric(2)
    for _ in range(50):
        w = tuple(rng.randint(1, 2) for _ in range(4))
        c = canonical_form(w, position_group=s4, alphabet_group=s2)
        assert canonical_form(c, position_group=s4, alphabet_group=s2) == c
        for pi in s4:
            for g in s2:
                img = tuple(g(w[pi(i) - 1]) for i in range(1, 5))
                assert canonical_form(img, position_group=s4, alphabet_group=s2) == c


def test_canonical_form_budget():
    cyclic_big = PermGroup.cyclic(12)
    with pytest.raises(TooLarge):
        with budget(max_states=10):
            canonical_form(tuple(1 for _ in range(12)), position_group=cyclic_big)


def test_budget_nests_tightens_and_resets():
    require(10**12, None, "states")  # no cap anywhere
    tick()  # no deadline
    with budget(max_states=100):
        require(100, 10**6, "states")
        with pytest.raises(TooLarge, match="101 exceeds the budget 100"):
            require(101, 10**6, "states")
        with pytest.raises(TooLarge, match="exceeds the budget 50"):
            require(51, 50, "states")  # the route's own cap is smaller
        with budget(max_states=10**9):  # an inner budget never loosens
            with pytest.raises(TooLarge):
                require(101, None, "states")
        with budget(seconds=0):
            with pytest.raises(TooLarge, match="time limit"):
                tick()
            with budget(seconds=100):  # nor does an inner deadline
                with pytest.raises(TooLarge):
                    tick()
        tick()
    require(10**12, None, "states")

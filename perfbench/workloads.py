"""The three workloads: their operations, how each is called, and how each
result is checked.

An operation is one public call that yields one count or one closed form.
`specs` turns a workload and a seed into blocks of plain-data operation
specs; a block is a sweep run in ascending order, and the seed fixes the
order of the blocks in each pass and the random inputs of `closed-forms`.
`Binder` (worker side) turns specs into calls on the library; `Checker`
(parent side) checks results against `refs`, apart from the program.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import refs

WORKLOADS = ("stratified", "enumeration", "closed-forms")

# An operation that fails on every run because of a known fault in the
# program: the form fitted on n <= 40 has period 1, degree 2 and onset 36,
# and disagrees with the Burnside route from n = 42 on.
KNOWN_FAULTS = {"codes_qp q2 m2 nmax40"}

RANK_ENTRY_SETS = [
    (["0", "1"], "symmetric", 5),
    (["0", "1"], "general", 4),
    (["0", "1", "2"], "symmetric", 4),
    (["0", "1/2", "1"], "symmetric", 4),
    (["-1", "0", "1"], "symmetric", 4),
]

# (k, obstructions, cycles of g); each is relabeled by a seeded coordinate
# permutation, which keeps the counts and the amount of work
LEVEL_TEMPLATES = [
    (3, [(3, 1, 0), (0, 2, 2)], [(0, 1, 2)]),
    (3, [(2, 3, 1)], [(0, 1)]),
    (3, [(4, 0, 0), (0, 4, 0)], []),
    (4, [(2, 2, 0, 0), (0, 0, 3, 1)], [(0, 1), (2, 3)]),
    (4, [(1, 1, 1, 1)], [(0, 1, 2)]),
    (4, [(3, 0, 0, 2), (0, 2, 2, 0)], []),
]

# (period, degree, onset) of the quasipolynomials behind the fitted sequences
FIT_SHAPES = [(2, 2, 3), (3, 1, 0), (4, 3, 2), (6, 2, 5)]
FIT_NMAX = 80
FIT_BOUNDS = dict(max_period=8, max_degree=4)


def specs(workload: str, seed: int) -> List[List[dict]]:
    if workload == "stratified":
        return [
            [_op(f"groupoid_roots d2 n{n}", "groupoid_roots", d=2, n=n) for n in range(25, 75)],
            [_op(f"groupoid_roots d3 n{n}", "groupoid_roots", d=3, n=n) for n in range(49, 85)],
            [_op(f"groupoid_roots d4 n{n}", "groupoid_roots", d=4, n=n) for n in (81,)],
            [
                _op(f"groupoid_s3_words n{n}", "groupoid_words", k=3, group="S", obs=[], n=n)
                for n in range(36, 51)
            ],
        ]
    if workload == "enumeration":
        rng = random.Random(seed)
        blocks = [
            [_op(f"direct_roots d{d} n{n}", "direct_roots", d=d, n=n) for n in range(1, top + 1)]
            for d, top in ((2, 9), (3, 6), (4, 5))
        ]
        blocks += [
            [_op(f"codes_direct q{q} m2 n{n}", "codes_direct", q=q, m=2, n=n) for n in range(2, top + 1)]
            for q, top in ((2, 7), (3, 6), (4, 4))
        ]
        for entries, shape, top in RANK_ENTRY_SETS:
            # the entry order changes the enumeration order, not the counts
            order = rng.sample(entries, len(entries))
            label = ",".join(entries)
            blocks.append(
                [
                    _op(f"ranks {{{label}}} {shape} n{n}", "ranks", entries=order, shape=shape, n=n)
                    for n in range(1, top + 1)
                ]
            )
        blocks.append([_op(f"trees n{n}", "trees", n=n) for n in range(1, 8)])
        return blocks
    if workload == "closed-forms":
        rng = random.Random(seed)
        ops = []
        for k in (3, 4):
            for group in ("S", "C", "1"):
                ops.append(_op(f"elementary_qp k{k} G{group}", "elementary_qp", k=k, group=group, obs=[]))
        rotated = [tuple((2, 1, 0, 0)[(j - r) % 4] for j in range(4)) for r in range(4)]
        ops.append(_op("elementary_qp k4 GC obstructed", "elementary_qp", k=4, group="C", obs=rotated))
        for i, (k, obs, cycles) in enumerate(LEVEL_TEMPLATES):
            pi = rng.sample(range(k), k)
            obs_pi = [tuple(o[pi.index(j)] for j in range(k)) for o in obs]
            g = list(range(k))
            for cyc in cycles:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    g[pi[a]] = pi[b]
            ops.append(_op(f"level_qp template{i}", "level_qp", k=k, obs=obs_pi, g=g))
        for q, m, nmax in ((2, 1, 20), (2, 2, 40), (2, 2, 80), (3, 2, 100)):
            ops.append(_op(f"codes_qp q{q} m{m} nmax{nmax}", "codes_qp", q=q, m=m, nmax=nmax))
        ops.append(_op("precomp_qp planes nmax12", "precomp_qp", nmax=12))
        for period, degree, onset in FIT_SHAPES:
            qp = refs.random_quasipolynomial(rng, period, degree)
            seq = [refs.qp_value(period, qp, n) for n in range(FIT_NMAX + 1)]
            for n in range(onset):
                seq[n] += rng.choice([-2, -1, 1, 2])
            ops.append(
                _op(
                    f"fit p{period} d{degree} onset{onset}", "fit",
                    seq=[int(v) for v in seq], period=period, qp=qp,
                )
            )
        return [[op] for op in ops]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _op(op_id: str, kind: str, **params) -> dict:
    return {"id": op_id, "kind": kind, **params}


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class Binder:
    """Builds the library inputs for a workload's specs and the calls on them.

    Presentations handed to the program get their oracle callbacks wrapped,
    so every `eq`, `count_equivalents` and `preceq` call is counted.
    """

    def __init__(self, wrap_oracle: Callable[[str, Callable], Callable]):
        from widecount.actions import PermGroup, Permutation
        from widecount.functors import model, precomponent
        from widecount.functors.elementary import ElementaryModelFunctor
        from widecount.lattice import DownwardClosedSet

        self._wrap = wrap_oracle
        self._perm_group = PermGroup
        self._permutation = Permutation
        self._emf = ElementaryModelFunctor
        self._dcs = DownwardClosedSet
        self._model = model
        self._precomponent = precomponent
        self._cache: Dict[tuple, object] = {}

    def _presentation(self, pres):
        return dataclasses.replace(
            pres,
            eq=self._wrap("model.eq", pres.eq),
            count_equivalents=self._wrap("model.shadow", pres.count_equivalents),
        )

    def _once(self, key: tuple, build: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _group(self, kind: str, k: int):
        if kind == "S":
            return self._perm_group.symmetric(k)
        if kind == "C":
            return self._perm_group.cyclic(k)
        return self._perm_group.trivial(k)

    def _elementary(self, spec: dict):
        k = spec["k"]
        return self._once(
            ("emf", k, spec["group"], str(spec["obs"])),
            lambda: self._emf(k, self._group(spec["group"], k), self._dcs(k, spec["obs"])),
        )

    def bind(self, spec: dict) -> Callable[[], object]:
        from widecount import codes, gallery, lattice, quasipoly
        from widecount.functors import elementary, extraction

        kind = spec["kind"]
        if kind == "groupoid_roots":
            d, n = spec["d"], spec["n"]
            pres = self._once(("roots", d), lambda: self._presentation(self._model.roots_of_unity(d)))
            return lambda: extraction.mf_count_via_groupoid(pres, n)
        if kind == "groupoid_words":
            emf = self._elementary(spec)
            pres = self._once(
                ("words", id(emf)),
                lambda: self._presentation(self._model.elementary_embedding(emf)),
            )
            n = spec["n"]
            return lambda: extraction.mf_count_via_groupoid(pres, n)
        if kind == "direct_roots":
            d, n = spec["d"], spec["n"]
            pres = self._once(("roots", d), lambda: self._presentation(self._model.roots_of_unity(d)))
            return lambda: self._model.mf_orbit_count_direct(pres, n)
        if kind == "codes_direct":
            q, m, n = spec["q"], spec["m"], spec["n"]
            return lambda: codes.count_codes_direct(q, m, n)
        if kind == "ranks":
            entries = [Fraction(e) for e in spec["entries"]]
            n, shape = spec["n"], spec["shape"]
            return lambda: gallery.fixed_rank_orbit_counts(entries, n, shape)
        if kind == "trees":
            n = spec["n"]
            return lambda: gallery.tree_orbit_count(n)
        if kind == "elementary_qp":
            emf = self._elementary(spec)
            return lambda: elementary.elementary_quasipolynomial(emf)
        if kind == "level_qp":
            k = spec["k"]
            M = self._dcs(k, spec["obs"])
            g = self._permutation([x + 1 for x in spec["g"]])
            return lambda: lattice.level_quasipolynomial(M, g)
        if kind == "codes_qp":
            q, m, nmax = spec["q"], spec["m"], spec["nmax"]
            return lambda: codes.codes_quasipolynomial(q, m, nmax, max_period=12, max_degree=4)
        if kind == "precomp_qp":
            base = self._precomponent.planes_precomponent()
            pc = dataclasses.replace(base, preceq=self._wrap("precomponent.preceq", base.preceq))
            nmax = spec["nmax"]
            return lambda: self._precomponent.precomp_quasipolynomial(pc, nmax)
        if kind == "fit":
            seq = dict(enumerate(spec["seq"]))
            return lambda: quasipoly.fit(seq, **FIT_BOUNDS)
        raise ValueError(f"unknown operation kind {kind!r}")


def to_plain(result) -> object:
    """A JSON form of an operation's result (done outside the timed region)."""
    if isinstance(result, int):
        return result
    if isinstance(result, tuple):
        return list(result)
    if isinstance(result, dict):
        return sorted([int(r), int(c)] for r, c in result.items())
    qp = result.qp
    return {
        "period": qp.period,
        "constituents": [[str(c) for c in poly] for poly in qp.constituents],
        "onset": result.onset,
        "validated_range": list(result.validated_range),
    }


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class Checker:
    """Checks each result against a computation made apart from the program.

    Expected values are computed on first use and kept, so every pass of a
    run is checked against the same reference.  `count_codes_burnside` is
    the one library call used.  It counts code classes by the orbit-counting
    lemma, a route apart from the canonical forms of the direct
    classification.  The fitted code forms are fitted to its values up to
    nmax, so checking them up to 2 * nmax tests what they claim beyond the
    window they saw.
    """

    def __init__(self) -> None:
        self._expected: Dict[str, object] = {}
        self._burnside: Dict[tuple, int] = {}

    def _codes(self, q: int, m: int, n: int) -> int:
        key = (q, m, n)
        if key not in self._burnside:
            from widecount.codes import count_codes_burnside

            self._burnside[key] = count_codes_burnside(q, m, n)
        return self._burnside[key]

    def check(self, spec: dict, result) -> Optional[str]:
        """None when the result is right, else a short reason."""
        kind = spec["kind"]
        if kind in ("groupoid_roots", "direct_roots"):
            return _compare(result, refs.rotation_orbits(spec["d"], spec["n"]))
        if kind == "groupoid_words":
            group = refs.group_elements(spec["group"], spec["k"])
            obs = [tuple(o) for o in spec["obs"]]
            expected = self._memo(
                spec, lambda: refs.count_vector_orbits(group, obs, spec["k"], spec["n"])
            )
            return _compare(result, expected)
        if kind == "codes_direct":
            return _compare(result, self._codes(spec["q"], spec["m"], spec["n"]))
        if kind == "ranks":
            return self._check_ranks(spec, result)
        if kind == "trees":
            n = spec["n"]
            return _compare(result, [refs.labeled_trees(n), refs.unlabeled_trees(n)])
        if kind in ("elementary_qp", "level_qp", "codes_qp", "precomp_qp", "fit"):
            return self._check_form(spec, result)
        return f"unknown operation kind {kind}"

    def _memo(self, spec: dict, compute: Callable[[], object]):
        if spec["id"] not in self._expected:
            self._expected[spec["id"]] = compute()
        return self._expected[spec["id"]]

    def _check_ranks(self, spec: dict, result) -> Optional[str]:
        n, symmetric = spec["n"], spec["shape"] == "symmetric"
        entries = [Fraction(e) for e in spec["entries"]]
        per_rank = {r: c for r, c in result}
        total = refs.matrix_orbit_count(n, len(entries), symmetric)
        if sum(per_rank.values()) != total:
            return f"per-rank counts sum to {sum(per_rank.values())}, the cycle index gives {total}"
        if n <= 3:
            table = self._memo(spec, lambda: refs.rank_orbit_table(entries, n, symmetric))
            if per_rank != table:
                return f"per-rank counts {per_rank} differ from the elimination brute force {table}"
        return None

    def _check_form(self, spec: dict, result) -> Optional[str]:
        if not isinstance(result, dict):
            return f"expected a closed form, got {result!r}"
        period = result["period"]
        consts = [[Fraction(c) for c in poly] for poly in result["constituents"]]
        onset = result["onset"]
        end = result["validated_range"][1]
        kind = spec["kind"]
        if kind == "codes_qp":
            hi = 2 * spec["nmax"]
            expect = lambda n: self._codes(spec["q"], spec["m"], n)
        elif kind == "precomp_qp":
            hi = 2 * spec["nmax"]
            expect = refs.planes_orbits
        elif kind == "fit":
            hi = 2 * FIT_NMAX
            seq = spec["seq"]
            expect = lambda n: seq[n] if n < len(seq) else refs.qp_value(spec["period"], spec["qp"], n)
        elif kind == "level_qp":
            hi = 2 * end + 24
            obs = [tuple(o) for o in spec["obs"]]
            expect = lambda n: refs.fixed_vector_count(spec["g"], obs, n)
        else:
            hi = 2 * end + 24
            group = refs.group_elements(spec["group"], spec["k"])
            obs = [tuple(o) for o in spec["obs"]]
            expect = lambda n: refs.orbit_count_by_fixed_vectors(group, obs, n)
        values = self._expected.setdefault(spec["id"], {})
        for n in range(onset, hi + 1):
            if n not in values:
                values[n] = expect(n)
            got = refs.qp_value(period, consts, n)
            if got != values[n]:
                return f"the form gives {got} at n={n}, the independent count is {values[n]}"
        return None


def _compare(result, expected) -> Optional[str]:
    if result == expected:
        return None
    return f"got {result!r}, expected {expected!r}"

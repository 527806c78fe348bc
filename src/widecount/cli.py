"""Batch command-line front end: every counting pipeline, machine-readable
reports, and formula-vs-oracle verification.

Reports are JSON (all counts as decimal strings) with a CSV `n,count`
mirror; `--verify` cross-checks closed forms against the brute-force
oracles and never reports pass on a mismatch.  Exit codes: 0 pass, 2 a
cross-check failed, 1 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import gallery
from .actions import PermGroup, Permutation, TooLarge, budget, tick
from .codes import codes_quasipolynomial, count_codes_burnside, count_codes_direct
from .functors.elementary import (
    ElementaryModelFunctor,
    elementary_brute,
    elementary_count,
    elementary_quasipolynomial,
)
from .functors.extraction import mf_count_via_groupoid, strata_against_peels
from .functors.model import (
    count_vector_blocks,
    elementary_embedding,
    mf_classes,
    mf_orbit_count_direct,
    roots_of_unity,
)
from .functors.precomponent import (
    PreComponentPresentation,
    planes_precomponent,
    precomp_count,
)
from .lattice import DownwardClosedSet, fixed_count_level, level_quasipolynomial
from .quasipoly import FittedQuasipolynomial, NoFit, fit, read_sequence_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunReport:
    command: List[str]
    parameters: Dict[str, object]
    sequence: List[Tuple[int, int]] = dc_field(default_factory=list)
    quasipolynomial: Optional[dict] = None
    verdicts: List[dict] = dc_field(default_factory=list)
    timings_ms: Dict[int, float] = dc_field(default_factory=dict)
    truncated: bool = False

    @property
    def failed(self) -> bool:
        return any(v.get("status") == "fail" for v in self.verdicts)

    def add_verdict(self, check: str, ok: bool, witness: Optional[dict] = None) -> None:
        entry = {"check": check, "status": "pass" if ok else "fail"}
        if witness:
            entry["witness"] = witness
        self.verdicts.append(entry)

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {
            "command": self.command,
            "parameters": {k: _stringify(v) for k, v in sorted(self.parameters.items())},
            "sequence": [[str(n), str(c)] for n, c in self.sequence],
            "verdict": "fail" if self.failed else "pass",
            "checks": self.verdicts,
            "truncated": self.truncated,
        }
        if self.quasipolynomial is not None:
            out["quasipolynomial"] = self.quasipolynomial
        if include_timings:
            out["timings_ms"] = {str(n): round(t, 3) for n, t in self.timings_ms.items()}
        return out


def _stringify(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    return value


def parse_range(text: str) -> List[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise UsageError(f"empty range {text!r}")
    else:
        lo_i = hi_i = int(text)
    if lo_i < 0:
        raise UsageError(f"n must be non-negative, got {text!r}")
    return list(range(lo_i, hi_i + 1))


def _emit(report: RunReport, args) -> int:
    payload = json.dumps(
        report.to_json_dict(include_timings=not args.no_timing),
        indent=2,
        sort_keys=True,
    )
    if args.out:
        Path(args.out).write_text(payload + "\n")
        csv_path = Path(args.out).with_suffix(".csv")
    else:
        sys.stdout.write(payload + "\n")
        csv_path = Path(args.csv) if args.csv else None
    if args.out and args.csv:
        csv_path = Path(args.csv)
    if csv_path is not None:
        lines = ["n,count"] + [f"{n},{c}" for n, c in report.sequence]
        csv_path.write_text("\n".join(lines) + "\n")
    return 2 if report.failed else 0


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--out", help="write the JSON report to this file instead of stdout")
    parser.add_argument("--csv", help="write the n,count CSV to this file")
    parser.add_argument("--no-timing", action="store_true", help="omit wall times for byte-stable output")
    parser.add_argument("--max-states", type=int, default=10**6,
                        help="cap on the states any enumeration of the run may visit; it only "
                        "tightens a route's own cap, and an enumeration above it truncates the "
                        "report or skips a cross-check (default 10^6)")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock limit in seconds, checked inside the counting loops; "
                        "reaching it truncates the report")


def build_parser() -> _Parser:
    parser = _Parser(prog="widecount", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("elementary", help="count words up to letter group and position symmetry")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group", default="", help='generators in cycle notation, e.g. "(1 2)"; empty = trivial')
    p.add_argument("--obstructions", default="[]", help='JSON list of obstruction vectors, e.g. "[[2,0]]"')
    p.add_argument("--n", required=True, help="value or range A..B")
    p.add_argument("--fit", action="store_true", help="also report the exact closed form, whatever --n is")
    p.add_argument("--verify", action="store_true", help="cross-check against the word-enumeration oracle")
    _add_common(p)

    p = sub.add_parser("model", help="count classes of a builtin model functor presentation")
    p.add_argument("--preset", choices=("roots-of-unity", "elementary"), required=True)
    p.add_argument("--d", type=int, default=2, help="roots-of-unity order")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--group", default="")
    p.add_argument("--obstructions", default="[]")
    p.add_argument("--n", required=True)
    p.add_argument("--method", choices=("direct", "groupoid", "both"), default="both")
    _add_common(p)

    p = sub.add_parser("precomp", help="count maximal classes of a builtin pre-component functor")
    p.add_argument("--preset", choices=("planes", "roots-of-unity"), required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", required=True)
    p.add_argument("--fit", action="store_true", help="fit the computed --n window empirically")
    _add_common(p)

    p = sub.add_parser("example", help="run a worked example with its oracle")
    p.add_argument("name", choices=gallery.EXAMPLES)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--fit", action="store_true", help="report the exact form (trees: fit --n)")
    _add_common(p)

    p = sub.add_parser("codes", help="classify linear codes up to equivalence")
    code_sub = p.add_subparsers(dest="codes_command", required=True)
    pc = code_sub.add_parser("count")
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--n", required=True)
    pc.add_argument("--method", choices=("direct", "burnside", "both"), default="both")
    _add_common(pc)
    pf = code_sub.add_parser("fit")
    pf.add_argument("--q", type=int, required=True)
    pf.add_argument("--m", type=int, required=True)
    pf.add_argument("--nmax", type=int, required=True,
                    help="sweep n = 0..NMAX; the closed form is exact and does not depend on it")
    _add_common(pf)

    p = sub.add_parser("ranks", help="orbits of fixed-rank matrices with entries in a finite set")
    p.add_argument("--entries", default="0,1", help="comma-separated rationals, e.g. 0,1 or 0,1/2")
    p.add_argument("--k", type=int, required=True, help="target rank")
    p.add_argument("--n", required=True)
    p.add_argument("--shape", choices=("symmetric", "general"), default="symmetric")
    p.add_argument("--verify", action="store_true",
                   help="check the orbit total, a brute force at n <= 3 and the closed forms where known")
    _add_common(p)

    p = sub.add_parser("fit", help="fit a quasipolynomial to an n,count CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-period", type=int, default=6)
    p.add_argument("--max-degree", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("verify", help="run the formula-vs-oracle cross-check suite")
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _elementary_from_args(args) -> ElementaryModelFunctor:
    gens = [g for g in args.group.split(")") if g.strip()]
    gens = [g + ")" for g in gens]
    group = PermGroup.from_cycle_strings(args.k, gens) if gens else PermGroup.trivial(args.k)
    obstructions = json.loads(args.obstructions)
    countset = DownwardClosedSet(args.k, [tuple(o) for o in obstructions])
    return ElementaryModelFunctor(args.k, group, countset)


def _sweep(report: RunReport, ns: Iterable[int], step: Callable[[int], int]) -> None:
    """Append (n, step(n)) for each n in turn with its wall time, until a
    step runs out of budget: that truncates the report to the n before."""
    for n in ns:
        t0 = time.monotonic()
        try:
            tick()
            report.sequence.append((n, step(n)))
        except TooLarge as exc:
            report.truncated = True
            report.add_verdict("budget", True, {"truncated_by": str(exc)})
            return
        report.timings_ms[n] = (time.monotonic() - t0) * 1000


def _agree(report: RunReport, check: str, n: int, **values) -> None:
    """A verdict that the values at n agree; a failure lists them all."""
    first, *rest = values.values()
    ok = all(v == first for v in rest)
    witness = {"n": n, **{k: str(v) for k, v in values.items()}}
    report.add_verdict(f"{check}@{n}", ok, None if ok else witness)


def _oracle(count: Callable[..., int], *args) -> Optional[int]:
    """count(*args), or None when it is over its cap and so skipped; a
    passed deadline still raises, so it truncates the report."""
    try:
        return count(*args)
    except TooLarge:
        tick()
        return None


def _run_elementary(args, report: RunReport) -> None:
    emf = _elementary_from_args(args)

    def step(n: int) -> int:
        count = elementary_count(emf, n)
        brute = _oracle(elementary_brute, emf, n) if args.verify else None
        if brute is not None:
            _agree(report, "elementary-vs-brute", n, count=count, brute=brute)
        return count

    _sweep(report, parse_range(args.n), step)
    if args.fit:
        res = elementary_quasipolynomial(emf)
        report.quasipolynomial = res.to_json_dict()


def _model_presentation(args):
    if args.preset == "roots-of-unity":
        return roots_of_unity(args.d)
    return elementary_embedding(_elementary_from_args(args))


def _run_model(args, report: RunReport) -> None:
    pres = _model_presentation(args)

    def step(n: int) -> int:
        if args.method == "direct":
            return mf_orbit_count_direct(pres, n)
        count = mf_count_via_groupoid(pres, n)
        direct = _oracle(mf_orbit_count_direct, pres, n) if args.method == "both" else None
        if direct is not None:
            _agree(report, "groupoid-vs-direct", n, groupoid=count, direct=direct)
        return count

    _sweep(report, parse_range(args.n), step)


def _fit_into(
    report: RunReport, seq: Dict[int, int], max_period: int, max_degree: int
) -> Optional[FittedQuasipolynomial]:
    """Fit seq into the report's quasipolynomial; on NoFit, record a failed
    ``fit`` verdict with its witness and return None."""
    try:
        res = fit(seq, max_period=max_period, max_degree=max_degree)
    except NoFit as exc:
        report.add_verdict("fit", False, {"nofit": str(exc), **(exc.witness or {})})
        return None
    report.quasipolynomial = res.to_json_dict()
    return res


def _run_precomp(args, report: RunReport) -> None:
    if args.preset == "planes":
        pc = planes_precomponent()
    else:
        pc = PreComponentPresentation.from_single(roots_of_unity(args.d))
    _sweep(report, parse_range(args.n), lambda n: precomp_count(pc, n))
    if args.fit and report.sequence:
        _fit_into(report, dict(report.sequence), max_period=4, max_degree=3)


def _check_example(name: str, d: int, n: int, count: int, report: RunReport) -> None:
    if name == "cube":
        brute = _oracle(gallery.cube_orbit_count_brute, d, n)
        if brute is not None:
            _agree(report, "cube-formula-vs-brute", n, formula=count, brute=brute)
    elif name == "galois":
        brute = _oracle(gallery.galois_orbit_count_brute, n)
        if brute is not None:
            _agree(report, "galois-vs-brute", n, formula=count, brute=brute)
    elif name == "trees" and n <= gallery.TREE_BRUTE_LIMIT:
        brute = gallery.tree_orbit_count(n)[1]
        _agree(report, "trees-brute-vs-growth", n, brute=brute, growth=count)
    elif name == "points":
        brute = _oracle(elementary_brute, gallery.example_functor(name, d), n)
        if brute is not None:
            _agree(report, "points-formula-vs-brute", n, formula=count, brute=brute)
    elif name == "planes":
        precomp = _oracle(precomp_count, planes_precomponent(), n)
        if precomp is not None:
            _agree(report, "planes-formula-vs-precomp", n, formula=count, precomp=precomp)


def _run_example(args, report: RunReport) -> None:
    def step(n: int) -> int:
        count = gallery.example_counts(args.name, n, d=args.d)["orbits"]
        if args.verify:
            _check_example(args.name, args.d, n, count, report)
        return count

    _sweep(report, parse_range(args.n), step)
    emf = gallery.example_functor(args.name, args.d)
    if args.fit and emf is not None:
        report.quasipolynomial = elementary_quasipolynomial(emf).to_json_dict()
    elif args.fit and report.sequence:
        _fit_into(report, dict(report.sequence), max_period=max(args.d, 6), max_degree=6)


def _run_codes(args, report: RunReport) -> None:
    q, m = args.q, args.m
    if args.codes_command == "fit":
        _sweep(report, range(args.nmax + 1), lambda n: count_codes_burnside(q, m, n))
        report.quasipolynomial = codes_quasipolynomial(q, m, args.nmax).to_json_dict()
        return

    def step(n: int) -> int:
        if args.method == "direct":
            return count_codes_direct(q, m, n)
        count = count_codes_burnside(q, m, n)
        direct = _oracle(count_codes_direct, q, m, n) if args.method == "both" else None
        if direct is not None:
            _agree(report, "codes-direct-vs-burnside", n, burnside=count, direct=direct)
        return count

    _sweep(report, parse_range(args.n), step)


def _parse_entries(text: str):
    return [Fraction(tok) for tok in text.split(",") if tok.strip()]


def _run_ranks(args, report: RunReport) -> None:
    entries = _parse_entries(args.entries)

    def step(n: int) -> int:
        counts = gallery.fixed_rank_orbit_counts(entries, n, args.shape)
        value = counts.get(args.k, 0)
        if args.verify:
            total = gallery.matrix_orbit_count(entries, n, args.shape)
            _agree(report, "rank-total", n, sum=sum(counts.values()), orbits=total)
            brute = None
            if n <= 3:
                brute = _oracle(gallery.fixed_rank_orbit_counts_brute, entries, n, args.shape)
            if brute is not None:
                _agree(report, "rank-brute", n, counts=counts, brute=brute)
            if args.shape == "symmetric" and set(entries) == {0, 1} and args.k <= 2:
                want = gallery.symmetric_binary_rank_formula(args.k, n)
                _agree(report, "rank-formula", n, count=value, formula=want)
        return value

    _sweep(report, parse_range(args.n), step)


def _run_fit(args, report: RunReport) -> None:
    seq = read_sequence_csv(args.infile)
    report.sequence = sorted(seq.items())
    res = _fit_into(report, seq, max_period=args.max_period, max_degree=args.max_degree)
    if res is not None:
        for n, value in seq.items():
            if n >= res.onset and res.qp.evaluate(n) != value:
                report.add_verdict("fit-recheck", False, {"n": n})
                break


def _run_verify(args, report: RunReport) -> None:
    """A condensed formula-vs-oracle pass over every pipeline."""
    galois = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    report.add_verdict(
        "galois-closed-form", all(elementary_count(galois, n) == n // 2 + 1 for n in range(12))
    )
    report.add_verdict(
        "galois-brute", all(elementary_count(galois, n) == elementary_brute(galois, n) for n in range(9))
    )
    # the built forms are exact from their onset: on the span they were built
    # from, and far beyond it; with obstructions one weight tuple has several shifts
    s4 = ElementaryModelFunctor(4, PermGroup.symmetric(4), DownwardClosedSet.full(4))
    c4 = ElementaryModelFunctor(4, PermGroup.cyclic(4), DownwardClosedSet.full(4))
    rotations = [(2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (1, 0, 0, 2)]
    c4_obstructed = ElementaryModelFunctor(4, PermGroup.cyclic(4), DownwardClosedSet(4, rotations))
    M, g = DownwardClosedSet(4, [(2, 1, 3, 3), (3, 1, 3, 1)]), Permutation.from_cycles("(2 4)", 4)
    forms = [(elementary_quasipolynomial(emf), lambda n, emf=emf: elementary_count(emf, n))
             for emf in (galois, s4, c4, c4_obstructed)]
    forms.append((level_quasipolynomial(M, g), lambda n: fixed_count_level(M, g, n)))
    exact = True
    for form, count in forms:
        lo, hi = form.validated_range
        exact = exact and all(form(n) == count(n) for n in [*range(lo, hi + 1), 10**4])
    for q, m in ((2, 2), (3, 2), (2, 3)):
        form = codes_quasipolynomial(q, m, 0)
        span = range(2 * form.validated_range[1] + 1)
        exact = exact and all(form(n) == count_codes_burnside(q, m, n) for n in [*span, 10**3])
    report.add_verdict("closed-forms-exact", exact)
    report.add_verdict("cube-brute", all(
        gallery.cube_orbit_count(d, n) == gallery.cube_orbit_count_brute(d, n)
        for d in (2, 3, 4) for n in range(10)
    ))
    cube2, cube3 = roots_of_unity(2), roots_of_unity(3)
    report.add_verdict("groupoid-vs-direct", all(
        mf_count_via_groupoid(cube3, n) == mf_orbit_count_direct(cube3, n) for n in range(6)
    ))
    # from n = 1: below s0 the route returns 0 by convention
    report.add_verdict("groupoid-vs-cube", all(
        mf_count_via_groupoid(cube, n) == gallery.cube_orbit_count(cube.k, n)
        for cube, nmax in ((cube2, 100), (cube3, 90)) for n in range(1, nmax + 1)
    ))
    s3_words = elementary_embedding(
        ElementaryModelFunctor(3, PermGroup.symmetric(3), DownwardClosedSet.full(3))
    )
    # each stratum the count reads counts the classes its peel removes, from
    # the first stratum's first occupied level on
    peels = [
        row
        for pres, levels in ((cube2, range(9, 31)), (cube3, range(13, 31)),
                             (roots_of_unity(4), range(17, 21)), (s3_words, range(12, 26)))
        for row in strata_against_peels(pres, levels)
    ]
    report.add_verdict(
        "stratum-vs-peel",
        len(peels) >= 84 and all(count == removed for _, _, count, removed in peels),
    )
    # one seed class per orbit against every class's count-vector set
    report.add_verdict("direct-vs-classes", all(
        mf_orbit_count_direct(pres, n) == len(set(count_vector_blocks(
            mf_classes(pres, n), lambda pair: pair.count_vector(pres.k)
        ).values()))
        for pres in (cube2, cube3, roots_of_unity(4), s3_words) for n in range(6)
    ) and all(precomp_count(planes_precomponent(), n) == 1 for n in range(3, 9)))
    report.add_verdict("codes-direct-vs-burnside", all(
        count_codes_direct(q, m, n) == count_codes_burnside(q, m, n)
        for q, m, ns in ((2, 1, range(2, 6)), (2, 2, range(2, 6)), (2, 3, range(3, 7)),
                         (3, 2, range(2, 7)), (4, 2, range(2, 6)), (3, 3, range(3, 5)))
        for n in ns
    ))
    rank_sets = [([0, 1], "symmetric"), ([0, 1, 2], "symmetric"), ([-1, 0, 1], "symmetric"),
                 ([0, Fraction(1, 2), 1], "symmetric"), ([0, 1], "general")]
    report.add_verdict("rank-brute", all(
        gallery.fixed_rank_orbit_counts(entries, n, shape)
        == gallery.fixed_rank_orbit_counts_brute(entries, n, shape)
        for entries, shape in rank_sets for n in range(4)
    ) and all(
        sum(gallery.fixed_rank_orbit_counts([0, 1], n).values()) == gallery.matrix_orbit_count([0, 1], n)
        for n in range(6)
    ))
    limit = gallery.TREE_BRUTE_LIMIT
    growth = gallery.unlabeled_tree_counts(limit)
    report.add_verdict("trees-growth", all(
        gallery.tree_orbit_count(n)[1] == growth[n - 1] for n in range(2, limit + 1)
    ))


_RUNNERS = {
    "elementary": _run_elementary,
    "model": _run_model,
    "precomp": _run_precomp,
    "example": _run_example,
    "codes": _run_codes,
    "ranks": _run_ranks,
    "fit": _run_fit,
    "verify": _run_verify,
}


def _glue_entries(argv: Sequence[str]) -> List[str]:
    """argparse reads a value that starts with "-" as an option, so
    "--entries -1,2" is passed on as "--entries=-1,2"."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--entries" and not out[i + 1].startswith("--"):
            out[i : i + 2] = [f"--entries={out[i + 1]}"]
    return out


def run(argv: Sequence[str]) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_entries(argv))
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    report = RunReport(
        command=list(argv),
        parameters={
            k: v
            for k, v in vars(args).items()
            if k not in ("out", "csv", "no_timing") and v is not None
        },
    )
    try:
        with budget(args.max_states, args.time_limit):
            _RUNNERS[args.subcommand](args, report)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except TooLarge as exc:
        report.truncated = True
        report.add_verdict("budget", True, {"truncated_by": str(exc)})
    return _emit(report, args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

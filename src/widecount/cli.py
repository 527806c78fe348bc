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
from .actions import PermGroup, TooLarge, budget, tick
from .codes import codes_quasipolynomial, count_codes_burnside, count_codes_direct
from .functors.elementary import (
    ElementaryModelFunctor,
    elementary_brute,
    elementary_count,
    elementary_quasipolynomial,
)
from .functors.extraction import mf_count_via_groupoid
from .functors.model import mf_orbit_count_direct, roots_of_unity, elementary_embedding
from .functors.precomponent import (
    PreComponentPresentation,
    planes_precomponent,
    precomp_count,
)
from .lattice import DownwardClosedSet
from .quasipoly import NoFit, fit, read_sequence_csv


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
    p.add_argument("--fit", action="store_true", help="fit the computed --n window empirically")
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
    pf.add_argument("--nmax", type=int, required=True)
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


def _run_precomp(args, report: RunReport) -> None:
    if args.preset == "planes":
        pc = planes_precomponent()
    else:
        pc = PreComponentPresentation.from_single(roots_of_unity(args.d))
    _sweep(report, parse_range(args.n), lambda n: precomp_count(pc, n))
    if args.fit and report.sequence:
        try:
            res = fit(dict(report.sequence), max_period=4, max_degree=3)
            report.quasipolynomial = res.to_json_dict()
        except NoFit as exc:
            report.add_verdict("fit", False, {"nofit": str(exc), **(exc.witness or {})})


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
        emf = ElementaryModelFunctor(d, PermGroup.trivial(d), DownwardClosedSet.full(d))
        brute = _oracle(elementary_brute, emf, n)
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
    if args.fit and report.sequence:
        try:
            res = fit(dict(report.sequence), max_period=max(args.d, 6), max_degree=6)
            report.quasipolynomial = res.to_json_dict()
        except NoFit as exc:
            report.add_verdict("fit", False, {"nofit": str(exc), **(exc.witness or {})})


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
    try:
        res = fit(seq, max_period=args.max_period, max_degree=args.max_degree)
        report.quasipolynomial = res.to_json_dict()
        for n, value in seq.items():
            if n >= res.onset and res.qp.evaluate(n) != value:
                report.add_verdict("fit-recheck", False, {"n": n})
                break
    except NoFit as exc:
        report.add_verdict("fit", False, {"nofit": str(exc), **(exc.witness or {})})


def _run_verify(args, report: RunReport) -> None:
    """A condensed formula-vs-oracle pass over every pipeline."""
    galois = ElementaryModelFunctor(2, PermGroup.symmetric(2), DownwardClosedSet.full(2))
    report.add_verdict(
        "galois-closed-form", all(elementary_count(galois, n) == n // 2 + 1 for n in range(12))
    )
    report.add_verdict(
        "galois-brute", all(elementary_count(galois, n) == elementary_brute(galois, n) for n in range(9))
    )
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
    report.add_verdict("codes-direct-vs-burnside", all(
        count_codes_direct(2, m, n) == count_codes_burnside(2, m, n)
        for m in (1, 2) for n in range(2, 6)
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


def run(argv: Sequence[str]) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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

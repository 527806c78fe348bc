"""Exact quasipolynomials: evaluation, exact building from a proven period,
degree and onset, and fitting of integer sequences.

A quasipolynomial of period N is a list of N polynomials with rational
coefficients; constituent i is used at arguments congruent to i mod N.
All arithmetic is over ``fractions.Fraction`` -- no floating point.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

Poly = Tuple[Fraction, ...]  # coefficients, ascending degree; () is the zero polynomial


class NoFit(Exception):
    """No quasipolynomial within the search bounds matches the sequence.

    ``witness`` holds the most advanced failed attempt as a dict with keys
    period/degree/onset and either residue/n/expected/actual or reason.
    """

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


def _trim(coeffs: Sequence[Fraction]) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_eval(poly: Poly, n: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * n + c
    return acc


def _interpolate(points: Sequence[Tuple[int, Fraction]]) -> Poly:
    """Lagrange interpolation through distinct integer abscissae, exact."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        # build the i-th Lagrange basis polynomial incrementally
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-xj)
                new[k + 1] += c
            basis = new
        scale = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    return _trim(coeffs)


@dataclass(frozen=True)
class Quasipolynomial:
    """Period plus one exact polynomial constituent per residue class.

    Instances are normalized on construction: the stored period is the
    smallest one reproducing all constituents.
    """

    period: int
    constituents: Tuple[Poly, ...]

    def __init__(self, period: int, constituents: Iterable[Sequence[Fraction]]):
        if period < 1:
            raise ValueError("period must be >= 1")
        consts = tuple(_trim(c) for c in constituents)
        if len(consts) != period:
            raise ValueError("need exactly one constituent per residue class")
        # minimal-period normalization: smallest divisor reproducing all constituents
        for div in range(1, period + 1):
            if period % div:
                continue
            if all(consts[i] == consts[i % div] for i in range(period)):
                consts = consts[:div]
                period = div
                break
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "constituents", consts)

    @property
    def degree(self) -> int:
        """Max constituent degree; -1 for the zero quasipolynomial."""
        return max(len(c) - 1 for c in self.constituents)

    def evaluate(self, n: int) -> Fraction:
        return _poly_eval(self.constituents[n % self.period], n)

    def __call__(self, n: int) -> Fraction:
        return self.evaluate(n)

    def to_json_dict(self, onset: Optional[int] = None) -> dict:
        return {
            "period": self.period,
            "constituents": [
                [[str(c.numerator), str(c.denominator)] for c in poly]
                for poly in self.constituents
            ],
            "onset": 0 if onset is None else onset,
        }

    def to_json(self, onset: Optional[int] = None) -> str:
        return json.dumps(self.to_json_dict(onset))

    @staticmethod
    def from_json_dict(data: Mapping) -> "Quasipolynomial":
        consts = [
            [Fraction(int(num), int(den)) for num, den in poly]
            for poly in data["constituents"]
        ]
        return Quasipolynomial(int(data["period"]), consts)

    def __repr__(self) -> str:
        def fmt(poly: Poly) -> str:
            if not poly:
                return "0"
            return " + ".join(
                f"{c}*n^{i}" if i else str(c) for i, c in enumerate(poly) if c != 0
            ) or "0"

        body = "; ".join(fmt(c) for c in self.constituents)
        return f"Quasipolynomial(period={self.period}: {body})"


@dataclass(frozen=True)
class FittedQuasipolynomial:
    """A quasipolynomial plus the onset from which it agrees with its source.

    The level, elementary and code closed forms are built from their level
    terms (``lattice.terms_quasipolynomial``, a sum of shifted denumerants)
    by ``build_quasipolynomial``: exact for every n >= onset, with period,
    degree bound and onset proven from the terms and ``validated_range`` the
    span of arguments whose values determined them.  Forms returned by
    ``fit`` are empirical: they matched the data on ``validated_range`` and
    nothing is claimed beyond it.
    """

    qp: Quasipolynomial
    onset: int
    validated_range: Tuple[int, int]

    def evaluate(self, n: int) -> Fraction:
        return self.qp.evaluate(n)

    def __call__(self, n: int) -> Fraction:
        return self.qp.evaluate(n)

    def to_json_dict(self) -> dict:
        d = self.qp.to_json_dict(self.onset)
        d["validated_range"] = list(self.validated_range)
        return d


def build_quasipolynomial(
    value: Callable[[int], int], period: int, degree: int, onset: int
) -> FittedQuasipolynomial:
    """Interpolate each residue class mod ``period`` exactly on its first
    degree+1 arguments at or after ``onset``.

    When value(n) is known to equal, for every n >= onset, a quasipolynomial
    whose period divides ``period`` and whose degree is at most ``degree``,
    those points determine it, and the result is exact for every n >= onset.
    Nothing is searched or checked here.  ``validated_range`` is the span of
    the points interpolated on: onset .. onset + period*(degree+1) - 1.
    """
    constituents = []
    for r in range(period):
        first = onset + (r - onset) % period
        points = range(first, first + period * (degree + 1), period)
        constituents.append(_interpolate([(n, Fraction(value(n))) for n in points]))
    return FittedQuasipolynomial(
        Quasipolynomial(period, constituents), onset, (onset, onset + period * (degree + 1) - 1)
    )


def fit(seq: Mapping[int, int], max_period: int, max_degree: int) -> FittedQuasipolynomial:
    """Fit the minimal (period, degree, onset) quasipolynomial to an integer sequence.

    For data with no known structure; closed forms whose structure is proven
    are made by ``build_quasipolynomial`` directly.  ``seq`` maps each n of a
    contiguous range to its value.  Candidates are tried by period, then
    degree, then onset.  A candidate fits when every residue class, from the
    onset to the end of the range, agrees with the polynomial interpolated on
    its first degree+1 points, and has at least max(2, degree+1) points
    beyond them: never fewer held-out points than training points.  The
    accepted candidate is made by ``build_quasipolynomial``.

    The returned fit matched every point from its onset to the end of the
    range exactly (never least squares).  That is all it guarantees:
    ``validated_range`` is that range, and nothing is claimed beyond it.
    Raises NoFit, with the most advanced failure as its witness, when no
    candidate within the bounds fits.
    """
    if not seq:
        raise ValueError("empty sequence")
    ns = sorted(seq)
    first, last = ns[0], ns[-1]
    if last - first + 1 != len(ns):
        raise ValueError("sequence range must be contiguous")
    values = {n: Fraction(seq[n]) for n in ns}
    best_witness: Optional[dict] = None
    for period in range(1, max_period + 1):
        for degree in range(max_degree + 1):
            # Equally spaced values lie on one polynomial of degree <= degree
            # iff their (degree+1)-th differences vanish, and agreeing from an
            # onset on implies agreeing from every later onset.  So the least
            # onset is just past the last window with a nonzero difference.
            span = period * (degree + 1)
            signs = [(-1) ** (degree + 1 - j) * comb(degree + 1, j) for j in range(degree + 2)]

            def difference(n: int) -> Fraction:
                return sum(c * values[n + j * period] for j, c in enumerate(signs))

            late = next((n for n in range(last - span, first - 1, -1) if difference(n)), None)
            onset = first if late is None else late + 1
            if (last - onset + 1) // period >= degree + 1 + max(2, degree + 1):
                built = build_quasipolynomial(values.__getitem__, period, degree, onset)
                if any(built(n) != values[n] for n in range(onset, last + 1)):
                    raise AssertionError("internal fit verification failed")
                return FittedQuasipolynomial(built.qp, onset, (onset, last))
            failure = {"period": period, "degree": degree, "onset": onset}
            if late is None:
                failure["reason"] = "insufficient points"
            else:
                # interpolating from onset ``late`` mispredicts n = late + span
                n = late + span
                failure.update(onset=late, residue=n % period, n=n, expected=str(values[n]),
                               actual=str(values[n] - difference(late)))
            if best_witness is None or (failure["onset"], -period) > (
                best_witness["onset"], -best_witness["period"]
            ):
                best_witness = failure
    raise NoFit(
        f"no quasipolynomial with period <= {max_period}, degree <= {max_degree} "
        f"matches the sequence on n in [{first}, {last}]",
        best_witness,
    )


def fit_sequence(
    values: Sequence[int], start: int, max_period: int, max_degree: int
) -> FittedQuasipolynomial:
    """Convenience wrapper: fit values[i] taken at n = start + i."""
    return fit({start + i: v for i, v in enumerate(values)}, max_period, max_degree)


def read_sequence_csv(path) -> Dict[int, int]:
    """Read an ``n,count`` CSV (header required) into a dict."""
    out: Dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["n", "count"]:
            raise ValueError("expected CSV header 'n,count'")
        for row in reader:
            out[int(row["n"])] = int(row["count"])
    return out


def write_sequence_csv(path, seq: Mapping[int, int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "count"])
        for n in sorted(seq):
            writer.writerow([n, str(seq[n])])

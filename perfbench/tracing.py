"""Tracing from outside the program: spans and counters installed as
wrappers at the module attributes the library's callers look up.

A span records (name, start, end, parent, operation id) and the time its
child spans and timed counters took, so self time is its length minus that.
A counter records calls, and their summed time where a metric reads it;
counters are used for callbacks called up to 10^5 times per operation,
where a span each would cost too much.  Nothing is recorded while no
operation is open, so the benchmark's own checks do not count.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, OP, CHILD_NS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.done: List[dict] = []
        self.stack: List[int] = []
        self.calls: Counter = Counter()
        self.call_ns: Counter = Counter()
        # counter calls made directly inside a span, keyed (counter, span name)
        self.calls_in: Counter = Counter()
        self.values: Counter = Counter()
        self.op: Optional[int] = None
        self._installed: List[tuple] = []

    # -- recording -------------------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op

    def end(self) -> None:
        self.op = None

    def span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, 0, 0, parent, self.op, 0]
            spans.append(record)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                record[START], record[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD_NS] += end - start
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        spans, stack, calls, call_ns, calls_in = (
            self.spans, self.stack, self.calls, self.call_ns, self.calls_in
        )

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                calls[name] += 1
                call_ns[name] += took
                if stack:
                    top = spans[stack[-1]]
                    top[CHILD_NS] += took
                    calls_in[(name, top[NAME])] += 1

        return wrapper

    def call_counter(self, name: str, fn: Callable) -> Callable:
        """Counts calls only, for callbacks whose time no metric reads."""
        calls = self.calls

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if self.op is not None:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def item_counter(self, name: str, fn: Callable) -> Callable:
        """Counts the items a generator function yields."""
        calls = self.calls

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if self.op is None:
                yield from fn(*args, **kwargs)
                return
            for item in fn(*args, **kwargs):
                calls[name] += 1
                yield item

        return wrapper

    # -- installing --------------------------------------------------------------

    def install(self, owner, attr: str, kind: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        if kind == "span":
            wrapped = self.span(name, original, on_result)
        elif kind == "counter":
            wrapped = self.counter(name, original)
        elif kind == "count":
            wrapped = self.call_counter(name, original)
        else:
            wrapped = self.item_counter(name, original)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def close_pass(self) -> None:
        """Keep this pass's spans and counters for the dump and start afresh."""
        self.done.append(
            {
                "spans": list(self.spans),
                "counters": {k: [self.calls[k], self.call_ns[k]] for k in sorted(self.calls)},
            }
        )
        self.spans.clear()
        self.calls.clear()
        self.call_ns.clear()
        self.calls_in.clear()
        self.values.clear()

    # -- summaries -----------------------------------------------------------------

    def span_total_s(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name) / 1e9

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def self_s(self, prefix: str) -> float:
        return sum(
            s[END] - s[START] - s[CHILD_NS] for s in self.spans if s[NAME].startswith(prefix)
        ) / 1e9

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "child_ns"],
                    "counter_fields": ["calls", "ns"],
                    "passes": self.done,
                },
                fh,
            )


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from widecount import actions, codes, gallery, lattice, quasipoly
    from widecount.functors import elementary, extraction, model, precomponent

    def add_result(key):
        def record(t: Tracer, result) -> None:
            t.values[key] += result if isinstance(result, int) else len(result)

        return record

    span, counter, count = "span", "counter", "count"
    table = [
        # functors.extraction
        (extraction, "mf_count_via_groupoid", span, "extraction.mf_count_via_groupoid"),
        (extraction.StratumAnalysis, "__init__", span, "extraction.analysis_build"),
        (extraction.StratumAnalysis, "fingerprint", span, "extraction.fingerprint"),
        (extraction.StratumAnalysis, "stratum_count", span, "extraction.stratum_count"),
        (extraction, "_tail_count", span, "extraction.tail_count"),
        (extraction, "count_level", span, "lattice.count_level"),
        # functors.model
        (model, "mf_orbit_count_direct", span, "model.mf_orbit_count_direct"),
        (model, "mf_classes", span, "model.mf_classes", add_result("model.classes")),
        # functors.elementary
        (elementary, "elementary_quasipolynomial", span, "elementary.quasipolynomial"),
        (elementary, "elementary_count", span, "elementary.count"),
        (elementary, "count_level", span, "lattice.count_level"),
        # functors.precomponent
        (precomponent, "precomp_quasipolynomial", span, "precomponent.quasipolynomial"),
        (precomponent, "precomp_count", span, "precomponent.count"),
        (precomponent, "fit", span, "quasipoly.fit"),
        # lattice
        (lattice, "level_quasipolynomial", span, "lattice.level_quasipolynomial"),
        (lattice, "count_level", span, "lattice.count_level"),
        (lattice, "stanley_decompose", count, "lattice.stanley_decompose"),
        (lattice, "denumerant", count, "lattice.denumerant"),
        (lattice, "fit", span, "quasipoly.fit"),
        (lattice.DownwardClosedSet, "enumerate_level", span, "lattice.enumerate_level"),
        # actions
        (actions.UnionFind, "union", count, "actions.union"),
        # quasipoly
        (quasipoly, "fit", span, "quasipoly.fit"),
        (quasipoly, "_interpolate", count, "quasipoly.interpolate"),
        # gallery
        (gallery, "fixed_rank_orbit_counts", span, "gallery.fixed_rank_orbit_counts"),
        (gallery, "_rank_mod", count, "gallery.rank_mod"),
        (gallery, "tree_orbit_count", span, "gallery.tree_orbit_count"),
        # codes
        (codes, "count_codes_direct", span, "codes.count_codes_direct", add_result("codes.classes")),
        (codes, "all_codes", "items", "codes.all_codes"),
        (codes, "canonical_point_multiset", counter, "codes.canonical_point_multiset"),
        (codes, "codes_quasipolynomial", span, "codes.quasipolynomial"),
        (codes, "count_codes_burnside", span, "codes.count_codes_burnside"),
        (codes, "denumerant", count, "lattice.denumerant"),
        (codes, "fit", span, "quasipoly.fit"),
    ]
    for owner, attr, kind, name, *rest in table:
        tracer.install(owner, attr, kind, name, *rest)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    fit_calls = t.span_count("quasipoly.fit")
    rank_s = t.span_total_s("gallery.fixed_rank_orbit_counts")
    return {
        "extraction.analysis_builds": t.span_count("extraction.analysis_build"),
        "extraction.fingerprint_s": t.span_total_s("extraction.fingerprint"),
        "extraction.stratum_count_s": t.span_total_s("extraction.stratum_count"),
        "extraction.tail_s": t.span_total_s("extraction.tail_count"),
        "extraction.self_s": t.self_s("extraction."),
        "model.eq_calls": t.calls["model.eq"],
        "model.eq_s": t.call_ns["model.eq"] / 1e9,
        "model.shadow_calls": t.calls["model.shadow"],
        "model.shadow_s": t.call_ns["model.shadow"] / 1e9,
        "model.classes_s": t.span_total_s("model.mf_classes"),
        "model.eq_per_class": _ratio(
            t.calls_in[("model.eq", "model.mf_classes")], t.values["model.classes"]
        ),
        "lattice.count_level_calls": t.span_count("lattice.count_level"),
        "lattice.count_level_s": t.span_total_s("lattice.count_level"),
        "lattice.stanley_calls": t.calls["lattice.stanley_decompose"],
        "lattice.enumerate_level_s": t.span_total_s("lattice.enumerate_level"),
        "lattice.denumerant_calls": t.calls["lattice.denumerant"],
        "actions.union_calls": t.calls["actions.union"],
        "quasipoly.fit_calls": fit_calls,
        "quasipoly.fit_s": t.span_total_s("quasipoly.fit"),
        "quasipoly.candidates_per_fit": _ratio(t.calls["quasipoly.interpolate"], fit_calls),
        "elementary.count_calls": t.span_count("elementary.count"),
        "elementary.count_s": t.span_total_s("elementary.count"),
        "precomponent.preceq_calls": t.calls["precomponent.preceq"],
        "precomponent.count_s": t.span_total_s("precomponent.count"),
        "gallery.matrices_ranked": t.calls["gallery.rank_mod"],
        "gallery.rank_s": rank_s,
        "gallery.rank_us_per_matrix": _ratio(rank_s * 1e6, t.calls["gallery.rank_mod"]),
        "gallery.tree_s": t.span_total_s("gallery.tree_orbit_count"),
        "codes.codes_enumerated": t.calls["codes.all_codes"],
        "codes.canonical_calls": t.calls["codes.canonical_point_multiset"],
        "codes.canonical_s": t.call_ns["codes.canonical_point_multiset"] / 1e9,
        "codes.canonical_per_class": _ratio(
            t.calls["codes.canonical_point_multiset"], t.values["codes.classes"]
        ),
        "codes.burnside_s": t.span_total_s("codes.count_codes_burnside"),
    }

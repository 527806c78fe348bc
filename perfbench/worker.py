"""One workload in a fresh interpreter: import the library, build the
inputs, report readiness, then time whole passes over the operations.

    python3 perfbench/worker.py --src src --workload NAME --seed N \
        --seconds S --trace 0|1 [--setup-only] [--trace-out FILE]

Prints `ready` once set up, then (unless --setup-only) one JSON line with
every pass's per-operation times, oracle calls and results.  Only the calls
into the library are timed.  Before each block the library's module-level
caches are emptied, so every block (a sweep) starts as a CLI call does.  With
--trace 1, traced and untraced passes alternate; the traced ones record
spans and counters, the untraced ones give the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# The reference loop is timed between operations, whenever CALIBRATE_EVERY_NS
# of operation time has passed, and at the start and end of every block.
CALIBRATE_EVERY_NS = 150_000_000
# The reference loop's median time on the machine the bounds were set on
# (2 cores, Python 3.11); scaled times are seconds at that speed.
REFERENCE_LOOP_NS = 17_000_000


def reference_loop() -> int:
    """Fixed pure-Python work like the library's (tuples, dicts, sets, small
    ints, Fractions); returns its time in ns.  Operation times are scaled by
    it to take out the drift of this machine's speed."""
    start = time.perf_counter_ns()
    counts = {}
    acc = 0
    for i in range(20000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += sum(key)
    seen = set()
    for i in range(5000):
        seen.add(tuple(sorted((i % 5, i % 3, i % 17))))
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return time.perf_counter_ns() - start


def library_caches():
    """Every lru_cache and module-level cache dict of the library."""
    caches = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("widecount") or module is None:
            continue
        for attr, value in sorted(vars(module).items()):
            if getattr(value, "__module__", None) == name and hasattr(value, "cache_clear"):
                caches.append(value.cache_clear)
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                caches.append(value.clear)
    return caches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.abspath(args.src))
    from tracing import Tracer, install_layers, layer_metrics
    from workloads import Binder, specs, to_plain

    tracer = Tracer()
    oracle_calls = [0]

    def wrap_oracle(name, fn):
        timed = tracer.counter(name, fn)

        def counted(*a):
            oracle_calls[0] += 1
            return timed(*a)

        return counted

    blocks = specs(args.workload, args.seed)
    binder = Binder(wrap_oracle)
    calls = [[(spec["id"], binder.bind(spec)) for spec in block] for block in blocks]
    caches = library_caches()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    passes = []
    started = time.perf_counter()
    op_number = 0
    # with --trace 1 the passes come in (traced, untraced) pairs
    while (
        not passes
        or time.perf_counter() - started < args.seconds
        or (args.trace and len(passes) % 2 == 1)
    ):
        traced = bool(args.trace) and len(passes) % 2 == 0
        if traced:
            install_layers(tracer)
        order = list(range(len(calls)))
        rng.shuffle(order)
        record = {"traced": traced, "ops": {}, "oracle_calls": 0, "calibration": []}
        since_calibration = CALIBRATE_EVERY_NS
        for b in order:
            # each block starts as a fresh CLI sweep would: empty caches and
            # no garbage left by the block before
            for clear in caches:
                clear()
            gc.collect()
            for i, (op_id, call) in enumerate(calls[b]):
                if i == 0 or since_calibration >= CALIBRATE_EVERY_NS:
                    record["calibration"].append(reference_loop())
                    since_calibration = 0
                before = oracle_calls[0]
                error = None
                op_number += 1
                if traced:
                    tracer.begin(op_number)
                t0 = time.perf_counter_ns()
                try:
                    result = call()
                except Exception as exc:  # an operation that raises counts as failed
                    t1 = time.perf_counter_ns()
                    result, error = None, f"{type(exc).__name__}: {exc}"[:300]
                else:
                    t1 = time.perf_counter_ns()
                tracer.end()
                since_calibration += t1 - t0
                record["ops"][op_id] = {
                    "ns": t1 - t0,
                    "calibration": len(record["calibration"]) - 1,
                    "oracle": oracle_calls[0] - before,
                    "result": None if error else to_plain(result),
                    "error": error,
                }
                record["oracle_calls"] += oracle_calls[0] - before
        record["calibration"].append(reference_loop())
        if traced:
            tracer.uninstall()
            record["layers"] = layer_metrics(tracer)
            tracer.close_pass()
        passes.append(record)
    if args.trace_out:
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "peak_rss_mb": peak_kb / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

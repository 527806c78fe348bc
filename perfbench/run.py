"""Benchmark of the widecount counting routes, one workload per call.

    python3 perfbench/run.py --workload stratified|enumeration|closed-forms \
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  Each
workload runs in fresh single-threaded interpreters (perfbench/worker.py):
several that only set up, for `setup_s`, then one that measures for S
seconds in whole passes.  Every result is checked here against
perfbench/refs.py.  The last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import REFERENCE_LOOP_NS  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS, Checker, specs  # noqa: E402

SETUP_SAMPLES = 7  # set-up-only interpreters; the measuring one adds one more
RUN_LIMIT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "oracle_calls": "count",
}

PER_LAYER_UNITS = {
    "extraction.analysis_builds": "count",
    "extraction.fingerprint_s": "s",
    "extraction.stratum_count_s": "s",
    "extraction.tail_s": "s",
    "extraction.self_s": "s",
    "model.eq_calls": "count",
    "model.eq_s": "s",
    "model.shadow_calls": "count",
    "model.shadow_s": "s",
    "model.classes_s": "s",
    "model.eq_per_class": "count",
    "lattice.count_level_calls": "count",
    "lattice.count_level_s": "s",
    "lattice.stanley_calls": "count",
    "lattice.enumerate_level_s": "s",
    "lattice.denumerant_calls": "count",
    "actions.union_calls": "count",
    "quasipoly.fit_calls": "count",
    "quasipoly.fit_s": "s",
    "quasipoly.candidates_per_fit": "count",
    "elementary.count_calls": "count",
    "elementary.count_s": "s",
    "precomponent.preceq_calls": "count",
    "precomponent.count_s": "s",
    "gallery.matrices_ranked": "count",
    "gallery.rank_s": "s",
    "gallery.rank_us_per_matrix": "us",
    "gallery.tree_s": "s",
    "codes.codes_enumerated": "count",
    "codes.canonical_calls": "count",
    "codes.canonical_s": "s",
    "codes.canonical_per_class": "count",
    "codes.burnside_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    pass


def worker_command(args, setup_only: bool, trace_out: str = None):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--src", os.path.join(os.getcwd(), "src"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return cmd


def start_worker(cmd):
    """Start a worker; return (process, seconds until it printed `ready`)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError("worker did not get ready")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready


def finish_worker(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = []
    for _ in range(SETUP_SAMPLES):
        proc, ready = start_worker(worker_command(args, setup_only=True))
        finish_worker(proc, deadline)
        setup.append(ready)
    trace_out = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    proc, ready = start_worker(worker_command(args, setup_only=False, trace_out=trace_out))
    setup.append(ready)
    lines = finish_worker(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    report = json.loads(lines[-1])
    report["setup"] = setup
    return report


def check(args, report) -> tuple:
    """(attempted, failed, unexpected failures) over every pass."""
    by_id = {spec["id"]: spec for block in specs(args.workload, args.seed) for spec in block}
    checker = Checker()
    attempted = failed = 0
    unexpected = []
    for record in report["passes"]:
        if set(record["ops"]) != set(by_id):
            raise BenchError("a pass did not run every operation")
        for op_id, op in record["ops"].items():
            attempted += 1
            reason = op["error"] or checker.check(by_id[op_id], op["result"])
            if reason is None:
                continue
            failed += 1
            if op_id not in KNOWN_FAULTS:
                unexpected.append(f"{op_id}: {reason}")
    return attempted, failed, unexpected


def scaled_ns(record, op) -> float:
    """An operation's time at the reference speed: its time scaled by the
    reference loop's nominal time over the mean of the reference-loop times
    measured just before and just after it."""
    c = op["calibration"]
    around = (record["calibration"][c] + record["calibration"][c + 1]) / 2
    return op["ns"] * REFERENCE_LOOP_NS / around


def op_medians(passes, scaled: bool = True) -> dict:
    """Median time in ns of each operation over the given passes."""
    ids = passes[0]["ops"].keys()
    return {
        op_id: median(
            scaled_ns(p, p["ops"][op_id]) if scaled else p["ops"][op_id]["ns"] for p in passes
        )
        for op_id in ids
    }


def end_to_end(report) -> dict:
    passes = [p for p in report["passes"] if not p["traced"]]
    per_op = op_medians(passes)
    oracle = [p["oracle_calls"] for p in passes]
    if len(set(oracle)) != 1:
        print(f"oracle calls differ between passes: {oracle}", file=sys.stderr)
    raw = op_medians(passes, scaled=False)
    speed = REFERENCE_LOOP_NS / median(c for p in passes for c in p["calibration"])
    print(
        f"{len(passes)} passes; unscaled wall {sum(raw.values()) / 1e9:.4f} s, "
        f"unscaled op p50 {median(raw.values()) / 1e6:.4f} ms; "
        f"machine speed {speed:.3f} of the reference",
        file=sys.stderr,
    )
    return {
        "setup_s": median(report["setup"]),
        "wall_s": sum(per_op.values()) / 1e9,
        "op_p50_ms": median(per_op.values()) / 1e6,
        "peak_rss_mb": report["peak_rss_mb"],
        "oracle_calls": median_low(oracle),
    }


def per_layer(report) -> dict:
    traced = [p for p in report["passes"] if p["traced"]]
    plain = [p for p in report["passes"] if not p["traced"]]
    out = {key: median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
    with_trace = sum(op_medians(traced).values())
    without = sum(op_medians(plain).values())
    out["trace.overhead_pct"] = 100.0 * (with_trace / without - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "widecount", "__init__.py")):
        print("run.py: no src/widecount here; run it from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    try:
        report = measure(args)
        attempted, failed, unexpected = check(args, report)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for line in unexpected:
        print(f"wrong result: {line}", file=sys.stderr)
    values = per_layer(report) if args.trace else end_to_end(report)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

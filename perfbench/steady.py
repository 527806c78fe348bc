"""Steadiness check: run workloads repeatedly and print the spread of every
end-to-end metric.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Run from the repository root.  For each workload it runs perfbench/run.py
once per seed and prints each metric's median, first and third quartile
and the quartile distance as a share of the median (the figure the bounds
in BENCHMARK.json are set from), plus whether `oracle_calls` and the share
of failed operations repeated exactly.  Every run's result line is kept in
perfbench/out/steady-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        with open(os.path.join(out_dir, f"steady-{workload}.jsonl"), "w") as log:
            for seed in seed_list(args.seeds):
                cmd = [
                    sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                ]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"seed": seed, "stderr": proc.stderr.strip(), **result}) + "\n")
                runs.append(result)
        print(f"{workload}: {len(runs)} runs, correct in all: {all(r['correct'] for r in runs)}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share repeats exactly: {len(shares) == 1} {sorted(shares)}")
        oracle = {r["metrics"]["oracle_calls"]["value"] for r in runs}
        print(f"  oracle_calls repeats exactly: {len(oracle) == 1} {sorted(oracle)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = "ok" if name == "setup_s" or spread < bound / 3 else "WIDE"
            steady &= flag == "ok"
            print(
                f"  {name:12s} median {median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {spread:.4f}  bound {bound}  {flag}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

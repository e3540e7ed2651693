"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads bracket screen --seeds 1-10 [--out FILE]

Run from the repository root.  Each run is `run.py --trace 0` in a fresh
process, for `run_seconds` of BENCHMARK.json, one after another.  For every metric the script prints the median of the runs
and the spread, (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound in
BENCHMARK.json.  `--out` writes the same figures as JSON.  The exit code is
non-zero when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summary(values: list) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, failed = {}, False
    for name in args.workloads:
        runs, took_s = [], []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                failed = True
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            took_s.append(took)
            print(f"{name} seed {seed}: {took:.1f} s, " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        if not runs:
            continue
        entry = {"runs": len(runs), "run_s_max": max(took_s),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": sum(r["failed"] for r in runs)}
        for metric, first in runs[0]["metrics"].items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            entry[metric] = {"unit": first["unit"], **s}
            bound = bounds.get(metric)
            mark = "" if bound is None else f"  bound {bound}" + (
                "  OVER A THIRD" if s["spread"] > bound / 3 else "")
            print(f"  {name:<14} {metric:<48} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f}{mark}")
        report[name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

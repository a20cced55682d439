"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--out FILE]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs, one run at a time)
for each workload and reports, per end-to-end metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from ``BENCHMARK.json``.
With ``--out`` the summary and every run's result line are written as JSON;
``baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return {"result": json.loads(lines[-1]), "info": json.loads(lines[-2])["info"]}


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, runs = {}, {}
    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [one_run(workload, seed, args.seconds) for seed in seeds]
        runs[workload] = results
        summary[workload] = {}
        for metric in bounds:
            s = summarise([r["result"]["metrics"][metric]["value"] for r in results])
            summary[workload][metric] = s
            print(f"{workload:14s} {metric:12s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.3f} "
                  f"(bound {bounds[metric]})", flush=True)
        if not all(r["result"]["correct"] for r in results):
            print(f"{workload}: a run reported incorrect output", flush=True)
    if args.out:
        info = runs[next(iter(runs))][0]["info"]
        with open(args.out, "w") as fh:
            json.dump({"commit": info["commit"], "nproc": info["nproc"],
                       "python": info["python"], "seconds": args.seconds,
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

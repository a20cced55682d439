"""Batch benchmark of operadix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The benchmark is a single-threaded closed loop: one pass runs the
workload's fixed job list (``workloads.py``) in order, each job starting when
the previous one returns, and passes repeat until ``--seconds`` is used up
(at least ``MIN_PASSES``).  The seed only chooses the sampled inputs; the
window, the components and the check counts are fixed.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median time of one pass;
- ``setup_s``: median, over at least ``SETUP_PROBES`` fresh interpreters
  started one before each pass, of the time from starting the interpreter
  to the first timed job (imports and input generation);
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced passes with traced ones, in which the
library's public functions are wrapped (``tracer.py``), and reports
per-layer call counts, self times and counters as medians over the traced
passes, plus the tracing overhead: the median traced pass minus the median
untraced pass.

Every output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` (checks) and ``metrics``; the lines
before it give the metrics with units, the environment and the sample
counts.  Per-job spans, and in a traced run the call tree, are written to
``perfbench/out/``.  The exit code is 0 when every check passed, 1 when one
failed, 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7
MIN_PASSES = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print 'ready' and exit (used for setup_s)")
    return p.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_sample(args) -> float:
    """Seconds from launching a fresh interpreter to its first job."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed


def run_pass(index, jobs, inputs, checks, spans, origin) -> float:
    """Run every job once; record one span per job.  A job that raises
    counts as one failed check."""
    start = time.perf_counter()
    for name, job in jobs:
        t0 = time.perf_counter()
        try:
            job(inputs, checks)
        except Exception as exc:  # a crash is a failed check, not a stop
            checks.attempted += 1
            checks.fail(f"{name} raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        spans.append({"name": name, "parent": f"pass {index}",
                      "start": t0 - origin, "end": t1 - origin})
    return time.perf_counter() - start


def timed_passes(seconds, min_passes, run) -> list[float]:
    """Call ``run(i)`` until the next pass would end after ``seconds``,
    predicting its length by the median so far; at least ``min_passes``."""
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        walls.append(run(len(walls)))
        used = time.perf_counter() - start
        if len(walls) >= min_passes and used + statistics.median(walls) > seconds:
            return walls


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "operadix", "__init__.py")):
        print(f"error: no operadix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports operadix from SRC

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, jobs = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    origin = time.perf_counter()
    checks = workloads.Checks()
    spans: list[dict] = []

    def one_pass(i):
        return run_pass(i, jobs, inputs, checks, spans, origin)

    report = {"spans": spans}
    if args.trace:
        import tracer
        from operadix import (chains, cli, cobar, geometry, graphs, loops,
                              strings, surjections, trees)

        modules = {"strings": strings, "trees": trees, "graphs": graphs,
                   "geometry": geometry, "surjections": surjections,
                   "chains": chains, "loops": loops, "cobar": cobar, "cli": cli}
        recorder = tracer.Recorder()
        untraced, traced, per_pass = [], [], []

        def pass_pair(i):
            untraced.append(one_pass(2 * i))
            recorder.install(modules)
            try:
                traced.append(one_pass(2 * i + 1))
            finally:
                recorder.uninstall()
            per_pass.append(recorder.pass_metrics(traced[-1]))
            return untraced[-1] + traced[-1]

        walls = timed_passes(args.seconds, 1, pass_pair)
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        values["trace.untraced_wall_s"] = statistics.median(untraced)
        values["trace.traced_wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = (values["trace.traced_wall_s"]
                                      - values["trace.untraced_wall_s"])
        values["cli.stdout_bytes"] = checks.stdout_bytes / (2 * len(walls))
        values["failed_frac"] = checks.failed / max(checks.attempted, 1)
        units = tracer.metric_units()
        report["call_tree"] = recorder.root.to_json()
        report["layer_effects"] = tracer.LAYER_EFFECTS
        samples = {"untraced_passes": len(walls), "traced_passes": len(walls)}
    else:
        # Probes run between passes, so that they sample the machine's
        # load over the whole run as the passes do.
        setups: list[float] = []

        def probed_pass(i):
            setups.append(setup_sample(args))
            return one_pass(i)

        walls = timed_passes(args.seconds, MIN_PASSES, probed_pass)
        while len(setups) < SETUP_PROBES:
            setups.append(setup_sample(args))
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        report["passes_s"] = walls
        report["setups_s"] = setups
        samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": 1}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "sizes": inputs["sizes"],
        "samples": samples, "checks_per_pass": checks.attempted // len(
            {s["parent"] for s in spans}),
        "failed_frac": checks.failed / max(checks.attempted, 1),
        "failures": checks.witnesses,
    }
    report["info"] = info
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    shown = {"failed_frac": (info["failed_frac"], "fraction")}
    shown.update({k: (v, units[k]) for k, v in values.items()})
    for name in sorted(shown):
        value, unit = shown[name]
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps({"info": info}))
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The metric names and units the code reports match ``BENCHMARK.json``, and
   a short run of the ``homology`` workload prints every metric with its
   unit, untraced and traced.
2. A deliberately wrong expected value makes checks fail: for each kind of
   gate (closed form, frozen ranks, frozen count, CLI digest) the matching
   job is run against a corrupted expectation and must report a failed
   check, so that ``failed_frac`` rises above 0.  A job that raises must
   count as a failed check too.

Exits 0 when every self-check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def declared() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def metrics_print_with_units(expected: dict) -> None:
    import tracer

    check(run.END_TO_END_UNITS == expected[0], "end-to-end metrics match BENCHMARK.json")
    check(tracer.metric_units() == expected[1], "per-layer metrics match BENCHMARK.json")
    for trace in (0, 1):
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
               "homology", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                              timeout=170)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(proc.returncode == 0 and result["correct"], f"trace {trace} run passes")
        check(got == expected[trace], f"trace {trace} result has every metric with its unit")
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
                   if len(line.split()) == 3}
        check(all(printed.get(k) == u for k, u in expected[trace].items()),
              f"trace {trace} prints every metric with its unit")


def fails_with(what: str, job, inputs, table: dict, key, wrong) -> None:
    """Run ``job`` with ``table[key]`` replaced by ``wrong``."""
    import workloads

    saved = table[key]
    table[key] = wrong
    try:
        checks = workloads.Checks()
        job(inputs, checks)
    finally:
        table[key] = saved
    frac = checks.failed / max(checks.attempted, 1)
    check(frac > 0, f"wrong {what} gives failed_frac {frac:.3g} > 0")


def wrong_values_fail() -> None:
    import workloads as w

    job = dict(w.HOMOLOGY_JOBS)
    fails_with("mixed ranks", job["homology c,c,o:o m=2"], {}, w.MIXED_RANKS,
               (2, "c,c,o:o"), {0: 1, 1: 2})
    fails_with("CLI digest", job["homology c,c:c m=2"], {}, w.HOMOLOGY_DIGESTS,
               (2, "c,c:c"), "0" * 16)
    fails_with("closed form", job["homology c,c,c:c m=3"], {}, vars(w),
               "closed_form_ranks", lambda k, m: {0: 2})
    inputs = w.window_inputs(0)
    fails_with("frozen window size", w.job_units, inputs, w.WINDOW_FROZEN,
               "elements", w.WINDOW_FROZEN["elements"] + 1)
    fails_with("frozen unit-law count", w.job_units, inputs, w.WINDOW_FROZEN,
               "units", w.WINDOW_FROZEN["units"] - 1)
    fails_with("frozen bimodule count", w.job_bimodule, {}, w.COBAR_FROZEN,
               "bimodule", w.COBAR_FROZEN["bimodule"] + 1)
    argv = next(iter(w.CLI_DIGESTS))
    fails_with("cobar CLI digest", w.job_cli, {}, w.CLI_DIGESTS, argv, "0" * 16)

    def broken(inputs, checks):
        raise ZeroDivisionError("deliberate")

    checks = w.Checks()
    run.run_pass(0, [("broken", broken)], {}, checks, [], 0.0)
    check(checks.attempted == 1 and checks.failed == 1, "a job that raises is a failed check")


def main() -> int:
    sys.path.insert(0, run.SRC)
    metrics_print_with_units(declared())
    wrong_values_fail()
    print("self-test", "failed: " + "; ".join(problems) if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

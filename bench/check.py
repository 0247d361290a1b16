"""Run every workload, print every metric by name with its unit, fail on bad output.

    python3 bench/check.py [--seed 0] [--seconds 25]

For each workload in BENCHMARK.json this runs ``bench/run.py`` untraced
(end-to-end metrics) and traced (per-layer metrics), prints each metric
as ``workload  name  value  unit``, and checks that every metric named
in BENCHMARK.json is reported with its declared unit.  It also checks
that the output gate can fail: a warm-up request of each workload must
match its reference entry and must not match a perturbed copy of it.
Exits 1 if any output is incorrect or any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from run import BENCH, REFERENCE, ROOT, import_program


def run_workload(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def gate_can_fail(problems):
    """A perturbed reference entry must be detected on every workload."""
    import_program()
    from workloads import WORKLOADS, execute, matches, perturbed

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["requests"]
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(BENCH, ".work", f"check-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            workload = cls(workdir)
            for req in workload.warmup:
                _, obs, error = execute(req)
                ref = reference[req.rid]
                if error is not None or not matches(obs, ref, req.tol):
                    problems.append(f"{name}: {req.rid} does not match its reference")
                if error is None and matches(obs, perturbed(ref), req.tol):
                    problems.append(f"{name}: perturbed reference of {req.rid} went undetected")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    shutil.rmtree(os.path.join(BENCH, ".work"), ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    problems = []
    gate_can_fail(problems)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, error = run_workload(workload, args.seed, seconds, trace)
            if error:
                problems.append(f"{workload} trace={trace}: {error}")
                continue
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{workload}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} in {got['unit']}, not {m['unit']}")
            for name, m in sorted(metrics.items()):
                print(f"{workload:12s} {name:42s} {m['value']:14.6g} {m['unit']}")
            print(f"{workload:12s} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} incorrect outputs")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("check: ok" if not problems else f"check: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

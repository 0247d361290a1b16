"""Regenerate bench/reference.json: the output of every request variant.

    python3 bench/make_reference.py

Runs each variant of each slot of every workload once (CLI requests as
fresh processes) and stores its observation.  Run it only on a commit
whose outputs are known to be right; the benchmark then fails any run
whose output differs.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess

from run import BENCH, REFERENCE, ROOT, import_program


def main():
    import_program()
    import numpy
    import scipy

    from workloads import WORKLOADS, execute

    entries = {}
    for name, cls in WORKLOADS.items():
        workdir = os.path.join(BENCH, ".work", f"reference-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            workload = cls(workdir)
            for req in workload.pool():
                dt, obs, error = execute(req)
                if error is not None:
                    raise SystemExit(f"{req.rid}: {error}")
                if "exit" in obs and obs["exit"] != (3 if req.refusal else 0):
                    raise SystemExit(f"{req.rid}: exit code {obs['exit']}")
                if req.rid in entries:
                    raise SystemExit(f"duplicate request id {req.rid}")
                entries[req.rid] = obs
                print(f"{dt * 1e3:10.1f} ms  {req.rid}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    shutil.rmtree(os.path.join(BENCH, ".work"), ignore_errors=True)

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    doc = {
        "generated": {"source_commit": commit, "python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__},
        "requests": entries,
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {REFERENCE}")


if __name__ == "__main__":
    main()

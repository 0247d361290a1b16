"""chaoslab benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload exact-laws --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same request list three times: untraced, traced,
and traced with ``CHAOSLAB_THREADS=1``, and reports the per-layer
metrics of the traced pass, the tracing overhead and the thread
speedup.  Every request's output is checked against ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
print the run record (machine, versions, threads, seed), a per-kind
latency table and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference.json")
META = os.path.join(BENCH, "meta.json")
SETUP_PROBES = 5


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import chaoslab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "chaoslab", "__init__.py")):
        fail(f"no chaoslab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    # child processes (setup probes, CLI requests) import the same sources
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    import chaoslab

    if os.path.dirname(os.path.dirname(os.path.abspath(chaoslab.__file__))) != SRC:
        fail(f"imported chaoslab from {chaoslab.__file__}, not from {SRC}")
    return chaoslab


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKDIR",
                   help=argparse.SUPPRESS)  # build the inputs in WORKDIR, print 'ready', exit
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class SetupProbes:
    """Fresh processes timed from start until the workload's inputs are built.

    The probes are spread over the timed phase, one every
    ``requests // SETUP_PROBES`` requests, in the pause between two
    requests: host speed drifts over tens of seconds, and probes run back
    to back would all sample the same moment of it.
    """

    def __init__(self, args, workdir, requests):
        self.args, self.workdir = args, workdir
        self.every = max(1, requests // SETUP_PROBES)
        self.times = []

    def __call__(self, done):
        if done % self.every == 0 and len(self.times) < SETUP_PROBES:
            self.probe()

    def probe(self):
        probe_dir = os.path.join(self.workdir, f"probe{len(self.times)}")
        os.makedirs(probe_dir)
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", "0", "--setup-probe", probe_dir]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        out, err = proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"setup probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        self.times.append(t1 - t0)
        shutil.rmtree(probe_dir)

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def import_profile():
    """Fresh-process CLI startup and the -X importtime split of it."""
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "chaoslab.cli", "--version"],
                       stdout=subprocess.DEVNULL, check=True)
        walls.append(time.perf_counter() - t0)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chaoslab.cli"],
                          stderr=subprocess.PIPE, text=True, check=True)
    self_us = {"scipy": 0, "numpy": 0}
    symspace_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += own
        if name == "chaoslab.symspace":
            symspace_us = cumulative
    return {
        "cli.startup_s": (statistics.median(walls), "s"),
        "cli.import_scipy_s": (self_us["scipy"] / 1e6, "s"),
        "cli.import_numpy_s": (self_us["numpy"] / 1e6, "s"),
        "symspace.import_s": (symspace_us / 1e6, "s"),
    }


class Pass:
    """One closed-loop pass over whole rounds of a workload."""

    def __init__(self, reference):
        self.reference = reference
        self.latencies = []  # (kind, seconds)
        self.failures = []  # (rid, reason)
        self.wall = 0.0

    def verify(self, req, obs, error):
        if error is not None:
            return error
        ref = self.reference.get(req.rid)
        if ref is None:
            return "no reference entry"
        from workloads import matches

        if not matches(obs, ref, req.tol):
            return "output differs from the reference"
        return None

    def run(self, rounds, pause=None):
        """Run every request of ``rounds``; ``pause(done)`` is called before
        each request, and its time is left out of ``wall``."""
        from workloads import execute

        t0 = time.perf_counter()
        paused = 0.0
        for batch in rounds:
            for req in batch:
                if pause is not None:
                    p0 = time.perf_counter()
                    pause(self.attempted)
                    paused += time.perf_counter() - p0
                dt, obs, error = execute(req)
                self.latencies.append((req.kind, dt))
                problem = self.verify(req, obs, error)
                if problem:
                    self.failures.append((req.rid, problem))
        self.wall = time.perf_counter() - t0 - paused

    @property
    def attempted(self):
        return len(self.latencies)


def cpu_jiffies():
    """Machine-wide CPU time counters of /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return None


def steal_fraction(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def settle():
    """Keep the harness's own long-lived objects (reference, inputs) out of
    the collector's scans, so they do not tax the requests being timed."""
    gc.collect()
    gc.freeze()


def timed_rounds(source, seconds, min_rounds, log):
    """Yield whole rounds until ``seconds`` have passed and ``min_rounds`` ran."""
    t0 = time.perf_counter()
    n = 0
    while n < min_rounds or time.perf_counter() - t0 < seconds:
        batch = next(source)
        log.append(batch)
        n += 1
        yield batch


def by_kind(latencies):
    kinds = {}
    for kind, dt in latencies:
        kinds.setdefault(kind, []).append(dt)
    return kinds


def kind_table(latencies):
    return {k: {"count": len(v), "p50_ms": statistics.median(v) * 1e3, "max_ms": max(v) * 1e3}
            for k, v in sorted(by_kind(latencies).items())}


def median_round_s(latencies):
    """Time of a typical round: the sum over request kinds (one per slot)
    of each kind's median latency across the run's rounds.  A request
    slowed by a passing neighbour on a shared host moves one sample of
    its kind, not the figure."""
    return sum(statistics.median(v) for v in by_kind(latencies).values())


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_untraced(args, workload, reference, record, workdir):
    source = workload.rounds(args.seed)
    Pass(reference).run([workload.warmup])
    settle()
    timed = Pass(reference)
    log = []
    probes = SetupProbes(args, workdir, workload.min_rounds * len(workload.slots))
    jiffies = cpu_jiffies()
    timed.run(timed_rounds(source, args.seconds, workload.min_rounds, log), pause=probes)
    steal = steal_fraction(jiffies, cpu_jiffies())
    setup_s = probes.median()

    lat_ms = sorted(dt * 1e3 for _, dt in timed.latencies)
    ok = timed.attempted - len(timed.failures)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = workload.runner.peak_rss_kb
    round_s = median_round_s(timed.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "req_per_s": (ok / timed.attempted * len(workload.slots) / round_s, "1/s"),
        "req_p50_ms": (statistics.median(lat_ms), "ms"),
        "req_tail_ms": (nearest_rank(lat_ms, workload.tail_q), "ms"),
        "ok_frac": (ok / timed.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    record.update({
        "rounds": len(log),
        "requests": timed.attempted,
        "timed_wall_s": timed.wall,
        "median_round_s": round_s,
        "wall_req_per_s": ok / timed.wall,
        "setup_s_samples": probes.times,
        "cpu_steal_frac": steal,
        "tail_percentile": f"p{round(workload.tail_q * 100)}",
        "fail_frac": len(timed.failures) / timed.attempted,
        "per_kind": kind_table(timed.latencies),
    })
    return metrics, timed.attempted, timed.failures


def run_traced(args, workload, reference, record):
    from tracer import Tracer

    metrics = dict(import_profile())
    if not workload.in_process:
        workload.runner.in_process = True  # same argv list through chaoslab.cli.run
    source = workload.rounds(args.seed)
    # a whole untimed round first, so that no pass pays first-touch costs the others do not
    Pass(reference).run([next(source)])
    settle()

    untraced = Pass(reference)
    log = []
    untraced.run(timed_rounds(source, args.seconds / 4.0, 1, log))

    tracer = Tracer()
    tracer.install()
    try:
        traced = Pass(reference)
        traced.run(log)
        metrics.update(tracer.metrics())
        default_wall = tracer.total_s["map_chunks"]

        saved = os.environ.get("CHAOSLAB_THREADS")
        os.environ["CHAOSLAB_THREADS"] = "1"
        try:
            tracer.reset()
            single = Pass(reference)
            single.run(log)
            single_wall = tracer.total_s["map_chunks"]
        finally:
            if saved is None:
                del os.environ["CHAOSLAB_THREADS"]
            else:
                os.environ["CHAOSLAB_THREADS"] = saved
    finally:
        tracer.uninstall()

    metrics["parallel.speedup"] = (single_wall / default_wall if default_wall else 1.0, "ratio")
    metrics["trace.untraced_wall_s"] = (untraced.wall, "s")
    metrics["trace.traced_wall_s"] = (traced.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    metrics["trace.single_thread_wall_s"] = (single.wall, "s")
    passes = (untraced, traced, single)
    record.update({
        "rounds": len(log),
        "requests_per_pass": untraced.attempted,
        "per_kind_traced": kind_table(traced.latencies),
        "pass_wall_s": {"untraced": untraced.wall, "traced": traced.wall,
                        "traced_threads_1": single.wall},
    })
    failures = [f for p in passes for f in p.failures]
    return metrics, sum(p.attempted for p in passes), failures


def machine_record(args, workload, chaoslab):
    import numpy
    import scipy

    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        ram = None
    with open(META, encoding="utf-8") as fh:
        why = json.load(fh)["workloads"][workload.name]["why"]
    return {
        "workload": workload.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "ram_gb": round(ram / 2**30, 2) if ram else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "chaoslab": chaoslab.__version__,
        "CHAOSLAB_THREADS": os.environ.get("CHAOSLAB_THREADS", "unset"),
        "worker_count": chaoslab.parallel.worker_count(),
        "closed_loop": "one client, one process, next request when the previous returns",
    }


def baseline_rows(workload_name, per_kind):
    """ROADMAP baseline operations mapped to the request kind that reproduces them."""
    with open(META, encoding="utf-8") as fh:
        rows = json.load(fh)["roadmap_baselines"]
    out = []
    for row in rows:
        kind, where = row.get("kind"), row.get("workload")
        if kind is None:
            status = "not measured: " + row["note"]
        elif where != workload_name:
            status = f"measured on {where} ({kind})"
        elif kind in per_kind:
            status = f"p50 {per_kind[kind]['p50_ms']:.1f} ms over {per_kind[kind]['count']} ({kind})"
        else:
            status = f"{kind}: not reached in this run"
        if kind is not None and row.get("note"):
            status += "; " + row["note"]
        out.append((row["operation"], row["baseline"], status))
    return out


def print_report(record, metrics, result):
    print(f"== chaoslab benchmark: {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}")
    per_kind = record.get("per_kind") or record.get("per_kind_traced") or {}
    print(f"{'request kind':40s} {'count':>5s} {'p50 ms':>10s} {'max ms':>10s}")
    for kind, row in per_kind.items():
        print(f"{kind:40s} {row['count']:5d} {row['p50_ms']:10.2f} {row['max_ms']:10.2f}")
    print("ROADMAP baselines:")
    for op, base, status in baseline_rows(record["workload"], per_kind):
        print(f"  {op:55s} {base:>10s}  {status}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    for rid, problem in record.get("failures", [])[:20]:
        print(f"FAILED {rid}: {problem}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "failures"},
                                 sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    chaoslab = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]

    if args.setup_probe:
        cls(args.setup_probe)
        print("ready", flush=True)
        return 0

    if not os.path.isfile(REFERENCE):
        fail(f"missing {REFERENCE}")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["requests"]

    workdir = os.path.join(BENCH, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = cls(workdir)
        record = machine_record(args, workload, chaoslab)
        if args.trace:
            metrics, attempted, failures = run_traced(args, workload, reference, record)
        else:
            metrics, attempted, failures = run_untraced(args, workload, reference, record, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with_parent = os.path.join(BENCH, ".work")
        if os.path.isdir(with_parent) and not os.listdir(with_parent):
            os.rmdir(with_parent)

    record["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print_report(record, metrics, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads of the chaoslab benchmark and their requests.

Every workload is a closed loop with one client in one process: a round
is a fixed list of request slots, and the benchmark runs whole rounds
one request at a time.  A slot with ``VARIANTS`` alternatives (seeded
coefficients or a Monte Carlo seed) costs the same whichever variant
runs, so the workload seed changes the inputs and their order but not
the amount of work.  ``reference.json`` holds the output of every
variant of every slot, so any seed can be checked.

Request ids name every parameter of the request; they key the reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import chaoslab as cl
from chaoslab.combdim import BlockChoice

VARIANTS = 4
EXACT_TOL = 1e-11  # exact paths: agreement to 12 significant digits
ROOT_TOL = 1e-8  # norms found by bisection or bounded search (tol 1e-10)


@dataclass(frozen=True)
class Request:
    rid: str  # key into the reference; names every parameter
    kind: str  # row of the per-kind latency table
    call: Callable  # performs the request and returns its raw result
    observe: Callable  # raw result -> JSON-able observation
    tol: float = EXACT_TOL
    refusal: bool = False  # must be refused with ResourceLimitError / exit 3


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


def law_obs(dist):
    return {"atoms": len(dist), "values": dist.values.tolist(), "weights": dist.weights.tolist()}


def report_obs(report):
    inputs = json.loads(json.dumps(report.inputs, default=str))
    checks = [[c.quantity, c.value, c.comparison, c.bound, c.passed] for c in report.checks]
    return {"name": report.name, "inputs": inputs, "checks": checks, "verdict": report.verdict}


def refusal_obs(exc):
    return {"refused": type(exc).__name__, "required": exc.required, "budget": exc.budget}


def matches(obs, ref, tol):
    """True when an observation equals its reference.

    Strings, booleans, integers and structure compare exactly; floats
    agree within ``tol`` relative to the largest magnitude in their list
    (or to their own magnitude when scalar).
    """
    if isinstance(ref, dict):
        return (isinstance(obs, dict) and obs.keys() == ref.keys()
                and all(matches(obs[k], ref[k], tol) for k in ref))
    if isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            return False
        if ref and all(_is_num(x) for x in ref):
            if not all(_is_num(x) for x in obs):
                return False
            scale = max(abs(float(x)) for x in ref)
            return all(_num_close(a, b, tol, scale) for a, b in zip(obs, ref))
        return all(matches(a, b, tol) for a, b in zip(obs, ref))
    if _is_num(ref):
        return _is_num(obs) and _num_close(obs, ref, tol, abs(float(ref)))
    return type(obs) is type(ref) and obs == ref


def _is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _num_close(a, b, tol, scale):
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(float(a) - float(b)) <= tol * scale


def perturbed(ref):
    """Copy of a reference entry with its first number or string altered.

    A number moves by one part in 1e6, beyond every comparison tolerance.
    """
    ref = json.loads(json.dumps(ref))

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if _is_num(value):
                node[key] = float(value) * (1.0 + 1e-6) + 1e-6
                return True
            if isinstance(value, str) and key != "refused":
                node[key] = value + "#"
                return True
            if isinstance(value, (dict, list)) and walk(value):
                return True
        return False

    if not walk(ref):
        raise ValueError("reference entry has nothing to perturb")
    return ref


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    tail_q = 0.75  # highest percentile with >= 10 requests beyond it at min_rounds
    min_rounds = 2
    in_process = True

    def __init__(self, workdir):
        self.workdir = workdir
        self.slots = []  # list of (kind, [Request variants])
        self.warmup = []
        self.build()

    def build(self):
        raise NotImplementedError

    def slot(self, kind, variants):
        if any(kind == k for k, _ in self.slots):
            raise ValueError(f"duplicate slot kind {kind}")  # medians are taken per kind
        self.slots.append((kind, list(variants)))

    def pool(self):
        return [req for _, variants in self.slots for req in variants]

    def rounds(self, seed):
        """Endless sequence of rounds; the same seed gives the same rounds."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            batch = [rng.choice(variants) for _, variants in self.slots]
            rng.shuffle(batch)
            yield batch


# ---------------------------------------------------------------------------
# exact-laws: exact laws on the FWHT path plus one sampled law
# ---------------------------------------------------------------------------

LP_READ = (1.0, 2.0, 4.0, 8.0)
MOMENT_P = (1, 2, 4, 8, 16)
MC_SAMPLES = 1_000_000


def small_int_coeffs(A, v):
    """Seeded nonzero coefficients in {-3..3} for the elements of A."""
    elements = list(A.tuples())
    rng = np.random.default_rng([len(elements), A.max_index, v])
    vals = rng.integers(1, 4, size=len(elements)) * rng.choice([-1, 1], size=len(elements))
    return dict(zip(elements, (float(x) for x in vals)))


def _law_with_lp(f):
    dist = cl.distribution_exact(f)
    return dist, [dist.lp_norm(p) for p in LP_READ]


def _law_lp_obs(res):
    dist, lps = res
    return {"law": law_obs(dist), "lp": lps}


class ExactLaws(Workload):
    name = "exact-laws"
    tail_q = 0.90
    min_rounds = 4  # 4 x 26 = 104 requests, so p90 has >= 10 beyond it

    def build(self):
        sums = {}
        for N in (14, 16, 17, 18, 19, 20, 21, 22, 24, 25, 30):
            A = cl.gen_sum_set(N)
            sums[N] = (A, cl.unit_coefficients(A))
        tris = {n: cl.gen_triangle(2, n) for n in range(16, 21)}
        tri_coeffs = {(n, v): small_int_coeffs(tris[n], v) for n in tris for v in range(VARIANTS)}

        def law_req(N):
            coeffs = sums[N][1]
            return Request(f"law_sum.N{N}", f"law_sum.N{N}",
                           lambda: _law_with_lp(cl.chaos_sum(coeffs)), _law_lp_obs)

        for N in (14, 16, 17, 18, 19, 20, 21, 22, 24):
            self.slot(f"law_sum.N{N}", [law_req(N)])

        def moments_req(n, v):
            coeffs = tri_coeffs[n, v]
            return Request(
                f"moments_tri.n{n}.v{v}", f"moments_tri.n{n}",
                lambda: cl.moment_table(cl.chaos_sum(coeffs), MOMENT_P),
                lambda t: {"rows": [list(r) for r in t.rows], "theta": t.theta})

        for n in (16, 17, 18, 19, 20):
            self.slot(f"moments_tri.n{n}", [moments_req(n, v) for v in range(VARIANTS)])

        def blei_req(n, v):
            A, coeffs = tris[n], tri_coeffs[n, v]
            return Request(f"blei_tri.n{n}.v{v}", f"blei_tri.n{n}",
                           lambda: cl.blei_bound_check(A, coeffs), report_obs)

        for n in (17, 18, 19, 20):
            self.slot(f"blei_tri.n{n}", [blei_req(n, v) for v in range(VARIANTS)])

        def normsum_req(N):
            A = sums[N][0]
            return Request(
                f"normsum.N{N}", f"normsum.N{N}",
                lambda: cl.normalized_sum_cdf(A, N),
                lambda r: {"law": law_obs(r.distribution), "l2": r.l2_norm,
                           "ks": r.ks_distance, "size": r.size})

        for N in (18, 19, 20, 21, 22):
            self.slot(f"normsum.N{N}", [normsum_req(N)])

        f30 = sums[30][1]

        def mc_req(v):
            def call():
                dist = cl.distribution_mc(cl.chaos_sum(f30), MC_SAMPLES, seed=v)
                return dist, [dist.lp_norm(p) for p in LP_READ]

            return Request(f"mc_sum.N30.s{MC_SAMPLES}.seed{v}", "mc_sum.N30", call, _law_lp_obs)

        self.slot("mc_sum.N30", [mc_req(v) for v in range(VARIANTS)])

        # Seeded {-3..3} coefficients on the same set and at the same cost, so
        # that p90 falls among the sampled laws.  Exact laws at 2^22 and 2^23
        # are bound by memory bandwidth, which a shared host varied by up to a
        # quarter from run to run; the sampler is bound by compute.  No N=23
        # law runs, which pays for the second sampled law in run time.
        def mc_int_req(v):
            coeffs = small_int_coeffs(sums[30][0], v)

            def call():
                dist = cl.distribution_mc(cl.chaos_sum(coeffs), MC_SAMPLES, seed=v)
                return dist, [dist.lp_norm(p) for p in LP_READ]

            return Request(f"mc_int.N30.s{MC_SAMPLES}.v{v}.seed{v}", "mc_int.N30", call,
                           _law_lp_obs)

        self.slot("mc_int.N30", [mc_int_req(v) for v in range(VARIANTS)])

        over = sums[25][1]
        self.slot("law_overcap.N25", [Request(
            "law_overcap.N25", "law_overcap.N25",
            lambda: cl.distribution_exact(cl.chaos_sum(over)), None, refusal=True)])

        by_id = {r.rid: r for r in self.pool()}
        self.warmup = [by_id[i] for i in ("law_sum.N14", "moments_tri.n16.v0", "blei_tri.n17.v0",
                                          "normsum.N18", "law_overcap.N25")]


# ---------------------------------------------------------------------------
# sign-sweeps: pattern x configuration sweeps over many small laws
# ---------------------------------------------------------------------------

RUD_SPACES = {
    "lp4": (lambda: cl.SpaceSpec.lp(4), EXACT_TOL),
    "linf": (lambda: cl.SpaceSpec.linf(), EXACT_TOL),
    "explr2": (lambda: cl.SpaceSpec.exp_lr(2), ROOT_TOL),
    "lorentz": (lambda: cl.SpaceSpec.lorentz(cl.ConcaveWeight.log_power(0.5)), EXACT_TOL),
}
RUD_MC_SAMPLES = 40


def rud_subset(m, v):
    """Fixed m-element subset of triangle(2, 7) meeting every index 1..7,
    with seeded Gaussian coefficients.

    Generic coefficients give every sign pattern the same number of
    atoms, so the variants cost the same.
    """
    elements = list(cl.gen_triangle(2, 7).tuples())
    rng = np.random.default_rng(m)
    while True:
        pick = sorted(rng.choice(len(elements), size=m, replace=False).tolist())
        chosen = [elements[i] for i in pick]
        if {j for t in chosen for j in t} == set(range(1, 8)):
            break
    coeffs = np.random.default_rng([m, v]).standard_normal(m)
    return cl.IndexSet.from_tuples(chosen), dict(zip(chosen, coeffs.tolist()))


def rud_obs(r):
    return {"average": r.average, "det": r.deterministic_norm, "ratio": r.ratio,
            "stderr": r.stderr, "mode": r.mode}


class SignSweeps(Workload):
    name = "sign-sweeps"
    tail_q = 0.90
    min_rounds = 4  # 4 x 25 = 100 requests, so p90 has >= 10 beyond it

    def build(self):
        lp4 = RUD_SPACES["lp4"][0]()

        def conc_req(d, n, lam):
            A, B = cl.gen_triangle(d, n), BlockChoice.identity(d, n)
            tag = f"conc.d{d}n{n}.{'default' if lam is None else f'lam{lam}'}"
            return Request(tag, tag, lambda: cl.sign_concentration_check(A, B, threshold=lam),
                           report_obs)

        # three triangle(2, 7) instances of like cost, so that p90 falls among them
        for d, n, lam in ((2, 7, 12), (2, 7, 15), (2, 7, None), (3, 6, 10), (3, 6, None),
                          (2, 6, 9), (2, 6, None)):
            req = conc_req(d, n, lam)
            self.slot(req.kind, [req])

        A37, B37 = cl.gen_triangle(3, 7), BlockChoice.identity(3, 7)
        self.slot("conc_overcap.d3n7", [Request(
            "conc_overcap.d3n7", "conc_overcap.d3n7",
            lambda: cl.sign_concentration_check(A37, B37), None, refusal=True)])

        def rud_req(m, space, v):
            A, coeffs = rud_subset(m, v)
            spec, tol = RUD_SPACES[space][0](), RUD_SPACES[space][1]
            return Request(f"rud_exact.m{m}.{space}.v{v}", f"rud_exact.m{m}.{space}",
                           lambda: cl.rud_average(A, coeffs, spec), rud_obs, tol)

        for m in (8, 9, 10):
            for space in RUD_SPACES:
                self.slot(f"rud_exact.m{m}.{space}", [rud_req(m, space, v) for v in range(VARIANTS)])

        def rud_mc_req(N, v):
            A = cl.gen_sum_set(N)
            return Request(f"rud_mc.sum{N}.lp4.s{RUD_MC_SAMPLES}.seed{v}", f"rud_mc.sum{N}.lp4",
                           lambda: cl.rud_average(A, space=lp4, samples=RUD_MC_SAMPLES, seed=v),
                           rud_obs)

        for N in (14, 15, 16):
            self.slot(f"rud_mc.sum{N}.lp4", [rud_mc_req(N, v) for v in range(VARIANTS)])

        def growth_req(n_list, samples, v):
            tag = f"sup_growth.n{n_list[0]}-{n_list[-1]}.s{samples}"
            return Request(f"{tag}.seed{v}", tag,
                           lambda: cl.averaged_sup_growth(2, n_list, samples, seed=v), report_obs)

        for n_list, samples in (((8, 10, 12), 500), ((10, 12, 14), 1000)):
            self.slot(f"sup_growth.n{n_list[0]}-{n_list[-1]}.s{samples}",
                      [growth_req(n_list, samples, v) for v in range(VARIANTS)])

        by_id = {r.rid: r for r in self.pool()}
        self.warmup = [by_id[i] for i in ("conc.d2n6.lam9", "rud_exact.m8.lp4.v0",
                                          "rud_exact.m8.explr2.v0", "rud_exact.m8.lorentz.v0",
                                          "rud_mc.sum14.lp4.s40.seed0",
                                          "sup_growth.n8-12.s500.seed0", "conc_overcap.d3n7")]


# ---------------------------------------------------------------------------
# cli-session: one fresh CLI process per request
# ---------------------------------------------------------------------------

SET_FILES = {
    "sum12.txt": lambda: cl.gen_sum_set(12),
    "sum20.txt": lambda: cl.gen_sum_set(20),
    "sum60.txt": lambda: cl.gen_sum_set(60),
    "tri12.txt": lambda: cl.gen_triangle(2, 12),
    "tri13.txt": lambda: cl.gen_triangle(2, 13),
    "tri14.txt": lambda: cl.gen_triangle(2, 14),
    "tri3_8.txt": lambda: cl.gen_triangle(3, 8),
    "tri3_30.txt": lambda: cl.gen_triangle(3, 30),
}


def gaussian_coeffs(n, v):
    rng = np.random.default_rng([n, v, 7])
    return ",".join(f"{x:.6g}" for x in rng.standard_normal(n))


def khintchine_coeffs(v):
    rng = np.random.default_rng([16, v, 11])
    return ",".join(f"{x:.4g}" for x in rng.uniform(0.25, 3.0, size=16))


@dataclass(frozen=True)
class CliCall:
    argv: tuple
    outputs: tuple  # files the request writes (--out / --manifest), relative to workdir


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_obs(res):
    code, stdout, files = res
    return {"exit": code, "stdout": stdout, "files": files}


def collect_outputs(workdir, outputs):
    """Hash each output file; a manifest is compared without its wall time."""
    files = {}
    for name in outputs:
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            files[name] = None
        elif name.endswith(".json"):
            with open(path, encoding="ascii") as fh:
                manifest = json.load(fh)
            manifest.pop("wall_time_s", None)
            files[name] = manifest
        else:
            files[name] = sha256_file(path)
    return files


def clear_outputs(workdir, outputs):
    for name in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))


class CliRunner:
    """Runs CLI requests as fresh processes, or in-process for the traced run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.in_process = False
        self.peak_rss_kb = 0

    def __call__(self, call):
        clear_outputs(self.workdir, call.outputs)
        if self.in_process:
            code, stdout = self._run_in_process(call.argv)
        else:
            code, stdout = self._run_child(call.argv)
        return code, stdout, collect_outputs(self.workdir, call.outputs)

    def _run_child(self, argv):
        out_path = os.path.join(self.workdir, "_stdout")
        err_path = os.path.join(self.workdir, "_stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "chaoslab.cli", *argv],
                                    cwd=self.workdir, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            return proc.returncode, fh.read()

    def _run_in_process(self, argv):
        import chaoslab.cli

        buf, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = chaoslab.cli.run(list(argv))
        finally:
            os.chdir(cwd)
        return code, buf.getvalue()


class CliSession(Workload):
    name = "cli-session"
    tail_q = 0.75
    min_rounds = 2  # 2 x 20 = 40 requests, so p75 has >= 10 beyond it
    in_process = False

    def __init__(self, workdir):
        self.runner = CliRunner(workdir)
        super().__init__(workdir)

    def build(self):
        for name, make in SET_FILES.items():
            cl.dump_index_set(make(), os.path.join(self.workdir, name))

        def req(rid, kind, argv, outputs=(), refusal=False):
            call = CliCall(tuple(argv), tuple(outputs))
            return Request(rid, kind, lambda: self.runner(call), cli_obs, refusal=refusal)

        def fixed(kind, argv, outputs=(), refusal=False):
            self.slot(kind, [req(kind, kind, argv, outputs, refusal)])

        fixed("gen-set.sum300", ["gen-set", "--kind", "sum", "--max", "300", "--out", "gs_sum.txt",
                                 "--manifest", "gs_sum.json"], ("gs_sum.txt", "gs_sum.json"))
        fixed("gen-set.tri3_20", ["gen-set", "--kind", "triangle", "--order", "3", "--max", "20",
                                  "--out", "gs_tri.txt"], ("gs_tri.txt",))

        norm_menu = (
            ("marcinkiewicz", "tri14.txt", 91, "marcinkiewicz-log:0.5"),
            ("lorentz", "tri14.txt", 91, "lorentz-log:0.5"),
            ("orlicz-exp", "tri14.txt", 91, "orlicz-exp:2"),
            ("explr-extrap", "tri12.txt", 66, "explr:2:extrapolation"),
            ("lp4", "tri12.txt", 66, "lp:4"),
            ("linf", "tri13.txt", 78, "linf"),
        )
        for tag, set_file, size, space in norm_menu:
            kind = f"norm.{tag}.{set_file[:-4]}"
            outputs = ("norm.json",) if tag == "orlicz-exp" else ()
            extra = ["--manifest", "norm.json"] if outputs else []
            self.slot(kind, [req(f"{kind}.v{v}", kind,
                                 ["norm", "--set", set_file, f"--coeffs={gaussian_coeffs(size, v)}",
                                  "--space", space, *extra], outputs)
                             for v in range(VARIANTS)])

        fixed("dimension.greedy.sum60", ["dimension", "--set", "sum60.txt", "--n-list", "6,8,10",
                                         "--strategy", "greedy-swap", "--universe", "30"])
        fixed("dimension.identity.tri3_30", ["dimension", "--set", "tri3_30.txt", "--n-list",
                                             "4,8,16,30", "--out", "dim.csv", "--manifest",
                                             "dim.json"], ("dim.csv", "dim.json"))
        fixed("density.exhaustive.sum12", ["density", "--set", "sum12.txt", "--n", "3",
                                           "--universe", "9", "--strategy", "exhaustive"])
        fixed("density.certificate.tri3_8", ["density", "--set", "tri3_8.txt", "--alpha", "1",
                                             "--beta", "2", "--n-list", "2,3", "--universe", "6",
                                             "--out", "dens.csv"], ("dens.csv",))
        fixed("clt.sum60", ["clt", "--set", "sum60.txt", "--n-list", "20,40,60", "--out",
                            "clt.csv"], ("clt.csv",))
        self.slot("moments.tri13", [req(f"moments.tri13.v{v}", "moments.tri13",
                                        ["moments", "--set", "tri13.txt",
                                         f"--coeffs={gaussian_coeffs(78, v)}", "--out", "mom.csv"], ("mom.csv",))
                                    for v in range(VARIANTS)])
        fixed("moments.beta.sum20", ["moments", "--set", "sum20.txt", "--beta", "3", "--out",
                                     "blei.csv", "--manifest", "blei.json"],
              ("blei.csv", "blei.json"))
        self.slot("khintchine", [req(f"khintchine.v{v}", "khintchine",
                                     ["khintchine", f"--coeffs={khintchine_coeffs(v)}", "--p", "3",
                                      "--out", "kh.csv"], ("kh.csv",))
                                 for v in range(VARIANTS)])
        fixed("concentration.d2n6", ["concentration", "--order", "2", "--n", "6", "--out",
                                     "conc.csv"], ("conc.csv",))
        fixed("coincidence", ["coincidence", "--orlicz", "exp:2", "--weight", "log:0.5", "--eps",
                              "0.5", "--out", "co.csv"], ("co.csv",))
        self.slot("rud.mc.sum12", [req(f"rud.mc.sum12.s100.seed{v}", "rud.mc.sum12",
                                       ["rud", "--set", "sum12.txt", "--space", "lp:4",
                                        "--mc-samples", "100", "--seed", str(v)])
                                   for v in range(VARIANTS)])
        fixed("norm_overcap.tri14", ["norm", "--set", "tri14.txt", "--space", "lp:4",
                                     "--max-enum-bits", "12"], refusal=True)

        by_id = {r.rid: r for r in self.pool()}
        self.warmup = [by_id["coincidence"], by_id["norm_overcap.tri14"]]


WORKLOADS = {w.name: w for w in (ExactLaws, SignSweeps, CliSession)}


def execute(req):
    """Run one request; returns (latency_s, observation or None, error text or None)."""
    t0 = time.perf_counter()
    try:
        raw = req.call()
    except cl.ResourceLimitError as exc:
        dt = time.perf_counter() - t0
        if req.refusal:
            return dt, refusal_obs(exc), None
        return dt, None, f"unexpected ResourceLimitError: {exc}"
    except Exception as exc:  # any other exception fails the request; the run goes on
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if req.refusal and req.observe is None:
        return dt, None, "expected a ResourceLimitError refusal"
    return dt, req.observe(raw), None

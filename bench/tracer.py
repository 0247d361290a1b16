"""Spans and counters recorded around chaoslab's public functions.

The benchmark does not change the library.  ``Tracer.install`` rebinds
each traced public function in every loaded ``chaoslab`` module that
holds it by name (``chaos.py`` imports ``distribution_exact`` and
``norm`` by name, ``cli.py`` imports the certificates, and so on), and
wraps a few methods on their classes.  ``uninstall`` restores the
originals.  Spans nest: the self time of a span is its duration minus
the durations of its child spans.  Only the main thread records spans;
calls made from pool threads pass straight through.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import defaultdict

NORM_KINDS = ("lp", "linf", "orlicz", "explr", "lorentz", "marcinkiewicz")
STRATEGIES = ("exhaustive", "greedy-swap", "identity-blocks")
CERTIFICATES = (
    "khintchine_check",
    "moment_table",
    "blei_bound_check",
    "normalized_sum_cdf",
    "rud_average",
    "sign_concentration_check",
    "averaged_sup_growth",
    "clt_criteria",
)
EXIT_CODES = (0, 1, 2, 3)

# (module, attribute, layer) of every traced module-level function
FUNCTION_SPANS = (
    ("walsh", "distribution_exact", "walsh"),
    ("walsh", "distribution_mc", "walsh"),
    ("walsh", "chaos_sum", "walsh"),
    ("walsh", "unit_coefficients", "walsh"),
    ("walsh", "randomize_signs", "walsh"),
    ("symspace", "norm", "symspace"),
    ("symspace", "luxemburg_norm", "symspace"),
    ("symspace", "fundamental_function", "symspace"),
    ("symspace", "decreasing_rearrangement", "symspace"),
    ("symspace", "coincidence_check", "symspace"),
    ("symspace", "fubini_orlicz_check", "symspace"),
    ("combdim", "max_density", "combdim"),
    ("combdim", "density_count", "combdim"),
    ("combdim", "density_certificates", "combdim"),
    ("combdim", "estimate_dimension", "combdim"),
    ("combdim", "gen_triangle", "combdim"),
    ("combdim", "gen_sum_set", "combdim"),
    ("combdim", "dump_index_set", "combdim"),
    ("combdim", "load_index_set", "combdim"),
    ("chaos", "khintchine_check", "chaos"),
    ("chaos", "moment_table", "chaos"),
    ("chaos", "blei_bound_check", "chaos"),
    ("chaos", "normalized_sum_cdf", "chaos"),
    ("chaos", "rud_average", "chaos"),
    ("chaos", "sign_concentration_check", "chaos"),
    ("chaos", "averaged_sup_growth", "chaos"),
    ("chaos", "lower_bound_check", "chaos"),
    ("chaos", "clt_criteria", "chaos"),
    ("parallel", "map_chunks", "parallel"),
    ("cli", "run", "cli"),
    ("report", "write_report", "report"),
)

# (module, class, method, layer) of every traced method
METHOD_SPANS = (
    ("walsh", "SignFunction", "__init__", "walsh"),
    ("distribution", "StepDistribution", "__init__", "distribution"),
    ("distribution", "StepDistribution", "lp_norm", "distribution"),
    ("distribution", "StepDistribution", "moment", "distribution"),
    ("distribution", "StepDistribution", "cdf", "distribution"),
)

# methods whose calls are counted at the boundary, without a span
METHOD_COUNTERS = (
    ("walsh", "IndexSet", "count_block"),
    ("symspace", "OrliczFunction", "apply"),
    ("symspace", "ConcaveWeight", "__call__"),
)

BUILD_SPANS = ("SignFunction.__init__", "chaos_sum", "unit_coefficients", "randomize_signs")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self._main = threading.get_ident()
        self._saved = []  # (owner, attribute, original) to restore
        self.layer_of = {}
        self.reset()

    def reset(self):
        self.stack = []  # [name, start, child_time]
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.total_s = defaultdict(float)  # span name -> summed duration
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.chunk_busy = 0.0
        self._busy_lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def _span(self, name, layer, fn, after=None):
        self.layer_of[name] = layer

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                self.stack.pop()
                self.self_s[name] += dur - frame[2]
                self.total_s[name] += dur
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][2] += dur
            if after is not None:
                after(self, dur, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def in_span(self, name):
        return any(frame[0] == name for frame in self.stack)

    # -- install / uninstall -------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "chaoslab" or modname.startswith("chaoslab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        import chaoslab  # noqa: F401  (loads every submodule)
        import chaoslab.cli  # noqa: F401

        mods = {m: sys.modules[f"chaoslab.{m}"] for m in
                ("walsh", "distribution", "symspace", "combdim", "chaos", "parallel", "cli", "report")}
        for modname, attr, layer in FUNCTION_SPANS:
            original = getattr(mods[modname], attr)
            inner = self._map_chunks(original) if attr == "map_chunks" else original
            self._rebind_everywhere(original, self._span(attr, layer, inner, _AFTER.get(attr)))
        for modname, cls, meth, layer in METHOD_SPANS:
            owner = getattr(mods[modname], cls)
            original = owner.__dict__[meth]
            name = f"{cls}.{meth}"
            self._saved.append((owner, meth, original))
            setattr(owner, meth, self._span(name, layer, original, _AFTER.get(name)))
        for modname, cls, meth in METHOD_COUNTERS:
            owner = getattr(mods[modname], cls)
            original = owner.__dict__[meth]
            self._saved.append((owner, meth, original))
            setattr(owner, meth, self._counter(f"{cls}.{meth}", original))

    def _map_chunks(self, original):
        parallel = sys.modules["chaoslab.parallel"]

        def mapped(fn, chunks):
            chunks = list(chunks)
            self.counts["chunks"] += len(chunks)
            self.counts["workers"] = max(self.counts["workers"], parallel.worker_count())
            return original(self.timed_chunk_fn(fn), chunks)

        return mapped

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- per-layer metrics ---------------------------------------------------

    def layer_self(self, layer):
        return sum(s for n, s in self.self_s.items() if self.layer_of.get(n) == layer)

    def metrics(self):
        """Per-layer metrics of the pass, name -> (value, unit)."""
        c, out = self.counts, {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        law_s = self.total_s["distribution_exact"]
        mc_s = self.total_s["distribution_mc"]
        put("walsh.self_s", self.layer_self("walsh"), "s")
        put("walsh.law_calls", self.calls["distribution_exact"], "count")
        put("walsh.exact_cfgs", c["exact_cfgs"], "count")
        put("walsh.exact_cfg_per_s", c["exact_cfgs"] / law_s if law_s else 0.0, "1/s")
        put("walsh.support_bits_max", c["support_bits_max"], "bits")
        put("walsh.fwht_butterflies", c["fwht_butterflies"], "count")
        put("walsh.mc_samples", c["mc_samples"], "count")
        put("walsh.mc_samples_per_s", c["mc_samples"] / mc_s if mc_s else 0.0, "1/s")
        put("walsh.build_s", sum(self.self_s[n] for n in BUILD_SPANS), "s")

        put("distribution.self_s", self.layer_self("distribution"), "s")
        put("distribution.calls", self.calls["StepDistribution.__init__"], "count")
        put("distribution.atoms_in", c["atoms_in"], "count")
        put("distribution.atoms_out", c["atoms_out"], "count")

        put("symspace.self_s", self.layer_self("symspace"), "s")
        norm_calls = 0
        for kind in NORM_KINDS:
            put(f"symspace.norm_calls.{kind}", c[f"norm_calls.{kind}"], "count")
            put(f"symspace.norm_s.{kind}", c[f"norm_s.{kind}"], "s")
            norm_calls += c[f"norm_calls.{kind}"]
        put("symspace.atoms_per_norm", c["norm_atoms"] / norm_calls if norm_calls else 0.0, "count")
        put("symspace.modular_evals", c["OrliczFunction.apply"], "count")
        put("symspace.weight_evals", c["ConcaveWeight.__call__"], "count")

        put("combdim.self_s", self.layer_self("combdim"), "s")
        for strategy in STRATEGIES:
            put(f"combdim.search_s.{strategy}", c[f"search_s.{strategy}"], "s")
        put("combdim.block_counts", c["IndexSet.count_block"], "count")
        put("combdim.exhaustive_choices", c["exhaustive_choices"], "count")
        put("combdim.gen_elements", c["gen_elements"], "count")
        put("combdim.index_io_s", self.total_s["dump_index_set"] + self.total_s["load_index_set"], "s")

        for cert in CERTIFICATES:
            put(f"chaos.self_s.{cert}", self.self_s[cert], "s")
        sweep_s = self.total_s["sign_concentration_check"] + self.total_s["averaged_sup_growth"]
        put("chaos.sweep_cells", c["sweep_cells"], "count")
        put("chaos.sweep_cells_per_s", c["sweep_cells"] / sweep_s if sweep_s else 0.0, "1/s")
        put("chaos.rud_patterns", c["rud_patterns"], "count")
        put("chaos.laws_per_pattern",
            c["rud_laws"] / c["rud_patterns"] if c["rud_patterns"] else 0.0, "count")
        put("chaos.clt_pairs", c["clt_pairs"], "count")

        wall = self.total_s["map_chunks"]
        put("parallel.workers", c["workers"], "count")
        put("parallel.map_calls", self.calls["map_chunks"], "count")
        put("parallel.chunks", c["chunks"], "count")
        put("parallel.wall_s", wall, "s")
        put("parallel.chunk_busy_s", self.chunk_busy, "s")
        put("parallel.utilization",
            self.chunk_busy / (wall * c["workers"]) if wall and c["workers"] else 0.0, "ratio")

        put("cli.run_self_s", self.self_s["run"], "s")
        for code in EXIT_CODES:
            put(f"cli.exit_codes.{code}", c[f"exit.{code}"], "count")

        put("report.write_calls", self.calls["write_report"], "count")
        put("report.write_s", self.total_s["write_report"], "s")
        put("report.bytes_written", c["bytes_written"], "count")
        return out

    def timed_chunk_fn(self, fn):
        """Wrap a map_chunks worker function so its busy time is summed."""

        def timed(chunk):
            t0 = time.perf_counter()
            try:
                return fn(chunk)
            finally:
                dt = time.perf_counter() - t0
                with self._busy_lock:
                    self.chunk_busy += dt

        return timed


# ---------------------------------------------------------------------------
# Counts taken from call arguments and results
# ---------------------------------------------------------------------------


def _after_law(tr, dur, args, kwargs, result):
    f = args[0]
    k = len(f.support)
    tr.counts["exact_cfgs"] += 1 << k
    tr.counts["fwht_butterflies"] += k * (1 << (k - 1)) if k else 0
    tr.counts["support_bits_max"] = max(tr.counts["support_bits_max"], k)
    if tr.in_span("rud_average"):
        tr.counts["rud_laws"] += 1


def _after_mc(tr, dur, args, kwargs, result):
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    tr.counts["mc_samples"] += int(samples)


def _after_dist_init(tr, dur, args, kwargs, result):
    self_, values = args[0], _arg(args, kwargs, 1, "values")
    tr.counts["atoms_in"] += len(values) if hasattr(values, "__len__") else 1
    tr.counts["atoms_out"] += len(self_.values)


def _after_norm(tr, dur, args, kwargs, result):
    dist = args[0]
    space = args[1] if len(args) > 1 else kwargs["space"]
    tr.counts[f"norm_calls.{space.kind}"] += 1
    tr.counts[f"norm_s.{space.kind}"] += dur
    tr.counts["norm_atoms"] += len(dist)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _after_max_density(tr, dur, args, kwargs, result):
    A, n, universe = args[0], int(_arg(args, kwargs, 1, "n")), int(_arg(args, kwargs, 2, "universe"))
    strategy = _arg(args, kwargs, 3, "strategy", "exhaustive")
    if n == universe:
        strategy = "identity-blocks"  # max_density short-circuits this case
    tr.counts[f"search_s.{strategy}"] += dur
    if strategy == "exhaustive":
        tr.counts["exhaustive_choices"] += math.comb(universe, n) ** A.order


def _after_estimate(tr, dur, args, kwargs, result):
    if _arg(args, kwargs, 3, "strategy", "identity-blocks") == "identity-blocks":
        # identity counts come from count_leq, not from max_density
        tr.counts["search_s.identity-blocks"] += dur


def _after_gen(tr, dur, args, kwargs, result):
    tr.counts["gen_elements"] += len(result)


def _after_rud(tr, dur, args, kwargs, result):
    m = len(args[0])
    if result.mode == "exact":
        tr.counts["rud_patterns"] += 1 << m
    else:
        tr.counts["rud_patterns"] += int(_arg(args, kwargs, 3, "samples"))


def _after_concentration(tr, dur, args, kwargs, result):
    m = int(result.inputs["intersection"])
    s = int(result.inputs["support_bits"])
    tr.counts["sweep_cells"] += (1 << m) * (1 << s)


def _after_sup_growth(tr, dur, args, kwargs, result):
    n_list = _arg(args, kwargs, 1, "n_list")
    samples = int(_arg(args, kwargs, 2, "mc_samples", 1000))
    tr.counts["sweep_cells"] += sum(samples * (1 << int(n)) for n in n_list)


def _after_clt_criteria(tr, dur, args, kwargs, result):
    # clt_sharp examines every unordered element pair of A restricted to N
    for N in _arg(args, kwargs, 1, "N_list"):
        size = args[0].count_leq(int(N))
        tr.counts["clt_pairs"] += size * (size - 1) // 2


def _after_cli_run(tr, dur, args, kwargs, result):
    tr.counts[f"exit.{result}"] += 1


def _after_write(tr, dur, args, kwargs, result):
    import os

    path = _arg(args, kwargs, 1, "path")
    tr.counts["bytes_written"] += os.path.getsize(path)


_AFTER = {
    "distribution_exact": _after_law,
    "distribution_mc": _after_mc,
    "StepDistribution.__init__": _after_dist_init,
    "norm": _after_norm,
    "max_density": _after_max_density,
    "estimate_dimension": _after_estimate,
    "gen_triangle": _after_gen,
    "gen_sum_set": _after_gen,
    "rud_average": _after_rud,
    "sign_concentration_check": _after_concentration,
    "averaged_sup_growth": _after_sup_growth,
    "clt_criteria": _after_clt_criteria,
    "run": _after_cli_run,
    "write_report": _after_write,
}

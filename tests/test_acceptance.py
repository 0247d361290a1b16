"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure output) and enforces its runtime budget.  Run via

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from chaoslab import (
    BlockChoice,
    ConcaveWeight,
    IndexSet,
    OrliczFunction,
    SpaceSpec,
    StepDistribution,
    averaged_sup_growth,
    chaos_sum,
    clt_sharp,
    clt_star,
    distribution_exact,
    estimate_dimension,
    fubini_orlicz_check,
    fundamental_function,
    gen_sum_set,
    gen_triangle,
    khintchine_check,
    luxemburg_norm,
    max_density,
    norm,
    normalized_sum_cdf,
    rud_average,
    sign_concentration_check,
    unit_coefficients,
)


def announce(num, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    state = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"ACCEPTANCE {num:02d} [{state}] {detail} ({elapsed:.1f}s / budget {budget:.0f}s)"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {line}"
    assert ok, line


def test_criterion_01_khintchine_suite():
    """Two-sided Khintchine bounds on 100 seeded coefficient vectors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = 0
    for _ in range(100):
        k = int(rng.integers(1, 13))
        a = rng.standard_normal(k)
        for p in (1, 2, 3, 4, 8, 16):
            if not khintchine_check(a, p).verdict:
                failures += 1
    announce(1, failures == 0, f"khintchine suite, failures={failures}", t0, 10.0)


def test_criterion_02_orthonormality():
    """||sum a r||_2 equals ||a||_2 within 1e-12 on random order-3 subsets."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    elements = list(gen_triangle(3, 12).tuples())
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 61))
        take = rng.choice(len(elements), size=size, replace=False)
        coeffs = {elements[i]: float(rng.standard_normal()) for i in take}
        got = distribution_exact(chaos_sum(coeffs)).lp_norm(2)
        expect = math.sqrt(sum(c * c for c in coeffs.values()))
        worst = max(worst, abs(got - expect))
    announce(2, worst <= 1e-12, f"orthonormality, worst deviation {worst:.2e}", t0, 5.0)


def test_criterion_03_norm_consistency():
    """Orlicz(power p) vs L_p, Marcinkiewicz <= Lorentz, fundamental = phi."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    weights = [ConcaveWeight.log_power(0.5), ConcaveWeight.log_power(1.0)]
    ok = True
    worst_rel = 0.0
    for i in range(100):
        m = int(rng.integers(2, 25))
        vals = rng.standard_normal(m) * float(rng.uniform(0.5, 4.0))
        w = rng.random(m)
        dist = StepDistribution(vals, w / w.sum())
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
        lux = luxemburg_norm(dist, OrliczFunction.power(p))
        lp = dist.lp_norm(p)
        worst_rel = max(worst_rel, abs(lux - lp) / lp)
        ok &= abs(lux - lp) <= 1e-9 * lp
        weight = weights[i % 2]
        marc = norm(dist, SpaceSpec.marcinkiewicz(weight))
        lor = norm(dist, SpaceSpec.lorentz(weight))
        ok &= marc <= lor + 1e-9
    grid = np.geomspace(1e-6, 1.0, 64)
    for weight in weights:
        for t in grid:
            expect = weight(t)
            ok &= abs(fundamental_function(SpaceSpec.lorentz(weight), t) - expect) <= 1e-9
            ok &= abs(fundamental_function(SpaceSpec.marcinkiewicz(weight), t) - expect) <= 1e-9
    announce(3, ok, f"norm consistency, worst Orlicz/L_p rel dev {worst_rel:.2e}", t0, 60.0)


def test_criterion_04_sum_set_combinatorics():
    """Cardinalities, incidence bound, and recurring-union emptiness."""
    t0 = time.perf_counter()
    ok = True
    for N in range(3, 61):
        brute = sum(1 for i in range(1, N) for j in range(i + 1, N) if i + j <= N)
        ok &= len(gen_sum_set(N)) == brute == (N - 1) ** 2 // 4
    for N in range(3, 101):
        ok &= clt_star(gen_sum_set(N), N).max_count <= 3 * N
    for N in range(3, 41):
        ok &= clt_sharp(gen_sum_set(N), N) == []
    contrast = clt_sharp(gen_triangle(3, 6), 6)
    ok &= len(contrast) > 0
    announce(4, ok, f"sum-set combinatorics, triangle contrast pairs={len(contrast)}", t0, 60.0)


def test_criterion_05_clt_trend():
    """Kolmogorov distance to the normal law strictly decreases, < 0.1 at N=20."""
    t0 = time.perf_counter()
    ks = {N: normalized_sum_cdf(gen_sum_set(N), N).ks_distance for N in (8, 14, 20)}
    ok = ks[8] > ks[14] > ks[20] and ks[20] < 0.1
    announce(
        5,
        ok,
        f"CLT trend, KS = {ks[8]:.4f} > {ks[14]:.4f} > {ks[20]:.4f}",
        t0,
        180.0,
    )


def test_criterion_06_dimension_estimation():
    """Growth exponents for the sum set and the full order-3 triangle."""
    t0 = time.perf_counter()
    n_list = [64, 128, 256, 512, 1024]
    sum_fit = estimate_dimension(gen_sum_set(2100), n_list, 2100).alpha_hat
    tri_fit = estimate_dimension(gen_triangle(3, 1100), n_list, 1100).alpha_hat
    count, witness = max_density(gen_triangle(2, 4), 2, 4, "exhaustive")
    ok_sum = 1.95 <= sum_fit <= 2.05
    ok_tri = 2.90 <= tri_fit <= 3.00
    ok_exh = count == 4 and witness.blocks == ((3, 4), (1, 2))
    announce(
        6,
        ok_sum and ok_tri and ok_exh,
        f"dimension fits: sum {sum_fit:.4f} in [1.95,2.05]={ok_sum}, "
        f"triangle {tri_fit:.4f} in [2.90,3.00]={ok_tri} "
        f"(log C(n,3) has local slope 3 + ~3/n, so the fit sits just above 3), "
        f"exhaustive count={count}",
        t0,
        10.0,
    )


def test_criterion_07_rud_gap_growth():
    """Deterministic / averaged sup-norm ratio grows across n for d = 2."""
    t0 = time.perf_counter()
    report = averaged_sup_growth(2, [6, 9, 12], mc_samples=1000, seed=7)
    r6 = report.quantity("ratio_n6")
    r12 = report.quantity("ratio_n12")
    s6 = report.quantity("ratio_se_n6")
    s12 = report.quantity("ratio_se_n12")
    slack = 3.0 * (1.2 * s6 + s12)
    ok = r12 >= 1.2 * r6 - slack
    announce(
        7,
        ok,
        f"RUD gap growth, R(12)/R(6) = {r12 / r6:.3f} (needs >= 1.2 within 3 SE)",
        t0,
        120.0,
    )


def test_criterion_08_concentration():
    """Bernstein concentration on every enumerable triangle instance, dn <= 20."""
    t0 = time.perf_counter()
    # every (d, n) with dn <= 20 that the double-enumeration caps admit:
    # order 1 up to 2n = 28 combined bits, higher orders up to C(n, d) <= 24
    instances = (
        [(1, n) for n in range(2, 15)]
        + [(2, n) for n in range(2, 8)]
        + [(3, n) for n in range(3, 7)]
        + [(4, n) for n in range(4, 6)]
    )
    failures = []
    for d, n in instances:
        report = sign_concentration_check(gen_triangle(d, n), BlockChoice.identity(d, n))
        if not report.verdict:
            failures.append((d, n))
    # The default lambda = sqrt(2dnm) is at least m here, so |g| <= m never
    # exceeds it.  An explicit lambda < m gives a nonzero pointwise tail,
    # which at every configuration is P(|sum of m signs| > lambda).
    explicit = [(1, 10, 4), (2, 5, 5), (2, 6, 9), (3, 5, 4), (4, 5, 2)]
    for d, n, lam in explicit:
        report = sign_concentration_check(
            gen_triangle(d, n), BlockChoice.identity(d, n), threshold=lam
        )
        m = math.comb(n, d)
        tail = sum(math.comb(m, k) for k in range(m + 1) if abs(2 * k - m) > lam) / 2**m
        if not (
            report.verdict
            and report.quantity("pointwise_tail_max") == tail
            and report.quantity("pointwise_tail_min") == tail
        ):
            failures.append((d, n, lam))
    announce(
        8,
        not failures,
        f"concentration on {len(instances)} triangle instances and "
        f"{len(explicit)} with explicit lambda < m, failures={failures}",
        t0,
        120.0,
    )


def test_criterion_09_sign_invariance():
    """Averaged norm equals deterministic norm for d=1 and in L_2."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(25):  # d = 1 in L_p, p in {1, 2, 4, inf}
        k = int(rng.integers(2, 9))
        coeffs = {(j,): float(rng.standard_normal()) for j in range(1, k + 1)}
        A = IndexSet.from_tuples(coeffs)
        for space in (SpaceSpec.lp(1), SpaceSpec.lp(2), SpaceSpec.lp(4), SpaceSpec.linf()):
            worst = max(worst, abs(rud_average(A, coeffs, space).ratio - 1.0))
    elements = list(gen_triangle(3, 9).tuples())
    for _ in range(25):  # arbitrary chaos in L_2
        take = rng.choice(len(elements), size=int(rng.integers(2, 9)), replace=False)
        coeffs = {elements[i]: float(rng.standard_normal()) for i in take}
        A = IndexSet.from_tuples(coeffs)
        worst = max(worst, abs(rud_average(A, coeffs, SpaceSpec.lp(2)).ratio - 1.0))
    announce(9, worst <= 1e-9, f"sign invariance, worst |ratio - 1| = {worst:.2e}", t0, 60.0)


def test_criterion_10_fubini_orlicz():
    """Averaged slice norm vs doubled max slice norm on random kernels."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    functions = [
        OrliczFunction.power(2),
        OrliczFunction.power(3),
        OrliczFunction.exponential(1),
    ]
    failures = 0
    for _ in range(100):
        z = rng.standard_normal((8, 8))
        for fn in functions:
            if not fubini_orlicz_check(z, fn).verdict:
                failures += 1
    announce(10, failures == 0, f"Fubini-type Orlicz bound, failures={failures}", t0, 60.0)

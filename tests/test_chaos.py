"""Inequality certificates: Khintchine, RUD averages, concentration, CLT."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    BlockChoice,
    ConcaveWeight,
    IndexSet,
    InvalidArgumentError,
    OrliczFunction,
    ResourceLimitError,
    SignFunction,
    SpaceSpec,
    VerificationParams,
    averaged_sup_growth,
    blei_bound_check,
    chaos_sum,
    clt_criteria,
    clt_sharp,
    clt_star,
    distribution_exact,
    gen_sum_set,
    gen_triangle,
    khintchine_check,
    law_of,
    lower_bound_check,
    moment_table,
    norm,
    normalized_sum_cdf,
    rademacher,
    rud_average,
    sign_concentration_check,
    unit_coefficients,
)
from chaoslab import chaos as chaos_module
from chaoslab import kernel
from chaoslab.walsh import index_terms, terms_law

TRIANGLE_2_3 = IndexSet.from_tuples([(2, 1), (3, 1), (3, 2)])


def rud_reference(A, coeffs, space, samples=None, seed=0):
    """(average, stderr) of the per-pattern loop: one SignFunction and one
    exact law per sign pattern, patterns decoded bit by bit; the exact
    average is the correctly rounded mean of the pattern norms."""
    elements = list(A.tuples())
    base = np.array([coeffs[t] for t in elements])
    m = len(elements)

    def pattern_norm(signs):
        g = SignFunction(dict(zip(elements, base * signs)))
        return norm(distribution_exact(g), space, 1e-10)

    if samples is None:
        norms = [pattern_norm(1.0 - 2.0 * ((pattern >> np.arange(m)) & 1))
                 for pattern in range(1 << m)]
        return math.fsum(norms) / (1 << m), None
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = 1.0 - 2.0 * rng.integers(0, 2, size=(samples, m)).astype(float)
    vals = np.array([pattern_norm(signs) for signs in draws])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def sign_rows(term_masks, start, stop):
    """float32 +-1 monomial values: one row per configuration in start..stop-1,
    one column per mask, -1 where the configuration meets the mask in an odd count."""
    cfg = np.arange(start, stop, dtype=np.uint64)[:, None]
    odd = np.bitwise_count(cfg & np.array(term_masks, dtype=np.uint64)) & 1
    return (1.0 - 2.0 * odd).astype(np.float32)


def concentration_reference(elements, lam):
    """(q, pointwise tail max, pointwise tail min) of the double enumeration:
    every sign pattern against every configuration in a float32 matmul."""
    m = len(elements)
    support = sorted({j for t in elements for j in t})
    S = sign_rows(kernel.masks(elements, support), 0, 1 << len(support))
    sup_count, cols = 0, np.zeros(S.shape[0], dtype=np.int64)
    for start in range(0, 1 << m, 1 << 12):
        U = sign_rows([1 << t for t in range(m)], start, min(start + (1 << 12), 1 << m))
        exceed = np.abs(U @ S.T) > lam
        sup_count += int(np.count_nonzero(exceed.any(axis=1)))
        cols += exceed.sum(axis=0)
    patterns = float(1 << m)
    return sup_count / patterns, float(cols.max()) / patterns, float(cols.min()) / patterns


def shift_code(elements):
    """Reduced basis of the shift code of ``elements`` and its 2^r codewords."""
    support = sorted({j for t in elements for j in t})
    basis = kernel.shift_code(kernel.masks(elements, support), len(support))
    words = np.zeros(1, dtype=np.uint64)
    for w in basis.values():  # every XOR combination of the basis words
        words = np.concatenate([words, words ^ np.uint64(w)])
    return basis, words


RUD_SPACES = {
    "lp4": SpaceSpec.lp(4),
    "linf": SpaceSpec.linf(),
    "orlicz3": SpaceSpec.orlicz(OrliczFunction.power(3)),
    "lorentz": SpaceSpec.lorentz(ConcaveWeight.log_power(0.5)),
}


def rud_instance(kind, seed, m=7):
    """m seeded elements of triangle(2, 6) with integer or Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    elements = list(gen_triangle(2, 6).tuples())
    chosen = [elements[i] for i in sorted(rng.choice(len(elements), size=m, replace=False))]
    if kind == "int":
        values = rng.integers(-3, 4, size=m).astype(float)
    else:
        values = rng.standard_normal(m)
    return IndexSet.from_tuples(chosen), dict(zip(chosen, values.tolist()))


class TestKhintchine:
    def test_pair_p4(self):
        report = khintchine_check([1, 1], 4)
        assert report.quantity("moment") == pytest.approx(8**0.25, rel=1e-12)
        lower = next(c for c in report.checks if c.quantity == "moment")
        upper = next(c for c in report.checks if c.quantity == "moment_upper")
        assert lower.bound == pytest.approx(1.0)
        assert upper.bound == pytest.approx(2 * math.sqrt(2))
        assert report.verdict

    @pytest.mark.parametrize("p", [1, 2, 3.5, 16])
    def test_single_coefficient(self, p):
        report = khintchine_check([1.0], p)
        assert report.quantity("moment") == pytest.approx(1.0, abs=1e-15)
        assert report.verdict

    def test_l2_exact(self):
        report = khintchine_check([1, 1, 1, 1], 2)
        assert report.quantity("moment") == pytest.approx(2.0, rel=1e-14)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            khintchine_check([1.0] * 21, 2)

    def test_invalid_p(self):
        with pytest.raises(InvalidArgumentError):
            khintchine_check([1.0], 0.5)


class TestMomentTable:
    def test_two_signs(self):
        table = moment_table(rademacher(1) + rademacher(2), [1, 2, 4])
        assert [v for _, v in table.rows] == pytest.approx([1.0, math.sqrt(2), 8**0.25])

    def test_unimodular(self):
        table = moment_table(rademacher(1) * rademacher(2), [1, 2, 4, 8])
        assert all(v == pytest.approx(1.0) for _, v in table.rows)
        assert table.theta == pytest.approx(0.0, abs=1e-12)

    def test_cap_propagates(self):
        f = chaos_sum({(j,): 1.0 for j in range(1, 30)})
        with pytest.raises(ResourceLimitError):
            moment_table(f, [1, 2])

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        elements = list(gen_triangle(2, 8).tuples())
        ps = [1, 2, 3, 4, 8, 16]
        for _ in range(50):
            take = rng.choice(len(elements), size=int(rng.integers(2, 9)), replace=False)
            coeffs = {elements[i]: float(rng.standard_normal()) for i in take}
            f = chaos_sum(coeffs)
            table = moment_table(f, ps)
            vals = [v for _, v in table.rows]
            sup = distribution_exact(f).max_abs()
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= sup + 1e-12


class TestBleiBound:
    def test_single_monomial(self):
        A = IndexSet.from_tuples([(2, 1)])
        report = blei_bound_check(A, beta=2.0, p_list=[1, 2, 4, 8])
        for c in report.checks:
            if c.quantity.startswith("ratio_p"):
                assert c.value <= 1.0 + 1e-12
        assert report.verdict

    def test_triangle_second_moment_ratio(self):
        report = blei_bound_check(gen_triangle(2, 6), beta=2.0, p_list=[2, 4, 8, 16])
        # at p = 2 orthonormality fixes the ratio exactly
        assert report.quantity("ratio_p2") == pytest.approx(0.5, rel=1e-12)

    def test_order1_at_p2(self):
        A = IndexSet.from_tuples([(1,), (2,), (3,)])
        report = blei_bound_check(A, beta=1.0, p_list=[2])
        assert report.quantity("ratio_p2") == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert report.quantity("ratio_p2") <= 1.0

    def test_coefficients_over_the_set(self):
        A = gen_triangle(2, 5)
        with pytest.raises(InvalidArgumentError):
            blei_bound_check(A, {(9, 8): 1.0})  # a key outside A, and every key of A missing
        with pytest.raises(InvalidArgumentError):
            blei_bound_check(A, {**unit_coefficients(A), (9, 8): 1.0})


class TestRudAverage:
    def test_order1_l2(self):
        A = IndexSet.from_tuples([(1,), (2,), (3,)])
        res = rud_average(A, None, SpaceSpec.lp(2))
        assert res.average == pytest.approx(math.sqrt(3), rel=1e-12)
        assert res.ratio == pytest.approx(1.0, abs=1e-9)

    def test_triangle_sup(self):
        res = rud_average(TRIANGLE_2_3, None, SpaceSpec.linf())
        assert res.average == pytest.approx(3.0, abs=1e-12)
        assert res.deterministic_norm == 3.0
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_l2_sign_invariance_random(self):
        rng = np.random.default_rng(7)
        elements = list(gen_triangle(2, 7).tuples())
        for _ in range(5):
            take = rng.choice(len(elements), size=6, replace=False)
            coeffs = {elements[i]: float(rng.standard_normal()) for i in take}
            res = rud_average(
                IndexSet.from_tuples(coeffs), coeffs, SpaceSpec.lp(2)
            )
            assert res.ratio == pytest.approx(1.0, abs=1e-9)

    def test_mc_mode_reproducible(self):
        a = rud_average(TRIANGLE_2_3, None, SpaceSpec.lp(4), samples=200, seed=5)
        b = rud_average(TRIANGLE_2_3, None, SpaceSpec.lp(4), samples=200, seed=5)
        assert a.average == b.average
        assert a.stderr == b.stderr
        assert a.mode == "mc"

    @pytest.mark.parametrize("space", sorted(RUD_SPACES))
    @pytest.mark.parametrize("kind", ["int", "gauss"])
    def test_matches_per_pattern_loop(self, kind, space):
        for seed in (1, 2):
            A, coeffs = rud_instance(kind, seed)
            spec = RUD_SPACES[space]
            exact = rud_average(A, coeffs, spec)
            assert (exact.average, exact.stderr) == rud_reference(A, coeffs, spec)
            mc = rud_average(A, coeffs, spec, samples=25, seed=seed)
            assert (mc.average, mc.stderr) == rud_reference(A, coeffs, spec, 25, seed)

    def test_flip_of_merged_atoms_is_exact(self):
        # the decimal coefficients round one value of the law several ways within
        # MERGE_TOL; -u must merge them to the negated atom, or L_1 reads u, -u apart
        coeffs = {(2, 1): 0.1, (4, 1): 0.3, (4, 3): 0.2, (5, 1): 0.3, (5, 2): 0.3, (5, 4): 0.2}
        A = IndexSet.from_tuples(coeffs)
        c, keep, masks, k = index_terms(A, coeffs)
        law, flipped = terms_law(masks, c[keep], k), terms_law(masks, -c[keep], k)
        assert flipped.values.tolist() == (-law.values[::-1]).tolist()
        assert flipped.weights.tolist() == law.weights[::-1].tolist()
        for spec in (SpaceSpec.lp(1), *RUD_SPACES.values()):
            assert norm(flipped, spec) == norm(law, spec)
            assert rud_average(A, coeffs, spec).average == rud_reference(A, coeffs, spec)[0]

    def test_zero_coefficient_keeps_support(self):
        # (9, 8) has coefficient 0 and is the only element touching 8 and 9
        A = IndexSet.from_tuples([(2, 1), (3, 1), (3, 2), (9, 8)])
        for coeffs in (
            {(2, 1): 1.0, (3, 1): -2.0, (3, 2): 0.5, (9, 8): 0.0},
            {(2, 1): 1.0, (3, 1): -2.0, (3, 2): 1.0, (9, 8): 0.0},
        ):
            for spec in RUD_SPACES.values():
                exact = rud_average(A, coeffs, spec)
                assert exact.average == rud_reference(A, coeffs, spec)[0]
                # only the support {1, 2, 3} of the nonzero terms counts against the cap
                assert rud_average(A, coeffs, spec, bits_cap=3) == exact
                mc = rud_average(A, coeffs, spec, samples=20, seed=3)
                assert (mc.average, mc.stderr) == rud_reference(A, coeffs, spec, 20, 3)

    @pytest.mark.parametrize("m", [12, 14, 18])
    def test_unit_l2_average_is_exact(self, m):
        # every pattern of unit coefficients has L2 norm sqrt(m), so the mean does too
        A = IndexSet.from_tuples(list(gen_triangle(2, 7).tuples())[:m])
        res = rud_average(A, None, SpaceSpec.lp(2))
        assert abs(res.average - math.sqrt(m)) <= 2 * math.ulp(math.sqrt(m))
        assert abs(res.ratio - 1) <= 4 * 2**-52

    def test_one_law_per_coset(self, monkeypatch):
        rows = []  # laws asked of each kernel.law call
        law = kernel.law

        def counting_law(term_masks, coeffs, k):
            rows.append(len(np.atleast_2d(coeffs)))
            return law(term_masks, coeffs, k)

        monkeypatch.setattr(kernel, "law", counting_law)
        # unit triangle(2, 6): m = 15 terms, shift code of rank 5 (K6 is connected)
        # and no flip, so the all-ones word raises the rank of the code to 6
        rud_average(gen_triangle(2, 6), None, SpaceSpec.lp(2))
        assert sum(rows) == 2**9  # one per coset; coset 0 gives the deterministic norm
        assert len(rows) == 1  # every coset law comes from one batched call
        # sum set N = 8: m = 12 terms, shift code of rank 7 with a flip in it already
        rows.clear()
        rud_average(gen_sum_set(8), None, SpaceSpec.lp(2))
        assert sum(rows) == 2 ** (12 - 7)
        # zero-coefficient terms join the code: |keep| = 3 edges of a path, rank 3
        rows.clear()
        A = IndexSet.from_tuples([(2, 1), (3, 2), (4, 3), (4, 1), (6, 5)])
        coeffs = {(2, 1): 1.0, (3, 2): 2.0, (4, 3): -1.0, (4, 1): 0.0, (6, 5): 0.0}
        rud_average(A, coeffs, SpaceSpec.lp(2))
        assert sum(rows) == 2 ** (3 - 3)

    @pytest.mark.parametrize("N", [14, 16, 20])  # N = 20 has rank 19: the sliced route
    def test_mc_matches_per_pattern_terms_law(self, N):
        A, space = gen_sum_set(N), SpaceSpec.lp(4)
        c, keep, masks, k = index_terms(A)
        for seed in range(4):
            bits = kernel.random_bits(seed, 0, 40, c.size)[keep].T
            vals = np.array([norm(terms_law(masks, row, k), space, 1e-10)
                             for row in np.where(bits, -c[keep], c[keep])])
            det = norm(terms_law(masks, c[keep], k), space, 1e-10)
            avg = float(vals.mean())
            expect = (avg, det, det / avg, float(vals.std(ddof=1) / math.sqrt(40)))
            res = rud_average(A, space=space, samples=40, seed=seed)
            got = (res.average, res.deterministic_norm, res.ratio, res.stderr)
            assert list(map(float.hex, got)) == list(map(float.hex, expect))

    def test_mc_memory_follows_the_block_cap(self):
        # 501 pattern laws of 2^15 reduced configurations (sum set N = 16, rank
        # 15, int8) are transformed a block of at most 2^LAW_BLOCK_BITS entries
        # at a time: the block and its transposed copy take at most 2 x 4 bytes
        # per entry in the widest integer dtype, and 2^20 bytes cover the rest
        # (one 2^15-entry intp histogram index, the 501 x 56 pattern matrix)
        A = gen_sum_set(16)
        tracemalloc.start()
        try:
            rud_average(A, space=SpaceSpec.lp(4), samples=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4 * (1 << kernel.LAW_BLOCK_BITS) + (1 << 20)

    @pytest.mark.parametrize("kind", ["int", "gauss"])
    def test_deterministic_norm_is_the_law_of_the_set(self, kind):
        A, coeffs = rud_instance(kind, 3)
        for spec in RUD_SPACES.values():
            det = norm(law_of(A, coeffs), spec, 1e-10)
            assert rud_average(A, coeffs, spec).deterministic_norm == det
            assert rud_average(A, coeffs, spec, samples=5, seed=2).deterministic_norm == det

    def test_exact_cap(self):
        A = gen_triangle(2, 8)  # 28 elements
        with pytest.raises(ResourceLimitError):
            rud_average(A, None, SpaceSpec.lp(2))

    def test_missing_coefficients(self):
        with pytest.raises(InvalidArgumentError):
            rud_average(TRIANGLE_2_3, {(2, 1): 1.0}, SpaceSpec.lp(2))
        # a key outside A' would enter the deterministic norm but not the average
        A = IndexSet.from_tuples([(2, 1), (3, 1)])
        with pytest.raises(InvalidArgumentError):
            rud_average(A, {(2, 1): 1.0, (3, 1): 2.0, (5, 4): 1.5}, SpaceSpec.lp(2))


class TestSignConcentration:
    def test_triangle_2_4(self):
        report = sign_concentration_check(gen_triangle(2, 4), BlockChoice.identity(2, 4))
        assert report.quantity("delta") == pytest.approx(math.log(6) / math.log(4), rel=1e-12)
        assert report.quantity("sup_exceedance_fraction") == 0.0
        assert report.verdict

    def test_zero_threshold(self):
        # odd number of unit terms: the sum never vanishes
        report = sign_concentration_check(
            gen_triangle(2, 3), BlockChoice.identity(2, 3), threshold=0.0
        )
        assert report.quantity("pointwise_tail_max") == 1.0
        assert report.verdict  # bound is 2

    def test_two_singletons_lambda1(self):
        A = IndexSet.from_tuples([(1,), (2,)])
        report = sign_concentration_check(A, BlockChoice.identity(1, 2), threshold=1.0)
        assert report.quantity("pointwise_tail_max") == pytest.approx(0.5)
        bound = next(c for c in report.checks if c.quantity == "pointwise_tail_max").bound
        assert bound == pytest.approx(2 * math.exp(-0.25), rel=1e-12)
        assert report.verdict

    def test_pointwise_fraction_is_config_independent(self):
        report = sign_concentration_check(gen_triangle(2, 4), BlockChoice.identity(2, 4), threshold=3.0)
        assert report.quantity("pointwise_tail_max") == report.quantity("pointwise_tail_min")

    def test_binomial_tail_oracle(self):
        # for any fixed configuration the tail is a symmetric binomial tail
        A = gen_triangle(2, 4)
        m = 6
        lam = 3.0
        exact = sum(math.comb(m, k) for k in range(m + 1) if abs(2 * k - m) > lam) / 2**m
        report = sign_concentration_check(A, BlockChoice.identity(2, 4), threshold=lam)
        assert report.quantity("pointwise_tail_max") == pytest.approx(exact, abs=1e-15)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            sign_concentration_check(gen_triangle(2, 10), BlockChoice.identity(2, 10))

    def test_few_terms_over_a_wide_support(self):
        # two disjoint 13-tuples: m + s = 2 + 26 is within the cap, and the coset
        # table holds 2^(m - rank) entries however wide the support; the two signs
        # are independent, so |u_1 r_1 + u_2 r_2| reaches only 2 < lambda
        A = IndexSet.from_tuples([range(26, 13, -1), range(13, 0, -1)])
        report = sign_concentration_check(A, BlockChoice.identity(13, 26))
        assert (report.inputs["intersection"], report.inputs["support_bits"]) == (2, 26)
        assert report.verdict
        assert report.quantity("sup_exceedance_fraction") == 0.0
        assert report.quantity("pointwise_tail_max") == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_double_enumeration(self, d):
        # triangle(2, 7) has rank 6 < s = 7; every order-3 code holds the all-ones word
        rng = np.random.default_rng(d)
        elements = list(gen_triangle(d, 7).tuples())
        B = BlockChoice.identity(d, 7)
        for m in (4, 9, 13, 16):
            chosen = [elements[i] for i in sorted(rng.choice(len(elements), size=m, replace=False))]
            A = IndexSet.from_tuples(chosen)
            lam = float(rng.uniform(0, m))
            report = sign_concentration_check(A, B, threshold=lam)
            got = tuple(
                report.quantity(q)
                for q in ("sup_exceedance_fraction", "pointwise_tail_max", "pointwise_tail_min")
            )
            assert got == concentration_reference(list(A.block_elements(B).tuples()), lam)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(3, 7), st.data())
    def test_matches_double_enumeration_at_boundaries(self, d, n, data):
        # lambda = m - 2w is a value the sum takes, where > and >= part ways
        elements = list(gen_triangle(d, n).tuples())
        picks = data.draw(st.lists(st.sampled_from(range(len(elements))), min_size=1,
                                   max_size=12, unique=True))
        A = IndexSet.from_tuples([elements[i] for i in sorted(picks)])
        B = BlockChoice.identity(d, n)
        m = len(picks)
        lam = float(m - 2 * data.draw(st.integers(0, m)))
        report = sign_concentration_check(A, B, threshold=lam)
        got = tuple(
            report.quantity(q)
            for q in ("sup_exceedance_fraction", "pointwise_tail_max", "pointwise_tail_min")
        )
        assert got == concentration_reference(list(A.block_elements(B).tuples()), lam)

    def test_triangle_2_7_counts_both_ends_of_a_coset(self):
        # 809,216 patterns exceed lambda = 12, half of them only through the
        # heaviest word of their coset: the least weights of H alone count
        # 404,608, those of H + <1...1> all of them
        A, B = gen_triangle(2, 7), BlockChoice.identity(2, 7)
        report = sign_concentration_check(A, B, threshold=12.0)
        assert report.quantity("sup_exceedance_fraction") == 809_216 / 2**21
        elements = list(A.block_elements(B).tuples())
        masks = kernel.masks(elements, range(1, 8))
        assert chaos_module._exceeding_patterns(kernel.flip_code(masks, 7), 21, 12.0) == 809_216
        # 21 - 2w > 12 for w <= 4
        basis, _ = shift_code(elements)
        least_side = np.count_nonzero(kernel.coset_leaders(basis, 21) < 5) << len(basis)
        assert least_side == 404_608

    @pytest.mark.parametrize("lam", [4.0, 10.0, None])
    def test_all_ones_in_code(self, lam):
        A, B = gen_triangle(3, 6), BlockChoice.identity(3, 6)
        elements = list(A.block_elements(B).tuples())
        basis, words = shift_code(elements)
        assert (1 << len(elements)) - 1 in words.tolist()
        report = sign_concentration_check(A, B, threshold=lam)
        lam = report.inputs["threshold"]
        assert (
            report.quantity("sup_exceedance_fraction"),
            report.quantity("pointwise_tail_max"),
            report.quantity("pointwise_tail_min"),
        ) == concentration_reference(elements, lam)

    def test_threshold_compared_exactly(self):
        # every sum of 3 unit terms has |value| >= 1 > lambda
        A, B = gen_triangle(2, 3), BlockChoice.identity(2, 3)
        report = sign_concentration_check(A, B, threshold=1.0 - 1e-9)
        assert report.quantity("pointwise_tail_max") == 1.0
        assert report.quantity("sup_exceedance_fraction") == 1.0

    @pytest.mark.parametrize(
        "elements, lam",
        [
            ([(2 * i, 2 * i - 1) for i in range(1, 14)], 7.0),  # m = 13, s = 26
            ([(j,) for j in range(1, 23)], 15.5),  # triangle(1, 22): m = s = 22
        ],
        ids=["disjoint-pairs", "triangle-1-22"],
    )
    def test_full_rank_sweep(self, elements, lam):
        # H is all of F_2^m: every coset holds the zero word, of sum m > lambda.
        # sign_concentration_check still refuses these by its support terms
        m = len(elements)
        support = sorted({j for t in elements for j in t})
        basis = kernel.flip_code(kernel.masks(elements, support), len(support))
        assert len(basis) == m
        tracemalloc.start()
        try:
            count = chaos_module._exceeding_patterns(basis, m, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2**m
        assert peak < 16 * 2**20

    def test_worker_count_invariance(self, monkeypatch):
        A, B = gen_triangle(2, 5), BlockChoice.identity(2, 5)
        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        seq = sign_concentration_check(A, B)
        monkeypatch.setenv("CHAOSLAB_THREADS", "3")
        par = sign_concentration_check(A, B)
        assert [(c.quantity, c.value) for c in seq.checks] == [
            (c.quantity, c.value) for c in par.checks
        ]

    def test_order_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            sign_concentration_check(gen_triangle(2, 4), BlockChoice.identity(3, 4))


@st.composite
def shifted_pattern(draw):
    """Seeded terms of triangle(3, 6), coefficients, a pattern and a codeword."""
    elements = list(gen_triangle(3, 6).tuples())
    idx = draw(st.lists(st.integers(0, len(elements) - 1), min_size=1, max_size=10, unique=True))
    chosen = [elements[i] for i in sorted(idx)]
    coeff = st.integers(-5, 5).filter(bool).map(float) if draw(st.booleans()) else (
        st.floats(-4, 4, allow_nan=False).filter(bool)
    )
    a = np.array(draw(st.lists(coeff, min_size=len(chosen), max_size=len(chosen))))
    pattern = draw(st.integers(0, (1 << len(chosen)) - 1))
    word = draw(st.integers(0, (1 << len(chosen)) - 1))
    return chosen, a, pattern, word


class TestShiftCode:
    @settings(max_examples=60, deadline=None)
    @given(shifted_pattern())
    def test_law_constant_on_cosets(self, case):
        elements, a, pattern, word = case
        support = sorted({j for t in elements for j in t})
        masks, k = kernel.masks(elements, support), len(support)
        _, code = shift_code(elements)
        h = int(code[word % code.size])
        bits = (pattern >> np.arange(len(elements))) & 1
        shifted = (pattern ^ h) >> np.arange(len(elements)) & 1
        base = kernel.law(masks, np.where(bits, -a, a), k)
        other = kernel.law(masks, np.where(shifted, -a, a), k)
        assert np.array_equal(base[0], other[0]) and np.array_equal(base[1], other[1])

    def test_codewords_are_configuration_signs(self):
        elements = list(gen_triangle(2, 5).tuples())
        basis, words = shift_code(elements)
        assert len(basis) == 4  # a connected graph on 5 vertices
        S = sign_rows(kernel.masks(elements, range(1, 6)), 0, 1 << 5)
        chi = {sum(1 << t for t in np.flatnonzero(row < 0)) for row in S}
        assert chi == set(words.tolist())
        for p, b in basis.items():
            assert (b >> p) & 1 and all(not (b >> q) & 1 for q in basis if q != p)

    # d = 1 and 3 have a flip, d = 2 and 4 none; slice bits 2 cut every
    # reduced configuration into several slices
    @pytest.mark.parametrize("d, n, slice_bits", [(1, 6, 16), (2, 6, 16), (3, 7, 16), (4, 7, 16),
                                                  (2, 12, 16), (2, 8, 2), (3, 8, 2)])
    def test_max_abs_is_the_max_over_configurations(self, d, n, slice_bits, monkeypatch):
        monkeypatch.setattr(kernel, "SLICE_BITS", slice_bits)
        elements = list(gen_triangle(d, n).tuples())
        m = len(elements)
        masks = kernel.masks(elements, range(1, n + 1))
        rng = np.random.default_rng(d * 100 + n)
        signs = np.vstack([np.ones(m), -np.ones(m), 1 - 2 * rng.integers(0, 2, (60, m))])
        sums = signs.astype(np.float32) @ sign_rows(masks, 0, 1 << n).T
        expect = np.abs(sums).max(axis=1)
        got = kernel.max_abs(masks, signs.astype(np.int64), n)
        assert got.dtype == np.int64 and np.array_equal(got, expect)

    def test_max_abs_refuses_floats(self):
        with pytest.raises(InvalidArgumentError):
            kernel.max_abs([1, 2, 3], [[0.5, 1.0, -1.0]], 2)


class TestAveragedSupGrowth:
    def test_deterministic_sup(self):
        report = averaged_sup_growth(2, [4, 6], mc_samples=50, seed=1)
        assert report.quantity("deterministic_sup_n6") == 15.0

    def test_order2_growth(self):
        report = averaged_sup_growth(2, [6, 9, 12], mc_samples=400, seed=7)
        r6 = report.quantity("ratio_n6")
        r12 = report.quantity("ratio_n12")
        assert r12 / r6 >= 1.2
        assert report.verdict

    def test_order1_flat(self):
        report = averaged_sup_growth(1, [4, 6, 8], mc_samples=200, seed=11)
        for n in (4, 6, 8):
            # the sup of a +-1-coefficient Rademacher sum is always the term count
            assert 1.0 <= report.quantity(f"ratio_n{n}") <= 2.0
            assert report.quantity(f"ratio_n{n}") == pytest.approx(1.0, abs=1e-12)

    def test_bad_n_list(self):
        with pytest.raises(InvalidArgumentError):
            averaged_sup_growth(2, [6])

    def test_configuration_cap(self):
        with pytest.raises(ResourceLimitError):
            averaged_sup_growth(2, [6, 24], mc_samples=10)

    def test_bounded_memory(self):
        tracemalloc.start()
        try:
            report = averaged_sup_growth(2, [12, 16], mc_samples=50, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.quantity("deterministic_sup_n16") == 120.0
        assert peak < 16 * 2**20

    def test_blocks_match_one_matrix(self, monkeypatch):
        # small blocks and slices: each call spans several blocks of patterns,
        # and each pattern several slices; sups equal the one-matrix sweep
        samples, seed = 40, 9
        monkeypatch.setattr(kernel, "LAW_BLOCK_BITS", 6)
        monkeypatch.setattr(kernel, "SLICE_BITS", 3)
        for d, n_list in ((3, [8, 11]), (2, [5, 12]), (1, [4, 9])):  # m = 56, 165; 10, 66
            report = averaged_sup_growth(d, n_list, mc_samples=samples, seed=seed)
            for idx, n in enumerate(n_list):
                elements = list(gen_triangle(d, n).tuples())
                S = sign_rows(kernel.masks(elements, list(range(1, n + 1))), 0, 1 << n)
                rng = np.random.Generator(np.random.Philox(key=seed, counter=idx << 96))
                U = (1.0 - 2.0 * rng.integers(0, 2, size=(samples, len(elements)))).astype(np.float32)
                sups = np.abs(U @ S.T).max(axis=1)
                assert report.quantity(f"deterministic_sup_n{n}") == float(np.abs(S.sum(axis=1)).max())
                assert report.quantity(f"averaged_sup_n{n}") == float(sups.mean())


class TestLowerBound:
    def test_l2(self):
        report = lower_bound_check(gen_triangle(2, 4), BlockChoice.identity(2, 4), SpaceSpec.lp(2))
        assert report.quantity("chaos_norm") == pytest.approx(math.sqrt(6), rel=1e-12)
        assert report.quantity("indicator_bound") == pytest.approx(6 * 2.0**-4)
        assert report.verdict

    def test_linf_equality(self):
        report = lower_bound_check(gen_triangle(2, 4), BlockChoice.identity(2, 4), SpaceSpec.linf())
        assert report.quantity("chaos_norm") == 6.0
        assert report.quantity("indicator_bound") == 6.0
        assert report.verdict

    def test_l1(self):
        report = lower_bound_check(gen_triangle(2, 4), BlockChoice.identity(2, 4), SpaceSpec.lp(1))
        assert report.quantity("indicator_bound") == pytest.approx(6 * 2.0**-8)
        assert report.verdict


class TestCltStar:
    def test_sum_set_n6(self):
        star = clt_star(gen_sum_set(6), 6)
        assert star.counts[2] == 3  # elements through k=3: (3,2,1), (4,3,1), (5,3,2)
        assert star.counts.tolist() == [4, 3, 3, 3, 3, 2]

    def test_entries_beyond_range(self):
        star = clt_star(gen_sum_set(6), 10)
        assert star.counts[6:].tolist() == [0, 0, 0, 0]

    def test_n100_ratio(self):
        star = clt_star(gen_sum_set(100), 100)
        assert star.max_count <= 300
        assert star.ratio < 0.05


def sharp_reference(A, N):
    """Pair loop over Python bitmasks, grouping disjoint pairs by entry union."""
    elems = [tuple(int(v) for v in row) for row in A.restrict(N).to_array()]
    masks = [sum(1 << v for v in t) for t in elems]
    groups = {}
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(elems)):
            if not mi & masks[j]:
                groups.setdefault(mi | masks[j], []).append((i, j))
    out = []
    for pairs in groups.values():
        if len(pairs) >= 2:
            for i, j in pairs:
                out += [(elems[i], elems[j]), (elems[j], elems[i])]
    return sorted(out)


@st.composite
def sharp_instances(draw):
    # subsets of the d-sets of a palette of 2d to 2d + 2 entries up to 130, so unions
    # recur often and the entry masks span one to three 64-bit words
    d = draw(st.integers(2, 4))
    palette = draw(st.lists(st.integers(1, 130), min_size=2 * d, max_size=2 * d + 2,
                            unique=True))
    d_sets = list(itertools.combinations(sorted(palette, reverse=True), d))
    keep = draw(st.lists(st.booleans(), min_size=len(d_sets), max_size=len(d_sets)))
    A = IndexSet.from_tuples([t for t, k in zip(d_sets, keep) if k] or d_sets[:1])
    # N = min(palette) - 1 leaves the restriction empty
    N = draw(st.just(130) | st.just(min(palette) - 1) | st.sampled_from(palette))
    return A, N


class TestCltSharp:
    @settings(max_examples=200, deadline=None)
    @given(sharp_instances())
    def test_matches_pair_loop(self, instance):
        A, N = instance
        pairs = clt_sharp(A, N)
        assert [(tuple(u), tuple(v)) for u, v in pairs] == sharp_reference(A, N)

    @pytest.mark.parametrize("A,N", [(gen_triangle(3, 12), 12), (gen_triangle(4, 11), 11),
                                     (gen_triangle(2, 20), 20), (gen_sum_set(60), 60)])
    def test_matches_pair_loop_on_stock_sets(self, A, N):
        pairs = clt_sharp(A, N)
        assert [(tuple(u), tuple(v)) for u, v in pairs] == sharp_reference(A, N)

    def test_empty_restriction(self):
        assert clt_sharp(IndexSet.from_tuples([(90, 70, 5), (80, 60, 3)]), 50) == []

    def test_bounded_memory(self):
        # disjoint pairs are kept as two int32 indices and one union word, and the
        # pair walk holds at most 2^18 cells of the upper triangle at a time
        A = gen_sum_set(60)
        tracemalloc.start()
        try:
            clt_sharp(A, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_bounded_memory_past_the_pair_list(self):
        # 2970 elements: their 4.04M disjoint pairs held at once take over 200
        # MiB; bucketed by the least entry of their union, 53 buckets of at
        # most 108 x 2862 pairs are grouped one at a time
        A = gen_sum_set(110)
        tracemalloc.start()
        try:
            pairs = clt_sharp(A, 110)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs == []
        assert peak < 40 * 2**20

    def test_sum_set_empty(self):
        assert clt_sharp(gen_sum_set(10), 10) == []

    def test_triangle_witness(self):
        pairs = clt_sharp(gen_triangle(3, 6), 6)
        assert pairs, "full triangle admits recurring disjoint unions"
        assert ((3, 2, 1), (6, 5, 4)) in [(tuple(u), tuple(v)) for u, v in pairs]

    def test_singleton(self):
        assert clt_sharp(IndexSet.from_tuples([(3, 2, 1)]), 6) == []

    def test_needs_order2(self):
        with pytest.raises(InvalidArgumentError):
            clt_sharp(IndexSet.from_tuples([(1,), (2,)]), 5)

    def test_pair_budget(self):
        with pytest.raises(ResourceLimitError):
            clt_sharp(gen_sum_set(100), 100, budget=10)

    @pytest.mark.parametrize(
        "A,N",
        [
            (gen_triangle(3, 6), 6),
            (gen_triangle(2, 6), 6),
            (gen_sum_set(12), 12),
        ],
    )
    def test_matches_literal_definition(self, A, N):
        # quadruple-loop oracle straight from the defining conditions
        elems = [tuple(t) for t in A.restrict(N).tuples()]
        oracle = []
        for u in elems:
            for v in elems:
                su, sv = set(u), set(v)
                if su & sv:
                    continue
                union = su | sv
                if any(
                    set(u1) | set(v1) == union and not set(u1) & set(v1)
                    for u1 in elems
                    if u1 not in (u, v)
                    for v1 in elems
                ):
                    oracle.append((u, v))
        mine = [(tuple(u), tuple(v)) for u, v in clt_sharp(A, N)]
        assert sorted(mine) == sorted(oracle)

    def test_pairs_satisfy_conditions(self):
        # every reported pair is disjoint and its union recurs via a third element
        pairs = clt_sharp(gen_triangle(3, 7), 7)
        elements = set(gen_triangle(3, 7).tuples())
        for u, v in pairs[:50]:
            su, sv = set(u), set(v)
            assert not (su & sv)
            union = tuple(sorted(su | sv))
            others = [
                w
                for w in elements
                if w not in (u, v)
                and set(w) <= set(union)
                and any(set(w).isdisjoint(x) and tuple(sorted(set(w) | set(x))) == union for x in elements)
            ]
            assert others


class TestCltCriteria:
    def test_sum_set_passes(self):
        report = clt_criteria(gen_sum_set(40), [10, 20, 40])
        for N in (10, 20, 40):
            assert report.quantity(f"sharp_ratio_N{N}") == 0.0
        stars = [report.quantity(f"star_ratio_N{N}") for N in (10, 20, 40)]
        assert stars == pytest.approx([0.4, 0.2, 0.1])
        assert report.verdict

    def test_triangle_fails(self):
        report = clt_criteria(gen_triangle(3, 40), [6, 8, 10])
        assert report.quantity("sharp_ratio_N10") > 0
        assert not report.verdict

    def test_singleton_terminal(self):
        A = IndexSet.from_tuples([(3, 2, 1)])
        report = clt_criteria(A, [3])
        assert report.quantity("star_ratio_N3") == 1.0
        assert report.quantity("sharp_ratio_N3") == 0.0

    def test_requires_increasing(self):
        with pytest.raises(InvalidArgumentError):
            clt_criteria(gen_sum_set(20), [10, 10])

    def test_check_sequence(self):
        report = clt_criteria(gen_sum_set(40), [10, 20, 40])
        rows = [(c.quantity, c.comparison) for c in report.checks]
        assert rows == [
            ("card_N10", "info"), ("star_ratio_N10", "info"), ("sharp_ratio_N10", "info"),
            ("card_N20", "info"), ("star_ratio_N20", "info"), ("sharp_ratio_N20", "info"),
            ("card_N40", "info"), ("star_ratio_N40", "info"), ("sharp_ratio_N40", "info"),
            ("star_nonincreasing_N20", "<="), ("sharp_nonincreasing_N20", "<="),
            ("star_nonincreasing_N40", "<="), ("sharp_nonincreasing_N40", "<="),
            ("star_ratio_final", "<="), ("sharp_ratio_final", "<="),
        ]
        bounds = {c.quantity: c.bound for c in report.checks}
        assert bounds["star_nonincreasing_N40"] == report.quantity("star_ratio_N20")
        assert bounds["sharp_nonincreasing_N20"] == report.quantity("sharp_ratio_N10")


class TestNormalizedSum:
    def test_l2_normalization(self):
        for N in (6, 10, 14):
            ns = normalized_sum_cdf(gen_sum_set(N), N)
            assert abs(ns.l2_norm - 1.0) < 1e-12

    def test_small_support_and_symmetry(self):
        ns = normalized_sum_cdf(gen_sum_set(6), 6)
        assert len(ns.distribution) <= 2**6
        vals, wts = ns.distribution.values, ns.distribution.weights
        assert np.allclose(vals, -vals[::-1], atol=1e-12)
        assert np.allclose(wts, wts[::-1], atol=1e-15)

    def test_symmetry_cdf_identity(self):
        ns = normalized_sum_cdf(gen_sum_set(8), 8)
        F = ns.distribution.cdf()
        below = np.concatenate([[0.0], F[:-1]])  # P(X < x) at each atom
        # F(-x^-) = 1 - F(x) exactly on atoms
        assert np.allclose(below[::-1], 1.0 - F, atol=1e-15)

    @pytest.mark.parametrize("N", [14, 18, 22])
    def test_atoms_exactly_antisymmetric(self, N):
        # the law is symmetric under r -> -r, so the atoms are too, to the bit
        vals = normalized_sum_cdf(gen_sum_set(N), N).distribution.values
        assert np.array_equal(vals, -vals[::-1])

    def test_ks_improves(self):
        ks8 = normalized_sum_cdf(gen_sum_set(8), 8).ks_distance
        ks14 = normalized_sum_cdf(gen_sum_set(14), 14).ks_distance
        assert ks14 < ks8


class TestVerificationParams:
    def test_margin(self):
        p = VerificationParams(d=3, alpha=2.0, beta=2.0, b=1.0)
        assert p.hypothesis_margin == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            VerificationParams(d=2, alpha=2.0, beta=1.0, b=1.0)
        with pytest.raises(InvalidArgumentError):
            VerificationParams(d=2, alpha=1.0, beta=2.0, b=3.0)
        with pytest.raises(InvalidArgumentError):
            VerificationParams(d=2, alpha=1.0, beta=2.0, b=1.0, delta=2.5)


class TestDegenerateCoefficients:
    """Coefficients for which a certificate is undefined are a usage error."""

    A = gen_triangle(2, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        coeffs = [1.0] * 5 + [bad]
        with pytest.raises(InvalidArgumentError, match="finite"):
            khintchine_check([bad, 1.0], 2)
        with pytest.raises(InvalidArgumentError, match="finite"):
            blei_bound_check(self.A, coeffs)
        with pytest.raises(InvalidArgumentError, match="finite"):
            rud_average(self.A, coeffs, SpaceSpec.lp(2))
        with pytest.raises(InvalidArgumentError, match="finite"):
            rud_average(self.A, coeffs, SpaceSpec.lp(2), samples=5)

    def test_all_zero_refused_where_a_ratio_is_undefined(self):
        zero = [0.0] * len(self.A)
        with pytest.raises(InvalidArgumentError, match="all coefficients are zero"):
            blei_bound_check(self.A, zero)
        with pytest.raises(InvalidArgumentError, match="all coefficients are zero"):
            rud_average(self.A, zero, SpaceSpec.lp(2))
        with pytest.raises(InvalidArgumentError, match="all coefficients are zero"):
            rud_average(self.A, zero, SpaceSpec.lp(2), samples=5)

    def test_zero_chaos_keeps_its_defined_values(self):
        law = law_of(self.A, [0.0] * len(self.A))
        assert law.values.tolist() == [0.0]
        assert norm(law, SpaceSpec.lp(2)) == 0.0
        assert moment_table(law, [1, 2, 4]).rows == ((1.0, 0.0), (2.0, 0.0), (4.0, 0.0))
        report = khintchine_check([0.0, 0.0], 2)
        assert report.quantity("moment") == 0.0 and report.verdict

    def test_one_nonzero_coefficient_suffices(self):
        coeffs = [0.0] * (len(self.A) - 1) + [2.0]
        assert blei_bound_check(self.A, coeffs).quantity("ratio_p2") == pytest.approx(0.5)
        result = rud_average(self.A, coeffs, SpaceSpec.lp(2))
        assert result.ratio == pytest.approx(1.0)


@pytest.mark.parametrize("check", [
    lambda A, B: sign_concentration_check(A, B),
    lambda A, B: lower_bound_check(A, B, SpaceSpec.lp(2)),
], ids=["sign_concentration_check", "lower_bound_check"])
def test_block_order_must_match_set_order(check):
    with pytest.raises(InvalidArgumentError, match="order mismatch"):
        check(gen_triangle(2, 4), BlockChoice.identity(3, 4))
    with pytest.raises(InvalidArgumentError, match="order mismatch"):
        check(gen_triangle(3, 4), BlockChoice.identity(2, 4))


@pytest.mark.parametrize("p_list", [[], [math.nan], [0], [-1]],
                         ids=["empty", "nan", "zero", "negative"])
def test_blei_p_list_as_moment_table(p_list):
    # the p-list rule of moment_table, which the moments subcommand applies first
    with pytest.raises(InvalidArgumentError):
        blei_bound_check(gen_triangle(2, 4), p_list=p_list)


@pytest.mark.parametrize("call", [
    lambda: khintchine_check([1.0, 2.0], math.nan),
    lambda: moment_table(rademacher(1), [1, math.inf]),
    lambda: moment_table(rademacher(1), [1, math.nan]),
    lambda: blei_bound_check(gen_triangle(2, 4), beta=math.nan),
    lambda: blei_bound_check(gen_triangle(2, 4), beta=math.inf),
    lambda: sign_concentration_check(gen_triangle(2, 4), BlockChoice.identity(2, 4), math.nan),
    lambda: sign_concentration_check(gen_triangle(2, 4), BlockChoice.identity(2, 4), math.inf),
    lambda: clt_criteria(gen_sum_set(20), [10, 20], star_threshold=math.nan),
    lambda: clt_criteria(gen_sum_set(20), [10, 20], sharp_threshold=math.inf),
    lambda: distribution_exact(rademacher(1), bits_cap=-1),
    lambda: law_of(gen_triangle(2, 4), bits_cap=-1),
], ids=["khintchine-p-nan", "moment-p-inf", "moment-p-nan", "blei-beta-nan", "blei-beta-inf",
        "concentration-nan", "concentration-inf", "clt-star-nan", "clt-sharp-inf",
        "distribution-bits-negative", "law-bits-negative"])
def test_non_finite_and_out_of_range_parameters_refused(call):
    with pytest.raises(InvalidArgumentError):
        call()

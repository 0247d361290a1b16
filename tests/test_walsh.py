"""Hypercube layer: Rademacher functions, chaos sums, exact and MC laws."""

import itertools
import math

import numpy as np
import pytest

from chaoslab import (
    EmptyInputError,
    InvalidArgumentError,
    MultiIndex,
    ResolutionError,
    ResourceLimitError,
    SignFunction,
    chaos_monomial,
    chaos_sum,
    distribution_exact,
    distribution_mc,
    evaluate_dyadic,
    gen_triangle,
    rademacher,
    randomize_signs,
    unit_coefficients,
)


def brute_force_law(coeffs):
    """Independent oracle: enumerate sign tuples with itertools, no FWHT."""
    support = sorted({j for k in coeffs for j in k})
    hits = {}
    for eps in itertools.product((-1, 1), repeat=len(support)):
        assign = dict(zip(support, eps))
        val = sum(c * math.prod(assign[j] for j in k) for k, c in coeffs.items())
        hits[round(val, 9)] = hits.get(round(val, 9), 0) + 1
    total = sum(hits.values())
    return {v: n / total for v, n in hits.items()}


class TestMultiIndex:
    def test_valid(self):
        t = MultiIndex((3, 2, 1))
        assert t.order == 3 and tuple(t) == (3, 2, 1)

    def test_int_shorthand(self):
        assert tuple(MultiIndex(5)) == (5,)

    @pytest.mark.parametrize("bad", [(), (1, 2), (2, 2), (1, 0), (0,), (3, 1, 1)])
    def test_invalid(self, bad):
        with pytest.raises(InvalidArgumentError):
            MultiIndex(bad)


class TestRademacher:
    def test_dyadic_m1(self):
        assert evaluate_dyadic(rademacher(1), 1).values.tolist() == [1, -1]

    def test_dyadic_m2(self):
        assert evaluate_dyadic(rademacher(1), 2).values.tolist() == [1, 1, -1, -1]

    def test_fair_sign(self):
        assert distribution_exact(rademacher(3)).atoms() == [(-1.0, 0.5), (1.0, 0.5)]

    @pytest.mark.parametrize("j", [0, -2])
    def test_invalid_index(self, j):
        with pytest.raises(InvalidArgumentError):
            rademacher(j)


class TestChaosMonomial:
    def test_value(self):
        f = chaos_monomial((2, 1))
        assert f.value({1: 1, 2: -1}) == -1.0

    def test_fair_sign(self):
        assert distribution_exact(chaos_monomial((2, 1))).atoms() == [(-1.0, 0.5), (1.0, 0.5)]

    def test_first_cell_positive(self):
        # every Rademacher function is +1 near 0
        f = chaos_monomial((3, 2, 1))
        assert evaluate_dyadic(f, 3).values[0] == 1.0

    def test_fair_sign_random_indices(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            entries = np.sort(rng.choice(np.arange(1, 13), size=d, replace=False))[::-1]
            law = distribution_exact(chaos_monomial(entries)).atoms()
            assert law == [(-1.0, 0.5), (1.0, 0.5)]


class TestChaosSum:
    COEFFS = {(2, 1): 1.0, (3, 1): 1.0, (3, 2): 1.0}

    def test_all_plus(self):
        assert chaos_sum(self.COEFFS).value({1: 1, 2: 1, 3: 1}) == 3.0

    def test_mixed_config(self):
        assert chaos_sum(self.COEFFS).value({1: -1, 2: 1, 3: 1}) == -1.0

    def test_single_scaling(self):
        a = 0.75
        assert distribution_exact(chaos_sum({(1,): a})).atoms() == [(-a, 0.5), (a, 0.5)]

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            chaos_sum({})

    def test_mixed_orders_rejected(self):
        with pytest.raises(InvalidArgumentError):
            chaos_sum({(1,): 1.0, (3, 2): 1.0})

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        elements = list(gen_triangle(3, 7).tuples())
        for _ in range(5):
            take = rng.choice(len(elements), size=6, replace=False)
            coeffs = {elements[i]: float(rng.standard_normal()) for i in take}
            law = distribution_exact(chaos_sum(coeffs))
            oracle = brute_force_law(coeffs)
            got = {round(v, 9): w for v, w in law.atoms()}
            assert got.keys() == oracle.keys()
            for v, w in oracle.items():
                assert got[v] == pytest.approx(w, abs=1e-12)


class TestRandomizeSigns:
    def test_identity_pattern(self):
        coeffs = {(2, 1): 1.0, (3, 2): 2.0}
        flips = {k: 1 for k in coeffs}
        assert randomize_signs(coeffs, flips).terms == chaos_sum(coeffs).terms

    def test_single_flip_same_law(self):
        flipped = randomize_signs({(2, 1): 1.0}, {(2, 1): -1})
        assert distribution_exact(flipped).atoms() == [(-1.0, 0.5), (1.0, 0.5)]

    def test_cancellation(self):
        f = randomize_signs({(2, 1): 1.0, (3, 2): 1.0}, {(2, 1): 1, (3, 2): -1})
        assert f.value({1: 1, 2: 1, 3: 1}) == 0.0

    def test_missing_flip(self):
        with pytest.raises(InvalidArgumentError):
            randomize_signs({(2, 1): 1.0, (3, 2): 1.0}, {(2, 1): 1})

    def test_bad_flip_value(self):
        with pytest.raises(InvalidArgumentError):
            randomize_signs({(2, 1): 1.0}, {(2, 1): 2})


class TestDistributionExact:
    def test_two_signs(self):
        law = distribution_exact(rademacher(1) + rademacher(2))
        assert law.atoms() == [(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)]

    def test_product(self):
        law = distribution_exact(rademacher(1) * rademacher(2))
        assert law.atoms() == [(-1.0, 0.5), (1.0, 0.5)]

    def test_triangle_sum(self):
        coeffs = unit_coefficients(gen_triangle(2, 4))
        f = chaos_sum(coeffs)
        assert f.value({j: 1 for j in range(1, 5)}) == 6.0
        law = distribution_exact(f)
        assert law.values[-1] == 6.0
        oracle = brute_force_law(coeffs)
        assert max(oracle) == 6.0
        got = {round(v, 9): w for v, w in law.atoms()}
        assert got == oracle

    def test_cap_error_names_requirement(self):
        f = chaos_sum({(j,): 1.0 for j in range(1, 26)})
        with pytest.raises(ResourceLimitError) as err:
            distribution_exact(f, bits_cap=24)
        assert (err.value.required, err.value.budget) == (25, 24)
        assert "25" in str(err.value)

    def test_weights_sum_to_one(self):
        law = distribution_exact(chaos_sum(unit_coefficients(gen_triangle(2, 6))))
        assert abs(law.weights.sum() - 1.0) < 1e-12


class TestDistributionMC:
    def test_single_sign_frequency(self):
        law = distribution_mc(rademacher(1), 10**5, seed=42)
        weights = dict(law.atoms())
        assert abs(weights[1.0] - 0.5) < 0.01

    def test_determinism(self):
        a = distribution_mc(rademacher(1) + rademacher(2), 5000, seed=9)
        b = distribution_mc(rademacher(1) + rademacher(2), 5000, seed=9)
        assert a.atoms() == b.atoms()

    def test_second_moment_and_cdf(self):
        f = rademacher(1) + rademacher(2)
        mc = distribution_mc(f, 10**6, seed=31)
        assert abs(mc.moment(2) - 2.0) < 0.01
        exact = distribution_exact(f)
        # empirical CDF against the exact one at the exact atoms
        dev = []
        for v, F in zip(exact.values, exact.cdf()):
            emp = mc.weights[mc.values <= v + 1e-9].sum()
            dev.append(abs(emp - F))
        assert np.mean(dev) < 0.005

    def test_zero_samples(self):
        with pytest.raises(InvalidArgumentError):
            distribution_mc(rademacher(1), 0)

    def test_worker_count_invariance(self, monkeypatch):
        # chunk boundaries are fixed, so the law is identical for any pool size
        f = chaos_sum({(2, 1): 1.0, (3, 2): -0.5})
        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        seq = distribution_mc(f, 200_000, seed=77)
        monkeypatch.setenv("CHAOSLAB_THREADS", "4")
        par = distribution_mc(f, 200_000, seed=77)
        assert seq.atoms() == par.atoms()


class TestEvaluateDyadic:
    def test_r2(self):
        assert evaluate_dyadic(rademacher(2), 2).values.tolist() == [1, -1, 1, -1]

    def test_product_cells(self):
        f = rademacher(1) * rademacher(2)
        assert evaluate_dyadic(f, 2).values.tolist() == [1, -1, -1, 1]

    def test_histogram_matches_exact(self):
        f = rademacher(1) + rademacher(2)
        assert evaluate_dyadic(f, 2).histogram().atoms() == distribution_exact(f).atoms()

    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            evaluate_dyadic(rademacher(3), 2)

    def test_histogram_invariant_random(self):
        # dyadic realization is equidistributed with the hypercube law
        rng = np.random.default_rng(23)
        elements = list(gen_triangle(2, 9).tuples())
        for _ in range(6):
            take = rng.choice(len(elements), size=5, replace=False)
            coeffs = {elements[i]: float(rng.standard_normal()) for i in take}
            f = chaos_sum(coeffs)
            top = max(f.support)
            exact = distribution_exact(f).atoms()
            for m in (top, top + 1, top + 2):
                assert evaluate_dyadic(f, m).histogram().atoms() == exact


class TestAlgebra:
    def test_square_reduces(self):
        f = rademacher(1) + rademacher(2)
        law = distribution_exact(f * f)
        assert law.atoms() == [(0.0, 0.5), (4.0, 0.5)]

    def test_second_moment_orthonormality(self):
        rng = np.random.default_rng(77)
        elements = list(gen_triangle(3, 16).tuples())
        for _ in range(8):
            take = rng.choice(len(elements), size=12, replace=False)
            coeffs = {elements[i]: float(rng.standard_normal()) for i in take}
            f = chaos_sum(coeffs)
            if len(f.support) > 16:
                continue
            exact = distribution_exact(f).moment(2)
            assert exact == pytest.approx(sum(c * c for c in coeffs.values()), rel=1e-12)

    def test_scalar_multiplication(self):
        f = 2.0 * rademacher(1)
        assert distribution_exact(f).atoms() == [(-2.0, 0.5), (2.0, 0.5)]

    def test_constant_term(self):
        f = rademacher(1) * rademacher(1)
        assert f.support == ()
        assert distribution_exact(f).atoms() == [(1.0, 1.0)]

    def test_value_sequence_form(self):
        f = chaos_sum({(2, 1): 1.0})
        assert f.value([1, -1]) == -1.0
        with pytest.raises(InvalidArgumentError):
            f.value([1])


class TestSignFunctionInternals:
    def test_values_match_pointwise(self):
        f = chaos_sum({(2, 1): 1.5, (3, 2): -0.5, (3, 1): 2.0})
        vals = f.values()
        for cfg in range(8):
            signs = {j: (1 if not (cfg >> b) & 1 else -1) for b, j in enumerate(f.support)}
            assert vals[cfg] == pytest.approx(f.value(signs), abs=1e-12)

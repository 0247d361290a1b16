"""Symmetric-space layer: rearrangements, norms, coincidence, Fubini bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    ConcaveWeight,
    InvalidArgumentError,
    OrliczFunction,
    SpaceSpec,
    StepDistribution,
    coincidence_check,
    decreasing_rearrangement,
    distribution_exact,
    fubini_orlicz_check,
    fundamental_function,
    gen_triangle,
    law_of,
    luxemburg_norm,
    norm,
    rademacher,
)

LOG_HALF = ConcaveWeight.log_power(0.5)
LOG_ONE = ConcaveWeight.log_power(1.0)


def random_distribution(rng, max_atoms=24, scale=1.0):
    m = int(rng.integers(2, max_atoms))
    vals = rng.standard_normal(m) * scale
    w = rng.random(m)
    w /= w.sum()
    return StepDistribution(vals, w)


ALL_SPACES = [
    SpaceSpec.lp(1),
    SpaceSpec.lp(2),
    SpaceSpec.lp(4),
    SpaceSpec.linf(),
    SpaceSpec.orlicz(OrliczFunction.power(3)),
    SpaceSpec.orlicz(OrliczFunction.exponential(1)),
    SpaceSpec.orlicz(OrliczFunction.exponential(2)),
    SpaceSpec.lorentz(LOG_HALF),
    SpaceSpec.lorentz(LOG_ONE),
    SpaceSpec.marcinkiewicz(LOG_HALF),
    SpaceSpec.marcinkiewicz(LOG_ONE),
    SpaceSpec.exp_lr(2.0),
    SpaceSpec.exp_lr(2.0, method="extrapolation"),
]


class TestRearrangement:
    def test_two_signs(self):
        dist = StepDistribution([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        rr = decreasing_rearrangement(dist)
        assert rr.values.tolist() == [2.0, 0.0]
        assert rr.breakpoints.tolist() == [0.0, 0.5, 1.0]

    def test_constant(self):
        rr = decreasing_rearrangement(StepDistribution.point_mass(3.5))
        assert rr.values.tolist() == [3.5]
        assert rr.breakpoints.tolist() == [0.0, 1.0]

    def test_unimodular(self):
        rr = decreasing_rearrangement(StepDistribution([1.0, -1.0], [0.3, 0.7]))
        assert rr.values.tolist() == [1.0]
        assert rr.breakpoints.tolist() == [0.0, 1.0]

    def test_equimeasurability(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            dist = random_distribution(rng)
            rr = decreasing_rearrangement(dist)
            # measure of {x* > tau} equals the distribution function of |x|
            for tau in np.abs(dist.values).tolist() + [0.0, 0.123]:
                measure = float(np.sum(np.diff(rr.breakpoints)[rr.values > tau]))
                expect = float(dist.weights[np.abs(dist.values) > tau].sum())
                assert measure == pytest.approx(expect, abs=1e-12)


class TestNorms:
    def setup_method(self):
        self.two_signs = distribution_exact(rademacher(1) + rademacher(2))

    def test_l1(self):
        assert norm(self.two_signs, SpaceSpec.lp(1)) == pytest.approx(1.0, abs=1e-15)

    def test_l4(self):
        assert norm(self.two_signs, SpaceSpec.lp(4)) == pytest.approx(8**0.25, rel=1e-15)

    def test_orlicz_power_indicator(self):
        ind = StepDistribution([1.0, 0.0], [0.25, 0.75])
        got = norm(ind, SpaceSpec.orlicz(OrliczFunction.power(2)))
        assert got == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("s", [0.03, 0.25, 0.7, 1.0])
    def test_marcinkiewicz_indicator(self, s):
        got = norm(StepDistribution.indicator(s), SpaceSpec.marcinkiewicz(LOG_HALF))
        assert got == pytest.approx(LOG_HALF(s), rel=1e-10)

    @pytest.mark.parametrize("s", [0.03, 0.25, 0.7, 1.0])
    def test_lorentz_indicator(self, s):
        got = norm(StepDistribution.indicator(s), SpaceSpec.lorentz(LOG_HALF))
        assert got == pytest.approx(LOG_HALF(s), rel=1e-12)

    def test_zero_distribution(self):
        zero = StepDistribution.point_mass(0.0)
        for space in ALL_SPACES:
            assert norm(zero, space) == 0.0

    def test_invalid_tol(self):
        with pytest.raises(InvalidArgumentError):
            norm(self.two_signs, SpaceSpec.lp(2), tol=0.0)

    def test_zero_distribution_custom_marcinkiewicz_weight(self):
        kink = ConcaveWeight.from_callable(lambda t: min(t / 0.3, 1.0), "kink")
        zero = StepDistribution.point_mass(0.0)
        assert norm(zero, SpaceSpec.marcinkiewicz(kink)) == 0.0

    def test_no_atoms(self):
        with pytest.raises(InvalidArgumentError, match="at least one atom"):
            StepDistribution.from_atoms([])


class TestFundamentalFunction:
    def test_lp(self):
        assert fundamental_function(SpaceSpec.lp(2), 1 / 16) == pytest.approx(0.25, rel=1e-12)

    def test_lorentz_at_one(self):
        assert fundamental_function(SpaceSpec.lorentz(LOG_ONE), 1.0) == pytest.approx(1.0)

    def test_exponential_orlicz_closed_form(self):
        space = SpaceSpec.orlicz(OrliczFunction.exponential(2, 0.0))
        got = fundamental_function(space, math.exp(-3))
        expect = 1.0 / math.sqrt(math.log(1.0 + math.exp(3.0)))  # 1 / M^{-1}(e^3)
        assert got == pytest.approx(expect, rel=1e-9)
        assert got == pytest.approx(0.57273, abs=5e-5)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.0001])
    def test_domain(self, t):
        with pytest.raises(InvalidArgumentError):
            fundamental_function(SpaceSpec.lp(2), t)

    @pytest.mark.parametrize("t", [0.0, 1.0001, math.nan])
    def test_domain_message(self, t):
        with pytest.raises(InvalidArgumentError, match=r"measure must lie in \(0, 1\]"):
            fundamental_function(SpaceSpec.lp(2), t)


class TestOrliczFunction:
    def test_power_inverse(self):
        M = OrliczFunction.power(3)
        assert M.inverse(M(2.5)) == pytest.approx(2.5, rel=1e-12)

    def test_exponential_inverse_roundtrip(self):
        M = OrliczFunction.exponential(0.5)
        for u in (0.01, 0.5, M.u0, 2 * M.u0, 10.0):
            assert M.inverse(M(u)) == pytest.approx(u, rel=1e-10)

    def test_subunit_splice_is_convex(self):
        # the default splice point keeps M convex even for r < 1
        M = OrliczFunction.exponential(0.5)
        assert M.u0 > 0
        assert M.validate()

    def test_r_above_one_needs_no_splice(self):
        assert OrliczFunction.exponential(2).u0 == 0.0
        assert OrliczFunction.exponential(2).validate()

    @pytest.mark.parametrize("u0", [0.0, 0.01, 0.5, 1.0, 2.5])
    def test_nonconvex_splice_refused(self, u0):
        # for r = 0.5 the chord through the origin is tangent at u0 = 2.5396...
        with pytest.raises(InvalidArgumentError, match="convex"):
            OrliczFunction.exponential(0.5, u0)

    def test_splice_at_or_above_tangency_accepted(self):
        u_min = OrliczFunction.exponential(0.5).u0
        assert u_min == pytest.approx(2.5396, abs=1e-4)
        for u0 in (u_min, 2 * u_min):
            assert OrliczFunction.exponential(0.5, u0).validate()
        assert OrliczFunction.exponential(2, 0.5).validate()
        with pytest.raises(InvalidArgumentError):
            OrliczFunction.exponential(2, -0.1)

    def test_weight_validation(self):
        assert LOG_HALF.validate()
        with pytest.raises(InvalidArgumentError):
            ConcaveWeight.from_callable(lambda t: t * t, "convex").validate()


def _orlicz_reference(M, u):
    """M(u) by the textbook formula in scalar math."""
    u = abs(u)
    if M.kind == "power":
        return u**M.param
    if u < M.u0:
        return math.expm1(M.u0**M.param) / M.u0 * u
    return math.expm1(u**M.param)


ORLICZ_FUNCTIONS = st.one_of(
    st.floats(1.0, 8.0).map(OrliczFunction.power),
    st.floats(1.0, 3.0).map(OrliczFunction.exponential),  # no splice
    st.floats(0.2, 0.95).map(OrliczFunction.exponential),  # tangency splice
    st.tuples(st.floats(1.0, 3.0), st.floats(0.01, 2.0)).map(
        lambda ru: OrliczFunction.exponential(*ru)  # chord below a chosen u0
    ),
)
WEIGHTS = st.one_of(
    st.floats(0.0, 1.0).map(ConcaveWeight.log_power),
    st.sampled_from([
        ConcaveWeight.from_callable(math.sqrt, "sqrt"),  # math.sqrt raises below 0
        ConcaveWeight.from_callable(lambda t: min(t / 0.3, 1.0), "kink"),
    ]),
)


class TestOneEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(M=ORLICZ_FUNCTIONS, u=st.floats(-5.0, 5.0))
    def test_orlicz_scalar_is_apply(self, M, u):
        assert M(u) == float(M.apply([u])[0])
        assert M(u) == pytest.approx(_orlicz_reference(M, u), rel=1e-13, abs=1e-300)

    @settings(max_examples=200, deadline=None)
    @given(phi=WEIGHTS, t=st.floats(-1.0, 1.0))
    def test_weight_scalar_is_apply(self, phi, t):
        assert phi(t) == float(phi.apply([t])[0])
        assert phi.apply(np.array([[t, -t]])).shape == (1, 2)
        if t <= 0.0:
            assert phi(t) == 0.0
        elif phi.kind == "log_power":
            assert phi(t) == pytest.approx(math.log(math.e / t) ** -phi.gamma, rel=1e-13)


class TestLuxemburgBracket:
    """Both bracketing directions of luxemburg_norm against closed forms."""

    @staticmethod
    def first_guess_feasible(dist, M):
        l1 = float(np.sum(np.abs(dist.values) * dist.weights))
        return float(np.sum(M.apply(np.abs(dist.values) / l1) * dist.weights)) <= 1.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("c", [0.75, 3.0, 1e6])
    def test_first_guess_at_the_norm(self, p, c):
        # |x| = c a.e. makes ||x||_1 = c feasible, so the bracket halves from it
        dist = StepDistribution([-c, c], [0.25, 0.75])
        M = OrliczFunction.power(p)
        assert self.first_guess_feasible(dist, M)
        assert luxemburg_norm(dist, M) == c

    @pytest.mark.parametrize("t", [0.9, 0.25, math.exp(-3), 1e-6])
    def test_first_guess_below_the_norm(self, t):
        # M(1) > 1, so by Jensen ||x||_1 is infeasible and the bracket doubles;
        # the indicator of a set of measure t has norm 1 / M^{-1}(1/t)
        M = OrliczFunction.exponential(2, 0.0)
        dist = StepDistribution.indicator(t)
        assert not self.first_guess_feasible(dist, M)
        expect = 1.0 / math.sqrt(math.log1p(1.0 / t))
        assert luxemburg_norm(dist, M) == pytest.approx(expect, rel=1e-9)

    def test_l1_either_side(self):
        # M(u) = u: the modular at ||x||_1 is 1 up to rounding, on either side
        rng = np.random.default_rng(71)
        M = OrliczFunction.power(1)
        sides = set()
        for _ in range(40):
            dist = random_distribution(rng)
            sides.add(self.first_guess_feasible(dist, M))
            assert luxemburg_norm(dist, M) == pytest.approx(dist.lp_norm(1), rel=1e-9)
        assert sides == {True, False}

    @pytest.mark.parametrize("space", [SpaceSpec.exp_lr(2),
                                       SpaceSpec.orlicz(OrliczFunction.power(3))],
                             ids=["explr2", "orlicz-power3"])
    @pytest.mark.parametrize("tol", [1e-16, 1e-17, 1e-300])
    def test_tolerance_below_float_spacing_stops(self, space, tol, monkeypatch):
        # the bisection ends at adjacent floats, where the midpoint is one of them
        law = law_of(gen_triangle(2, 14))
        expect = norm(law, space)
        apply, calls = OrliczFunction.apply, []

        def counted(self, u):
            calls.append(1)
            if len(calls) > 5000:
                raise AssertionError("Luxemburg bisection did not stop")
            return apply(self, u)

        monkeypatch.setattr(OrliczFunction, "apply", counted)
        assert norm(law, space, tol) == pytest.approx(expect, rel=1e-9)


class TestCoincidence:
    def test_exponential_log_weight(self):
        M = OrliczFunction.exponential(2, 0.0)
        report = coincidence_check(M, LOG_HALF, eps=0.5)
        assert report.verdict
        # integral of (e/t)^{1/4} - 1 over (0, 1] is (4/3) e^{1/4} - 1
        assert report.quantity("integral_estimate") == pytest.approx(
            4.0 / 3.0 * math.exp(0.25) - 1.0, rel=1e-6
        )
        assert report.quantity("ratio_spread") < 4.0

    def test_spliced_exponential_closed_form(self):
        # r < 1 splices a chord into M below u0, so M(eps/phi(t)) has a kink at
        # t_k = e exp(-sqrt(u0/eps)): it is (e/t)^a - 1 with a = sqrt(eps)
        # below t_k and slope * eps * log^2(e/t) above it
        M, eps = OrliczFunction.exponential(0.5), 0.2
        report = coincidence_check(M, ConcaveWeight.log_power(2), eps=eps)
        a = math.sqrt(eps)
        t_k = math.e * math.exp(-math.sqrt(M.u0 / eps))
        L_k = math.log(math.e / t_k)
        slope = math.expm1(M.u0**0.5) / M.u0
        exact = (math.exp(a) * t_k ** (1 - a) / (1 - a) - t_k
                 + slope * eps * (5 - t_k * (L_k**2 + 2 * L_k + 2)))
        assert exact == pytest.approx(1.633732642138586, rel=1e-15)
        assert report.verdict
        assert report.quantity("integral_estimate") == pytest.approx(exact, rel=1e-12)

    def test_harmonic_divergence(self):
        report = coincidence_check(
            OrliczFunction.power(2),
            ConcaveWeight.from_callable(math.sqrt, "sqrt"),
            eps=1.0,
        )
        assert report.quantity("integral_finite") == 0.0
        assert not report.verdict

    def test_identity_pair_diverges(self):
        # integrand M(eps/phi(t)) = 1/t, so the integral cannot converge
        report = coincidence_check(
            OrliczFunction.power(1),
            ConcaveWeight.from_callable(lambda t: t, "id"),
            eps=1.0,
        )
        assert report.quantity("integral_finite") == 0.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidArgumentError):
            coincidence_check(OrliczFunction.power(2), LOG_HALF, eps=0.0)
        with pytest.raises(InvalidArgumentError):
            coincidence_check(OrliczFunction.power(2), LOG_HALF, eps=1.0, grid=8)


class TestFubini:
    def test_separable_signs(self):
        z = np.array([[1.0, -1.0], [-1.0, 1.0]])  # r_1(u) r_1(t) on a 2x2 grid
        M = OrliczFunction.power(2)
        report = fubini_orlicz_check(z, M)
        assert report.verdict
        lhs = report.quantity("avg_row_norm")
        rhs = report.quantity("double_max_col_norm")
        assert rhs == pytest.approx(2 * lhs, rel=1e-10)

    def test_constant_kernel(self):
        report = fubini_orlicz_check(np.ones((4, 4)), OrliczFunction.power(2))
        assert report.verdict
        assert report.quantity("double_max_col_norm") == pytest.approx(
            2 * report.quantity("avg_row_norm"), rel=1e-10
        )

    def test_random_sign_matrices(self):
        rng = np.random.default_rng(3)
        M = OrliczFunction.power(3)
        for _ in range(25):
            z = 1.0 - 2.0 * rng.integers(0, 2, size=(8, 8))
            assert fubini_orlicz_check(z, M).verdict

    def test_shape_validation(self):
        with pytest.raises(InvalidArgumentError):
            fubini_orlicz_check(np.ones((3, 4)), OrliczFunction.power(2))
        with pytest.raises(InvalidArgumentError):
            fubini_orlicz_check(np.empty((0, 0)), OrliczFunction.power(2))


class TestNormProperties:
    def test_distribution_only(self):
        atoms = [(1.5, 0.2), (-0.5, 0.3), (2.5, 0.1), (0.0, 0.4)]
        shuffled = [atoms[2], atoms[0], atoms[3], atoms[1]]
        a = StepDistribution.from_atoms(atoms)
        b = StepDistribution.from_atoms(shuffled)
        for space in ALL_SPACES:
            assert norm(a, space) == norm(b, space)

    def test_lp_monotone_in_p(self):
        rng = np.random.default_rng(41)
        ps = [1, 1.5, 2, 4, 8, 32]
        for _ in range(10):
            dist = random_distribution(rng)
            values = [norm(dist, SpaceSpec.lp(p)) for p in ps]
            sup = norm(dist, SpaceSpec.linf())
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] <= sup + 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            dist = random_distribution(rng)
            c = float(rng.uniform(0.1, 5.0)) * (-1 if rng.random() < 0.5 else 1)
            for space in ALL_SPACES:
                lhs = norm(dist.scaled(c), space)
                rhs = abs(c) * norm(dist, space)
                assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)

    def test_ideal_monotonicity(self):
        # |g| <= |f| pointwise on a shared configuration space
        rng = np.random.default_rng(47)
        for _ in range(5):
            m = 16
            f_vals = rng.standard_normal(m) * 2.0
            g_vals = f_vals * rng.random(m)
            w = np.full(m, 1.0 / m)
            f = StepDistribution(f_vals, w)
            g = StepDistribution(g_vals, w)
            for space in ALL_SPACES:
                assert norm(g, space) <= norm(f, space) + 1e-9

    def test_orlicz_power_matches_lp(self):
        rng = np.random.default_rng(53)
        for p in (1.0, 2.0, 3.5):
            space_orl = SpaceSpec.orlicz(OrliczFunction.power(p))
            for _ in range(5):
                dist = random_distribution(rng)
                assert luxemburg_norm(dist, space_orl.orlicz_fn) == pytest.approx(
                    dist.lp_norm(p), rel=1e-9
                )

    def test_marcinkiewicz_below_lorentz(self):
        rng = np.random.default_rng(59)
        for weight in (ConcaveWeight.log_power(0.25), LOG_HALF, LOG_ONE):
            for _ in range(8):
                dist = random_distribution(rng)
                marc = norm(dist, SpaceSpec.marcinkiewicz(weight))
                lor = norm(dist, SpaceSpec.lorentz(weight))
                assert marc <= lor + 1e-9

    def test_steep_log_weight_fails_validation(self):
        # phi(t)/t increases near t=1 once gamma exceeds 1
        with pytest.raises(InvalidArgumentError):
            ConcaveWeight.log_power(2.0).validate()
        assert ConcaveWeight.log_power(1.0).validate()

    def test_fundamental_matches_weight(self):
        grid = np.geomspace(1e-6, 1.0, 64)
        for weight in (LOG_HALF, LOG_ONE):
            lor = SpaceSpec.lorentz(weight)
            marc = SpaceSpec.marcinkiewicz(weight)
            for t in grid:
                expect = weight(t)
                assert fundamental_function(lor, t) == pytest.approx(expect, abs=1e-9)
                assert fundamental_function(marc, t) == pytest.approx(expect, abs=1e-9)

    def test_marcinkiewicz_against_grid_search(self):
        # the per-plateau search must dominate a dense global scan
        rng = np.random.default_rng(67)
        for _ in range(10):
            dist = random_distribution(rng, max_atoms=12)
            weight = ConcaveWeight.log_power(float(rng.choice([0.25, 0.3, 0.5, 1.0, 2.0])))
            got = norm(dist, SpaceSpec.marcinkiewicz(weight))
            rr = decreasing_rearrangement(dist)
            ts = np.unique(np.concatenate([np.linspace(1e-9, 1, 5001), rr.breakpoints[1:]]))
            seg = np.diff(rr.breakpoints)
            integ = np.array(
                [np.sum(np.minimum(np.maximum(t - rr.breakpoints[:-1], 0.0), seg) * rr.values)
                 for t in ts]
            )
            brute = float(np.max(weight.apply(ts) * integ / ts))
            assert got >= brute - 1e-9
            assert got == pytest.approx(brute, rel=1e-6)

    def test_marcinkiewicz_interior_peak(self):
        # phi = min(t/c, 1) peaks inside the plateau (0.1, 0.6], at t = c,
        # where the norm is (1/c) integral_0^c x* = (0.3 + 0.2) / 0.3
        weight = ConcaveWeight.from_callable(lambda t: min(t / 0.3, 1.0), "kink")
        dist = StepDistribution([3.0, 1.0, 0.5], [0.1, 0.5, 0.4])
        got = norm(dist, SpaceSpec.marcinkiewicz(weight))
        assert got == pytest.approx(5.0 / 3.0, rel=1e-10)

    def test_explr_methods_agree_within_factor(self):
        rng = np.random.default_rng(61)
        factors = []
        for r in (1.0, 2.0):
            bis = SpaceSpec.exp_lr(r)
            ext = SpaceSpec.exp_lr(r, method="extrapolation")
            for _ in range(8):
                dist = random_distribution(rng)
                factors.append(norm(dist, bis) / norm(dist, ext))
        lo, hi = min(factors), max(factors)
        print(f"ExpL^r bisection/extrapolation factor range: [{lo:.3f}, {hi:.3f}]")
        assert 0.05 < lo and hi < 20.0


TWO_SIGNS = StepDistribution([-1.0, 1.0], [0.5, 0.5])


@pytest.mark.parametrize("call", [
    lambda: OrliczFunction.power(math.nan),
    lambda: OrliczFunction.power(math.inf),
    lambda: OrliczFunction.exponential(math.nan),
    lambda: OrliczFunction.exponential(math.inf),
    lambda: OrliczFunction.exponential(2, math.nan),
    lambda: OrliczFunction.exponential(2, math.inf),
    lambda: OrliczFunction.exponential(1e-3),  # splice point 1000^1000
    lambda: OrliczFunction.exponential(1e-10),
    lambda: OrliczFunction.exponential(2, 1e300),
    lambda: ConcaveWeight.log_power(math.nan),
    lambda: ConcaveWeight.log_power(math.inf),
    lambda: SpaceSpec.lp(math.nan),
    lambda: SpaceSpec.exp_lr(math.nan),
    lambda: SpaceSpec.exp_lr(math.inf),
    lambda: norm(TWO_SIGNS, SpaceSpec.lp(2), tol=math.nan),
    lambda: norm(TWO_SIGNS, SpaceSpec.orlicz(OrliczFunction.power(3)), tol=math.inf),
    lambda: norm(TWO_SIGNS, SpaceSpec.orlicz(OrliczFunction.power(3)), tol=2.0),
    lambda: luxemburg_norm(TWO_SIGNS, OrliczFunction.power(3), tol=1.0),
    lambda: coincidence_check(OrliczFunction.exponential(2), LOG_HALF, eps=math.nan),
    lambda: coincidence_check(OrliczFunction.exponential(2), LOG_HALF, eps=math.inf),
    lambda: coincidence_check(OrliczFunction.exponential(2), LOG_HALF, eps=0.5, tol=math.nan),
], ids=["power-nan", "power-inf", "exp-r-nan", "exp-r-inf", "exp-u0-nan", "exp-u0-inf",
        "exp-splice-1e-3", "exp-splice-1e-10", "exp-u0-1e300", "log-nan", "log-inf", "lp-nan",
        "explr-nan", "explr-inf", "norm-tol-nan", "norm-tol-inf", "norm-tol-2",
        "luxemburg-tol-1", "eps-nan", "eps-inf", "coincidence-tol-nan"])
def test_non_finite_and_out_of_range_parameters_refused(call):
    with pytest.raises(InvalidArgumentError):
        call()

"""Symmetric-space layer: rearrangements, norms, coincidence, Fubini bound."""

import ast
import decimal
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    ConcaveWeight,
    InvalidArgumentError,
    NumericFailureError,
    OrliczFunction,
    SpaceSpec,
    StepDistribution,
    coincidence_check,
    decreasing_rearrangement,
    distribution_exact,
    fubini_orlicz_check,
    fundamental_function,
    gen_sum_set,
    gen_triangle,
    law_of,
    luxemburg_norm,
    norm,
    rademacher,
    symspace,
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


@st.composite
def random_laws(draw):
    """A seeded random_distribution of 2 to 23 atoms at a scale of 1e-3, 1 or 1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_distribution(rng, scale=draw(st.sampled_from([1e-3, 1.0, 1e3])))


@st.composite
def signed_laws(draw):
    """A random_laws law, or up to 12 magnitudes carried by +v, -v or both
    with generic weights, so that the absolute law adds up pairs."""
    if draw(st.booleans()):
        return draw(random_laws())
    mags = draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12, unique=True))
    values = [s * v for v in mags for s in draw(st.sampled_from([(1,), (-1,), (1, -1)]))]
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(values),
                               max_size=len(values))))
    return StepDistribution(values, w / w.sum())


FLIP_SPACES = [
    SpaceSpec.lp(1),
    SpaceSpec.lp(3.3),
    SpaceSpec.lp(4),
    SpaceSpec.linf(),
    SpaceSpec.orlicz(OrliczFunction.power(3)),
    SpaceSpec.orlicz(OrliczFunction.exponential(2)),
    SpaceSpec.exp_lr(1.0),
    SpaceSpec.exp_lr(2.0),
    SpaceSpec.exp_lr(1.0, method="extrapolation"),
    SpaceSpec.exp_lr(2.0, method="extrapolation"),
    SpaceSpec.lorentz(LOG_HALF),
    SpaceSpec.lorentz(ConcaveWeight.from_callable(math.sqrt, "sqrt")),
    SpaceSpec.marcinkiewicz(LOG_HALF),
    SpaceSpec.marcinkiewicz(ConcaveWeight.from_callable(lambda t: min(t / 0.3, 1.0), "kink")),
]


@pytest.mark.parametrize("space", FLIP_SPACES, ids=SpaceSpec.describe)
@settings(max_examples=100, deadline=None)
@given(dist=signed_laws())
def test_sign_flip_is_exact(space, dist):
    # every norm reads the absolute law, which X and -X share bit for bit
    assert norm(dist.scaled(-1), space).hex() == norm(dist, space).hex()


RUD_SPACES = [SpaceSpec.lp(4), SpaceSpec.linf(), SpaceSpec.exp_lr(2.0), SpaceSpec.lorentz(LOG_HALF)]


@settings(max_examples=60, deadline=None)
@given(dist=signed_laws())
def test_absolute_law_is_kept(dist):
    # a law builds its absolute law once and keeps it: the kept one is the
    # law a fresh build gives, bit for bit, and X and -X still share each norm
    law = dist.abs_distribution()
    assert dist.abs_distribution() is law
    fresh = StepDistribution(dist.values, dist.weights).abs_distribution()
    assert law.values.tobytes() == fresh.values.tobytes()
    assert law.weights.tobytes() == fresh.weights.tobytes()
    flipped = dist.scaled(-1)
    for space in RUD_SPACES:
        for _ in range(2):  # the second reads take the kept absolute laws
            assert norm(flipped, space).hex() == norm(dist, space).hex()


class TestNormOrderings:
    @settings(max_examples=80, deadline=None)
    @given(random_laws(), st.floats(1.0, 12.0))
    def test_luxemburg_power_norm_is_lp(self, dist, p):
        # M(u) = u^p has modular (||x||_p / lam)^p, whose root the bisection
        # brackets to a relative width of tol; 1% of tol covers the rounding
        tol = 1e-10
        got = luxemburg_norm(dist, OrliczFunction.power(p), tol)
        assert got == pytest.approx(dist.lp_norm(p), rel=1.01 * tol)

    @settings(max_examples=80, deadline=None)
    @given(random_laws(), st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    def test_marcinkiewicz_below_lorentz(self, dist, gamma):
        # x* is a positive sum of indicators 1_[0, s); Lorentz is linear in it,
        # Marcinkiewicz subadditive, and both give phi(s) on 1_[0, s) when
        # phi(t)/t decreases, as log^-gamma(e/t) does for gamma <= 1
        phi = ConcaveWeight.log_power(gamma)
        lorentz = norm(dist, SpaceSpec.lorentz(phi))
        assert norm(dist, SpaceSpec.marcinkiewicz(phi)) <= lorentz * (1 + 1e-12)


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

    def test_lp_norm_refuses_p_below_one(self):
        # refused before the zero law returns, as SpaceSpec.lp refuses them
        for law in (self.two_signs, StepDistribution.point_mass(0.0)):
            for p in (0, -1, 0.5, math.nan):
                with pytest.raises(InvalidArgumentError, match="p >= 1"):
                    law.lp_norm(p)
        assert self.two_signs.lp_norm(math.inf) == self.two_signs.max_abs()

    def test_no_atoms(self):
        with pytest.raises(InvalidArgumentError, match="at least one atom"):
            StepDistribution.from_atoms([])

    @pytest.mark.parametrize("values, weights, cause", [
        ([1.0, 2.0], [1.0], "equal length"),
        ([1.0, 2.0], [0.25, 0.5], "atom weights sum to 0.75, not 1"),
    ], ids=["lengths", "total"])
    def test_weights_refused(self, values, weights, cause):
        with pytest.raises(InvalidArgumentError, match=cause):
            StepDistribution(values, weights)

    def test_unknown_space_kind(self):
        with pytest.raises(InvalidArgumentError, match="unknown space kind 'lq'"):
            norm(self.two_signs, SpaceSpec("lq"))

    def test_nan_atoms_are_refused(self):
        # a NaN value would sort last and merge with the atoms before it
        nan = math.nan
        with pytest.raises(InvalidArgumentError, match="NaN"):
            StepDistribution([1.0, nan, 3.0], [0.2, 0.3, 0.5])
        with pytest.raises(InvalidArgumentError, match="positive"):
            StepDistribution([1.0, 3.0], [nan, 1.0])
        infinite = StepDistribution([1.0, math.inf, -math.inf], [0.2, 0.3, 0.5])
        assert infinite.atoms() == [(-math.inf, 0.5), (1.0, 0.2), (math.inf, 0.3)]


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

    @pytest.mark.parametrize("fn, cause", [(lambda t: t * t, r"phi\(t\)/t monotonicity"),
                                           (lambda t: 1.0 - t, "weight fails the monotonicity"),
                                           (lambda t: math.inf, "not finite")],
                             ids=["convex", "decreasing", "infinite"])
    def test_weight_validation_refuses(self, fn, cause):
        with pytest.raises(InvalidArgumentError, match=cause):
            ConcaveWeight.from_callable(fn).validate()

    def test_inverse_at_zero(self):
        # M^{-1}(v) = 0 for v <= 0, where the formulas give complex, negative or no values
        for M in (OrliczFunction.power(3), OrliczFunction.exponential(0.5),
                  OrliczFunction.exponential(2)):
            assert M.inverse(0) == 0.0 and M.inverse(-1.0) == 0.0

    @pytest.mark.parametrize("M, cause", [
        (OrliczFunction("power", 0.0), "vanish at 0"),  # u^0 = 1 at u = 0
        (OrliczFunction("exponential", 0.5), "convexity"),  # no splice below the tangency
    ], ids=["power0", "unspliced"])
    def test_orlicz_validation_refuses(self, M, cause):
        with pytest.raises(InvalidArgumentError, match=cause):
            M.validate()


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


class TestOrliczSpaceValidation:
    """SpaceSpec.orlicz validates its function, as lorentz and marcinkiewicz
    validate their weights."""

    @pytest.mark.parametrize("M", [OrliczFunction("power", 0.5),
                                   OrliczFunction("exponential", 0.5)],
                             ids=["power-half", "unspliced-exponential"])
    def test_nonconvex_function_refused(self, M):
        with pytest.raises(InvalidArgumentError, match="convexity"):
            SpaceSpec.orlicz(M)

    @pytest.mark.parametrize("M", [
        *map(OrliczFunction.power, (1, 1.5, 2, 3, 100, 1e6)),
        *map(OrliczFunction.exponential, (0.01, 0.1, 0.5, 0.99, 1, 2, 30)),
        OrliczFunction.exponential(2, 1), OrliczFunction.exponential(0.5, 3),
    ], ids=lambda M: f"{M.kind}:{M.param:g}:{M.u0:.3g}")
    def test_stock_factories_accepted(self, M):
        assert SpaceSpec.orlicz(M).orlicz_fn is M

    @settings(max_examples=60, deadline=None)
    @given(ORLICZ_FUNCTIONS)
    def test_drawn_stock_functions_accepted(self, M):
        assert SpaceSpec.orlicz(M).orlicz_fn is M


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
    """luxemburg_norm bisects [||x||_1, ||x||_inf] / M^{-1}(1), whose ends hold
    by Jensen's inequality and the sup bound, checked against closed forms on
    either side of the first guess ||x||_1."""

    @staticmethod
    def first_guess_feasible(dist, M):
        l1 = float(np.sum(np.abs(dist.values) * dist.weights))
        return float(np.sum(M.apply(np.abs(dist.values) / l1) * dist.weights)) <= 1.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("c", [0.75, 3.0, 1e6])
    def test_first_guess_at_the_norm(self, p, c):
        # |x| = c a.e. makes ||x||_1 = ||x||_inf = c, so the bracket [c, c] is the norm
        dist = StepDistribution([-c, c], [0.25, 0.75])
        M = OrliczFunction.power(p)
        assert self.first_guess_feasible(dist, M)
        assert luxemburg_norm(dist, M) == c

    @pytest.mark.parametrize("t", [0.9, 0.25, math.exp(-3), 1e-6])
    def test_first_guess_below_the_norm(self, t):
        # M(1) > 1, so by Jensen ||x||_1 is infeasible; the indicator of a set
        # of measure t has norm 1 / M^{-1}(1/t)
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

    @pytest.mark.parametrize("r", [0.008, 0.01, 0.02, 0.05])
    def test_norm_far_below_l1(self, r):
        # every |x| / norm lies below u0, where M is the chord slope * u, so the
        # norm is slope * ||x||_1: about 1e-156 ||x||_1 at r = 0.01
        dist = law_of(gen_sum_set(12))
        M = OrliczFunction.exponential(r)
        assert np.abs(dist.values).max() / luxemburg_norm(dist, M) < M.u0
        assert luxemburg_norm(dist, M) == pytest.approx(M._slope * dist.lp_norm(1), rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(random_laws(), ORLICZ_FUNCTIONS)
    def test_norm_is_the_root_inside_the_bracket(self, dist, M):
        # the returned end is feasible, and 2 tol below it the modular is past 1
        tol = 1e-10
        vals, wts = np.abs(dist.values), dist.weights
        got = luxemburg_norm(dist, M, tol)
        c = M.inverse(1.0)
        assert float(np.sum(vals * wts)) / c <= got <= float(vals.max()) / c
        assert float(np.sum(M.apply(vals / got) * wts)) <= 1.0
        assert float(np.sum(M.apply(vals / (got * (1 - 2 * tol))) * wts)) > 1.0


def _tangency_reference(r):
    """Root of 1 - exp(-x) = r x by Newton's method in 50-digit decimals.

    f is concave and negative at 1/r, past the root, so the iterates fall
    to the root from above."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        r = decimal.Decimal(r)
        x = 1 / r
        for _ in range(200):
            step = (1 - (-x).exp() - r * x) / ((-x).exp() - r)
            x -= step
            if abs(step) < decimal.Decimal("1e-40") * x:
                return float(x)
    raise AssertionError("Newton did not settle")


@pytest.mark.parametrize("r", [0.008, 0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.995, 0.999, 0.9995,
                               0.9999])
def test_tangency_point_against_decimal_newton(r):
    assert symspace._tangency_point(r) == pytest.approx(_tangency_reference(r), rel=1e-12, abs=0)


@pytest.mark.parametrize("r", [5e-324, 1e-310, 1e-308, 1e-300, 1e-10, 2e-9, 1e-5, 1e-3, 0.0069])
def test_exponential_refused_where_the_splice_overflows(r):
    # the tangency point x is about 1/r, and x^(1/r) overflows below r = 0.00699
    with pytest.raises(InvalidArgumentError, match="overflows a float at its splice point"):
        OrliczFunction.exponential(r)


def test_one_bisection_routine():
    # every root of the norm layer is bisected by _bisect, which alone steps
    # between adjacent floats
    tree = ast.parse(Path(symspace.__file__).read_text())
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]

    def calling(name):
        return {fn.name for fn in functions for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}

    assert calling("_bisect") == {"luxemburg_norm", "_tangency_point"}
    assert calling("nextafter") == {"_bisect"}


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

    def test_overflow_is_divergence(self):
        # gamma r = 2 > 1: M(eps / phi(t)) overflows at the first slab's midpoint
        report = coincidence_check(OrliczFunction.exponential(2), LOG_ONE, eps=20.0)
        assert report.quantity("integral_finite") == 0.0

    def test_total_past_1e12_is_divergence(self):
        # gamma r = 1: the integrand is (e/t)^{eps^2} - 1, divergent for eps = 5,
        # and the closed-form verdict reports the estimate +inf.  The name is
        # that of the 1e12 cutoff the slab walk once stopped at
        report = coincidence_check(OrliczFunction.exponential(2), LOG_HALF, eps=5.0)
        assert report.quantity("integral_finite") == 0.0
        assert report.quantity("integral_estimate") > 1e12

    @pytest.mark.parametrize("r, gamma, eps", [(0.5, 2, 0.9), (0.5, 1, 20.0), (1, 0.5, 5.0),
                                                (3, 0.25, 1.5)])
    def test_finite_exponential_log_pairs(self, r, gamma, eps):
        # gamma r < 1, or gamma r = 1 with eps < 1: finite, although the slabs
        # grow over the first halvings.  With L = log(e/t) the integral is
        # int_1^inf M(eps L^gamma) e^(1 - L) dL; Simpson's rule gives it up to
        # L = 740, past which the integrand stays below e^(1 - 0.05 L) and its
        # tail below 1e-13
        M = OrliczFunction.exponential(r)
        L, h = np.linspace(1.0, 740.0, 100_001, retstep=True)
        y = M.apply(eps * L**gamma) * np.exp(1.0 - L)
        exact = h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())
        report = coincidence_check(M, ConcaveWeight.log_power(gamma), eps=eps)
        assert report.quantity("integral_finite") == 1.0
        assert report.quantity("integral_estimate") == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("p, gamma, eps", [(4, 1, 1.0), (8, 1, 1.0), (3, 2, 0.5), (2, 0.5, 3.0),
                                                (1, 3, 2.0), (2, 0, 0.7)])
    def test_power_log_pairs_are_finite(self, p, gamma, eps):
        # int_1^inf (eps L^gamma)^p e^(1 - L) dL = eps^p e Gamma(n + 1, 1) with
        # n = gamma p, which is eps^p n! sum_{k <= n} 1/k! for an integer n
        n = int(gamma * p)
        exact = eps**p * math.factorial(n) * math.fsum(1 / math.factorial(k) for k in range(n + 1))
        report = coincidence_check(OrliczFunction.power(p), ConcaveWeight.log_power(gamma), eps=eps)
        assert report.quantity("integral_finite") == 1.0
        assert report.quantity("integral_estimate") == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("p", [1.5, 1.9, 1.99, 1.999])
    def test_power_law_tail_against_sqrt(self, p):
        # the integrand t^(-p/2) has slabs in the steady ratio 2^(p/2 - 1), so
        # the geometric tail is exact, although it stays above tol times the
        # total for thousands of slabs when p is near 2
        sqrt = ConcaveWeight.from_callable(math.sqrt, "sqrt")
        report = coincidence_check(OrliczFunction.power(p), sqrt, eps=1.0)
        assert report.quantity("integral_finite") == 1.0
        assert report.quantity("integral_estimate") == pytest.approx(1 / (1 - p / 2), rel=1e-9)

    @pytest.mark.parametrize("p, power, finite", [(1, 0.75, 1.0), (2, 0.75, 0.0)])
    def test_power_weights(self, p, power, finite):
        # M(1 / t^power) = t^(-p power): finite (1 / (1 - p power)) iff p power < 1
        weight = ConcaveWeight.from_callable(lambda t: t**power, f"t^{power}")
        report = coincidence_check(OrliczFunction.power(p), weight, eps=1.0)
        assert report.quantity("integral_finite") == finite
        if finite:
            assert report.quantity("integral_estimate") == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("p, phi", [(4, lambda t: t**0.25), (5, lambda t: t**0.2),
                                        (2, lambda t: math.sqrt(3 * t)), (2, lambda t: (5 * t) ** 0.5)])
    def test_rounded_harmonic_integrands_diverge(self, p, phi):
        # M(1 / phi(t)) is c/t, whose slabs are equal only up to rounding: a
        # steady ratio an ulp under 1 is still divergence
        report = coincidence_check(OrliczFunction.power(p), ConcaveWeight.from_callable(phi), eps=1.0)
        assert report.quantity("integral_finite") == 0.0

    def test_growing_slabs_to_the_last_are_divergence(self):
        # the integrand log(e/t)/t has slab ratios (L + log 2) / L above 1
        # that never settle; past t = 2^-1000 the slabs still grow
        phi = ConcaveWeight.from_callable(lambda t: math.sqrt(t / math.log(math.e / t)))
        report = coincidence_check(OrliczFunction.power(2), phi, eps=1.0)
        assert report.quantity("integral_finite") == 0.0
        assert math.isfinite(report.quantity("integral_estimate"))

    @pytest.mark.parametrize("phi", [lambda t: math.sqrt(t) * math.log(math.e / t),
                                     lambda t: math.sqrt(t * math.log(math.e / t))])
    def test_slow_log_tails_are_refused(self, phi):
        # 1/(t log^2(e/t)) converges and 1/(t log(e/t)) diverges, both with
        # slab ratios that creep toward 1: no slab walk to 2^-1000 can tell
        with pytest.raises(NumericFailureError, match="did not settle"):
            coincidence_check(OrliczFunction.power(2), ConcaveWeight.from_callable(phi), eps=1.0)

    @pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4, 1e-6])
    def test_power_verdict_does_not_depend_on_eps(self, eps):
        # M(eps u) = eps^p M(u) scales the integrand, never its finiteness:
        # 1/(t log(e/t)) diverges with slab ratios creeping toward 1, so every
        # eps is refused, while t^(-3/4) stays finite at 4 eps^1.5
        slow = ConcaveWeight.from_callable(lambda t: math.sqrt(t * math.log(math.e / t)))
        with pytest.raises(NumericFailureError, match="did not settle"):
            coincidence_check(OrliczFunction.power(2), slow, eps=eps)
        sqrt = ConcaveWeight.from_callable(math.sqrt, "sqrt")
        report = coincidence_check(OrliczFunction.power(2), sqrt, eps=eps)
        assert report.quantity("integral_finite") == 0.0
        report = coincidence_check(OrliczFunction.power(1.5), sqrt, eps=eps)
        assert report.quantity("integral_finite") == 1.0
        assert report.quantity("integral_estimate") == pytest.approx(4.0 * eps**1.5, rel=1e-9)

    def test_power_against_log_weight_below_float_range(self):
        # M(eps u) = eps^8 M(u), and at eps = 1 the integral is
        # e Gamma(9, 1) = 8! sum_{k <= 8} 1/k! = 109601
        M, phi = OrliczFunction.power(8), LOG_ONE
        report = coincidence_check(M, phi, eps=1e-40)  # eps^8 is subnormal
        assert report.quantity("integral_estimate") == pytest.approx(109601e-320, rel=1e-6)
        report = coincidence_check(M, phi, eps=1e-45)  # eps^8 underflows to 0
        assert report.quantity("integral_finite") == 1.0

    def test_power_walk_at_eps_where_the_walk_at_one_overflows(self):
        # eps^300 is below float range, but L^300 overflows a float for L > 10.7,
        # while (eps L)^300 does not: e Gamma(301, 1) = sum_{k <= 300} 300!/k!
        report = coincidence_check(OrliczFunction.power(300), LOG_ONE, eps=0.01)
        exact = sum(math.factorial(300) // math.factorial(k) for k in range(301)) / 10**600
        assert report.quantity("integral_estimate") == pytest.approx(exact, rel=1e-9)
        # (eps / phi)^400 = 5^400 t^-0.8 integrates to 5^401; (1 / phi)^400 overflows
        phi = ConcaveWeight.from_callable(lambda t: 0.1 * t**0.002, "0.1 t^0.002")
        report = coincidence_check(OrliczFunction.power(400), phi, eps=0.5)
        assert report.quantity("integral_finite") == 1.0
        assert report.quantity("integral_estimate") == pytest.approx(5.0**401, rel=1e-9)

    def test_power_past_float_range_is_inf_without_a_warning(self):
        # eps^8 e Gamma(9, 1) = 1e800 * 109601 is finite but past float range
        report = coincidence_check(OrliczFunction.power(8), LOG_ONE, eps=1e100)
        assert report.quantity("integral_estimate") == math.inf
        assert report.quantity("integral_finite") == 1.0

    def test_slab_integral_takes_only_the_integrand_and_tol(self):
        # the slab ratio alone decides every stop: no flag switches a rule off
        params = list(inspect.signature(symspace._slab_integral).parameters)
        assert params == ["f", "tol"]

    def test_divergence_past_float_range(self):
        # gamma r = 1.5 > 1 diverges, but exp(0.001 log(e/t)^1.5) passes 1/t only
        # where log(e/t) > 1e6, far below the smallest float: no slab shows it
        report = coincidence_check(OrliczFunction.exponential(3), LOG_HALF, eps=0.1)
        assert report.quantity("integral_finite") == 0.0
        assert report.quantity("integral_estimate") == math.inf

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
        with pytest.raises(InvalidArgumentError, match="2-d matrix"):
            fubini_orlicz_check(np.ones(4), OrliczFunction.power(2))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_kernel_is_refused(self, bad):
        # an infinite entry would pass as inf <= inf, and a NaN one fail silently
        with pytest.raises(InvalidArgumentError, match="finite"):
            fubini_orlicz_check(np.array([[1.0, bad], [0.0, 1.0]]), OrliczFunction.power(2))


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

    @pytest.mark.parametrize("gamma", [1.0 + 1e-9, 1.5, 2.0])
    def test_steep_log_weight_is_refused_by_the_spaces(self, gamma):
        # so the Marcinkiewicz norm cannot exceed the Lorentz norm
        steep = ConcaveWeight.log_power(gamma)
        for space in (SpaceSpec.lorentz, SpaceSpec.marcinkiewicz):
            with pytest.raises(InvalidArgumentError, match="gamma <= 1"):
                space(steep)
            assert space(LOG_ONE).weight is LOG_ONE

    def test_convex_custom_weight_is_refused_by_the_spaces(self):
        # t^2 is not quasiconcave, so neither space is a normed space with it
        convex = ConcaveWeight.from_callable(lambda t: t * t, "convex")
        for space in (SpaceSpec.lorentz, SpaceSpec.marcinkiewicz):
            with pytest.raises(InvalidArgumentError, match="spot-check"):
                space(convex)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_custom_weight_is_refused_by_the_spaces(self, value):
        # differences of inf are NaN, which every monotonicity comparison passes
        weight = ConcaveWeight.from_callable(lambda t: value, "non-finite")
        for space in (SpaceSpec.lorentz, SpaceSpec.marcinkiewicz):
            with pytest.raises(InvalidArgumentError, match="not finite"):
                space(weight)

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
            weight = ConcaveWeight.log_power(float(rng.choice([0.25, 0.3, 0.5, 0.75, 1.0])))
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

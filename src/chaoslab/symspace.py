"""Norms of finite distributions in concrete symmetric function spaces.

Supported spaces on [0, 1]: L_p, L_inf, Orlicz spaces with the Luxemburg
norm, Lorentz and Marcinkiewicz spaces built from a concave weight, and
exponential Orlicz spaces ExpL^r (either as an Orlicz norm or through the
extrapolation sup_p ||x||_p / p^(1/r)).  Everything is computed from the
exact distribution, via the decreasing rearrangement where needed.

Each Orlicz function and each weight has one evaluator, the vectorized
``apply``; a scalar call ``M(u)`` or ``phi(t)`` is ``apply`` on a one-point
array, so it equals the matching entry of any vectorized call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import StepDistribution
from .errors import InvalidArgumentError, NumericFailureError
from .report import timed_report

DEFAULT_TOL = 1e-10
_GL_RULES = tuple(np.polynomial.legendre.leggauss(n) for n in (20, 40))
_GL_RTOL = 1e-13
_GL_DEPTH = 50
DEFAULT_P_GRID = tuple(float(2**i) for i in range(11))  # 1, 2, 4, ..., 1024
_RATIO_T_MIN = 1e-8  # left end of the coincidence ratio grid
_SLAB_LIMIT = 1000  # halving slabs of the coincidence integral: down to t = 2^-1000


# ---------------------------------------------------------------------------
# Orlicz functions and concave weights
# ---------------------------------------------------------------------------


class OrliczFunction:
    """Convex Orlicz function M with M(0) = 0, plus its inverse.

    Two variants:

    * ``power(p)``: M(u) = u^p, so L_M = L_p isometrically.
    * ``exponential(r, u0)``: M(u) = exp(u^r) - 1 for u >= u0 and the
      chord through the origin below u0.  For r >= 1 the default is
      u0 = 0 (no splice needed).  For r < 1 the raw function is concave
      near 0; the default u0 is the tangency point of the chord, the
      smallest splice that keeps M convex, and a smaller u0 is refused.
    """

    __slots__ = ("kind", "param", "u0", "_slope", "_m_u0")

    def __init__(self, kind, param, u0=0.0):
        self.kind = kind
        self.param = float(param)
        self.u0 = float(u0)
        self._m_u0 = math.expm1(self.u0**self.param) if self.u0 > 0 else 0.0
        self._slope = self._m_u0 / self.u0 if self.u0 > 0 else 0.0

    @classmethod
    def power(cls, p):
        if not 1 <= p < math.inf:
            raise InvalidArgumentError(f"power Orlicz function needs finite p >= 1, got {p}")
        return cls("power", p)

    @classmethod
    def exponential(cls, r, u0=None):
        if not 0 < r < math.inf:
            raise InvalidArgumentError(f"exponential Orlicz function needs finite r > 0, got {r}")
        try:
            u_min = 0.0 if r >= 1 else _tangency_point(r) ** (1.0 / r)
            u0 = u_min if u0 is None else u0
            if not u_min <= u0 < math.inf:
                raise InvalidArgumentError(
                    f"u0 must be finite and >= {u_min:.6g} to keep M convex, got {u0}")
            return cls("exponential", r, u0)
        except OverflowError:
            raise InvalidArgumentError(f"M(u) = exp(u^{r:g}) - 1 overflows a float at its "
                                       f"splice point") from None

    def __call__(self, u):
        return float(self.apply([u])[0])

    def apply(self, u):
        """Vectorized evaluation on a non-negative array; past float range it is +inf."""
        u = np.abs(np.asarray(u, dtype=float))
        with np.errstate(over="ignore"):
            out = u**self.param if self.kind == "power" else np.expm1(u**self.param)
        if self.u0 > 0:
            low = u < self.u0
            out = np.where(low, self._slope * u, out)
        return out

    def inverse(self, v):
        """M^{-1}(v) on [0, inf)."""
        v = float(v)
        if v <= 0:
            return 0.0
        if self.kind == "power":
            return v ** (1.0 / self.param)
        if v < self._m_u0:
            return v / self._slope
        return math.log1p(v) ** (1.0 / self.param)

    def validate(self):
        """Spot-check convexity, positivity and M(0) = 0 on a grid."""
        if self(0.0) != 0.0:
            raise InvalidArgumentError("Orlicz function must vanish at 0")
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 50.0, 200)])
        vals = self.apply(grid)
        if np.any(vals < 0) or not np.any(vals > 0):
            raise InvalidArgumentError("Orlicz function must be non-negative and not identically 0")
        fin = np.isfinite(vals)
        slopes = np.diff(vals[fin]) / np.diff(grid[fin])
        if np.any(np.diff(slopes) < -1e-9 * np.maximum(slopes[1:], 1.0)):
            raise InvalidArgumentError("Orlicz function fails the convexity spot-check")
        return True


def _tangency_point(r):
    """Positive root x of 1 - exp(-x) = r x (chord-tangency for r < 1), bisected
    on (0, 1/r) to adjacent floats: 1 - exp(-x) < 1 puts it below 1/r, and
    ``expm1`` keeps it accurate as r -> 1.  OverflowError where 1/r overflows,
    as x^(1/r) does already for every r below about 0.007."""
    hi = 1.0 / r
    if hi == math.inf:
        raise OverflowError("1/r overflows a float")
    return _bisect(lambda x: -math.expm1(-x) <= r * x, 0.0, hi, 0.0)


def _bisect(feasible, lo, hi, tol):
    """The feasible end ``hi`` of a bracket [lo, hi] of the root of a monotone
    ``feasible`` (false below the root, true above it), halved until
    hi - lo <= tol hi or no float lies between the ends; neither end is tested."""
    while hi - lo > tol * hi and math.nextafter(lo, hi) < hi:
        mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class ConcaveWeight:
    """Increasing concave weight phi on (0, 1] with phi(0+) = 0.

    The stock variant is ``log_power(gamma)``: phi(t) = log^{-gamma}(e/t),
    the fundamental function of the exponential-Orlicz scale.  Arbitrary
    rules can be wrapped with :meth:`from_callable`.
    """

    __slots__ = ("kind", "gamma", "_fn", "label")

    def __init__(self, kind, gamma=None, fn=None, label=None):
        self.kind = kind
        self.gamma = gamma
        self._fn = fn
        self.label = label or (f"log_power({gamma})" if kind == "log_power" else "custom")

    @classmethod
    def log_power(cls, gamma):
        if not 0 <= gamma < math.inf:
            raise InvalidArgumentError(f"log-power weight needs finite gamma >= 0, got {gamma}")
        return cls("log_power", gamma=float(gamma))

    @classmethod
    def from_callable(cls, fn, label="custom"):
        return cls("custom", fn=fn, label=label)

    def __call__(self, t):
        return float(self.apply([t])[0])

    def apply(self, t):
        """Vectorized evaluation; phi(t) = 0 for t <= 0."""
        t = np.asarray(t, dtype=float)
        if self.kind == "log_power":
            with np.errstate(all="ignore"):  # t <= 0 is masked; e/t = inf gives phi = 0
                return np.where(t > 0, np.log(math.e / t) ** (-self.gamma), 0.0)
        out = [float(self._fn(x)) if x > 0.0 else 0.0 for x in t.ravel().tolist()]
        return np.array(out, dtype=float).reshape(t.shape)

    def validate(self):
        """Spot-check finiteness, monotonicity and quasiconcavity (phi(t)/t decreasing)."""
        grid = np.geomspace(1e-8, 1.0, 200)
        vals = self.apply(grid)
        if not np.all(np.isfinite(vals)):
            raise InvalidArgumentError("weight is not finite on the spot-check grid")
        if np.any(np.diff(vals) < -1e-12):
            raise InvalidArgumentError("weight fails the monotonicity spot-check")
        ratio = vals / grid
        if np.any(np.diff(ratio) > 1e-9 * ratio[:-1]):
            raise InvalidArgumentError("weight fails the phi(t)/t monotonicity spot-check")
        return True


# ---------------------------------------------------------------------------
# Space descriptors
# ---------------------------------------------------------------------------


def _quasiconcave(weight):
    """``weight``, unless log_power(gamma > 1): phi(t)/t = u^-gamma e^(u - 1),
    u = log(e/t), decreases on (0, 1] exactly when gamma <= 1.  A custom
    weight must pass :meth:`ConcaveWeight.validate`."""
    if weight.kind == "log_power" and weight.gamma > 1:
        raise InvalidArgumentError("Lorentz and Marcinkiewicz weights need gamma <= 1, "
                                   f"got log_power({weight.gamma:g})")
    if weight.kind == "custom":
        weight.validate()
    return weight


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of one symmetric-space norm."""

    kind: str
    p: float | None = None
    orlicz_fn: OrliczFunction | None = None
    weight: ConcaveWeight | None = None
    r: float | None = None
    method: str = "orlicz-bisection"

    @classmethod
    def lp(cls, p):
        if not p >= 1:
            raise InvalidArgumentError(f"L_p needs p >= 1, got {p}")
        return cls("lp", p=float(p))

    @classmethod
    def linf(cls):
        return cls("linf")

    @classmethod
    def orlicz(cls, fn):
        fn.validate()
        return cls("orlicz", orlicz_fn=fn)

    @classmethod
    def lorentz(cls, weight):
        return cls("lorentz", weight=_quasiconcave(weight))

    @classmethod
    def marcinkiewicz(cls, weight):
        return cls("marcinkiewicz", weight=_quasiconcave(weight))

    @classmethod
    def exp_lr(cls, r, method="orlicz-bisection"):
        if not 0 < r < math.inf:
            raise InvalidArgumentError(f"ExpL^r needs finite r > 0, got {r}")
        if method not in ("orlicz-bisection", "extrapolation"):
            raise InvalidArgumentError(f"unknown ExpL^r method {method!r}")
        return cls("explr", r=float(r), method=method)

    def describe(self):
        if self.kind == "lp":
            return f"L_{self.p:g}"
        if self.kind == "linf":
            return "L_inf"
        if self.kind == "orlicz":
            return f"Orlicz({self.orlicz_fn.kind}:{self.orlicz_fn.param:g})"
        if self.kind in ("lorentz", "marcinkiewicz"):
            return f"{self.kind}({self.weight.label})"
        return f"ExpL^{self.r:g}[{self.method}]"


# ---------------------------------------------------------------------------
# Rearrangement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RearrangementStep:
    """Decreasing rearrangement of a finite distribution.

    x*(t) equals ``values[i]`` on (breakpoints[i], breakpoints[i+1]];
    values are non-increasing and the last breakpoint is 1.
    """

    breakpoints: np.ndarray  # length K+1, starts at 0.0, ends at 1.0
    values: np.ndarray  # length K, non-increasing, >= 0


def decreasing_rearrangement(dist: StepDistribution) -> RearrangementStep:
    """Sort |values| descending and accumulate weights into plateaus."""
    law = dist.abs_distribution()
    cuts = np.concatenate([[0.0], np.cumsum(law.weights[::-1])])
    cuts[-1] = 1.0  # float dust
    return RearrangementStep(cuts, law.values[::-1].copy())


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def norm(dist: StepDistribution, space: SpaceSpec, tol: float = DEFAULT_TOL) -> float:
    """Norm of (any function with) the given distribution in the space."""
    check_tol(tol)
    if space.kind == "lp":
        return dist.lp_norm(space.p)
    if space.kind == "linf":
        return dist.max_abs()
    if space.kind == "orlicz":
        return luxemburg_norm(dist, space.orlicz_fn, tol)
    if space.kind == "lorentz":
        return _lorentz_norm(dist, space.weight)
    if space.kind == "marcinkiewicz":
        return _marcinkiewicz_norm(dist, space.weight, tol)
    if space.kind == "explr":
        if space.method == "extrapolation":
            law = dist.abs_distribution()
            return max(law.lp_norm(p) / p ** (1.0 / space.r) for p in DEFAULT_P_GRID)
        return luxemburg_norm(dist, OrliczFunction.exponential(space.r), tol)
    raise InvalidArgumentError(f"unknown space kind {space.kind!r}")


def check_tol(tol):
    """InvalidArgumentError unless 0 < tol < 1; NaN is refused too."""
    if not 0 < tol < 1:
        raise InvalidArgumentError(f"tolerance must lie in (0, 1), got {tol}")


def luxemburg_norm(dist: StepDistribution, fn: OrliczFunction, tol: float = DEFAULT_TOL) -> float:
    """inf { lam > 0 : sum M(|v_i| / lam) w_i <= 1 } over the absolute law, by bisection.

    With c = M^{-1}(1) the bracket is [||x||_1 / c, ||x||_inf / c]: at its
    right end every M(|v_i| / lam) <= M(c) = 1, and at its left end Jensen's
    inequality for the convex M puts the modular at >= M(c) = 1.  A zero law
    gives [0, 0] and the norm 0.
    """
    check_tol(tol)
    law = dist.abs_distribution()
    vals, wts = law.values, law.weights
    c = fn.inverse(1.0)

    def feasible(lam):
        return float(np.sum(fn.apply(vals / lam) * wts)) <= 1.0

    return _bisect(feasible, float(np.sum(vals * wts)) / c, float(vals[-1]) / c, tol)


def _lorentz_norm(dist, weight):
    """integral of x* d(phi) as a finite Stieltjes sum over the plateaus."""
    rr = decreasing_rearrangement(dist)
    # phi(0) = 0, so the first increment is phi(t_1)
    return float(np.dot(rr.values, np.diff(weight.apply(rr.breakpoints))))


def _marcinkiewicz_norm(dist, weight, tol):
    """sup_t phi(t)/t * integral_0^t x*, maximized per plateau segment.

    On plateau i, with value v on (t0, t1] and b = integral_0^t0 x* - v t0
    >= 0, the objective is phi(t) (v + b/t).  For phi = log^-gamma(e/t) its
    derivative has the sign of h(t) = gamma (v t + b) - b log(e/t), and
    h' = gamma v + b/t > 0, so each segment peaks at an endpoint and the
    breakpoint maximum is exact for every gamma >= 0.  Other weights can
    peak inside a segment (phi = min(t/c, 1) does at c), so they also get
    a 33-point scan of every segment and a golden-section search in the
    bracket of its best scan point, vectorized over all segments.
    """
    rr = decreasing_rearrangement(dist)
    t0, t1, v = rr.breakpoints[:-1], rr.breakpoints[1:], rr.values
    area = np.cumsum(v * (t1 - t0))
    best = float(np.max(weight.apply(t1) * area / t1))
    if weight.kind == "log_power":
        return best

    def objective(t):
        return weight.apply(t) * (area + v * (t - t1)) / t

    scan = np.linspace(t0, t1, 34)  # row j is t0 + j (t1 - t0) / 33
    gv = objective(scan[1:])
    k = np.argmax(gv, axis=0)
    best = max(best, float(gv.max()))
    cols = np.arange(len(v))
    lo, hi = scan[k, cols], scan[np.minimum(k + 2, 33), cols]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    steps = math.log(float(np.max((hi - lo) / np.maximum(tol * t1, 1e-15))), 1.0 / g)
    for _ in range(max(math.ceil(steps), 0)):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        left = objective(c) >= objective(d)  # the peak lies in [lo, d]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    return max(best, float(np.max(objective(0.5 * (lo + hi)))))


def fundamental_function(space: SpaceSpec, t: float, tol: float = DEFAULT_TOL) -> float:
    """Norm of the indicator of a set of measure t in the space."""
    return norm(StepDistribution.indicator(t), space, tol)


# ---------------------------------------------------------------------------
# Coincidence and Fubini certificates
# ---------------------------------------------------------------------------


def coincidence_check(
    fn: OrliczFunction, weight: ConcaveWeight, eps: float, grid: int = 64, tol: float = DEFAULT_TOL
):
    """Certificate for the Orlicz/Marcinkiewicz coincidence conditions.

    Reports (i) the range of phi(t) * M^{-1}(1/t) over a log-spaced grid
    (the two-sided equivalence of the fundamental functions) and (ii) a
    numeric verdict on the finiteness of integral_0^1 M(eps / phi(t)) dt,
    summed over halving slabs toward 0 by :func:`_slab_integral`.  A power
    M has M(eps u) = eps^p M(u), so for every eps < 1 it is walked at 1 and
    the sum scaled by eps^(p/2) twice, rounding only the last product: the
    verdict is that of eps = 1, which the walk's absolute stop below a total
    of 1 could otherwise flip at a small eps, and M(eps / phi) never rounds
    in subnormals.  A walk at 1 that overflows gives way to the walk at eps.
    Against a log-power weight every
    stock M has a closed-form verdict (:func:`_log_weight_finite`), which a
    slab walk in float64 can miss either way: a divergent pair reports the
    estimate +inf, and a finite one walks the slabs for the estimate alone.
    """
    if not 0 < eps < math.inf:
        raise InvalidArgumentError(f"eps must be finite and positive, got {eps}")
    check_tol(tol)
    if grid < 16:
        raise InvalidArgumentError("ratio grid needs at least 16 points")

    with timed_report(
        "orlicz-marcinkiewicz-coincidence",
        {"eps": eps, "grid": grid, "tol": tol, "t_min": _RATIO_T_MIN, "weight": weight.label},
    ) as report:
        ts = np.geomspace(_RATIO_T_MIN, 1.0, grid)
        ratio = weight.apply(ts) * np.array([fn.inverse(1.0 / t) for t in ts])
        if not np.all(np.isfinite(ratio)):
            raise NumericFailureError("fundamental-function ratio is non-finite on the grid")
        ratio_min, ratio_max = float(ratio.min()), float(ratio.max())

        known = _log_weight_finite(fn, weight, eps)

        def walk(at):
            return _slab_integral(lambda t: fn.apply(at / weight.apply(t)), tol)

        finite, estimate = False, math.inf
        if known is not False and fn.kind == "power" and eps < 1:
            finite, estimate = walk(1.0)  # M(eps u) = eps^p M(u)
            half = eps ** (fn.param / 2)
            estimate = estimate * half * half if estimate < math.inf else estimate  # not inf * 0
        if known is not False and estimate == math.inf:
            finite, estimate = walk(eps)
        if known is not None:
            finite = known
        report.add("ratio_min", ratio_min, "info")
        report.add("ratio_max", ratio_max, "info")
        report.add(
            "ratio_spread",
            ratio_max / ratio_min if ratio_min > 0 else math.inf,
            "info",
        )
        report.add("ratio_positive", 1.0 if ratio_min > 0 else 0.0, "==", 1.0)
        report.add("integral_estimate", estimate, "info")
        report.add("integral_finite", 1.0 if finite else 0.0, "==", 1.0)
    return report


def _log_weight_finite(fn, weight, eps):
    """Whether integral_0^1 M(eps / phi(t)) dt is finite, for a log-power phi;
    None for any other weight.

    With L = log(e/t) >= 1 it is int_1^inf M(eps L^gamma) e^(1 - L) dL.  For
    M(u) = u^p that is eps^p e Gamma(gamma p + 1, 1), always finite.  For an
    exponential M the integrand past the splice point is
    exp(eps^r L^(gamma r)) - 1: finite iff gamma r < 1, or gamma r = 1 and
    eps < 1 (gamma = 0 makes it constant).
    """
    if weight.kind != "log_power":
        return None
    if fn.kind == "power":
        return True
    power = weight.gamma * fn.param
    return power < 1 or (power == 1 and eps < 1)


def _slab_integral(f, tol):
    """(finite, estimate) of integral_0^1 f over the slabs [2^-k-1, 2^-k].

    The slab ratio rho = slab / previous slab decides every stop.  Below 1
    the walk stops finite at total + slab rho / (1 - rho), the geometric
    tail, once that tail is below tol times the total or once two ratios in
    a row agree within 4 _GL_RTOL rho, the quadrature error of two slab
    ratios: those of an exact power law do, and its geometric tail is exact.
    Two such ratios within that error of 1 or above stop it divergent at the
    total so far, as does a last ratio at or above 1 at t = 2^-1000.  An
    integrand or a total that overflows is divergent (+inf); NaN, or a walk
    still shrinking at t = 2^-1000, is a failure.
    """
    total, prev_slab, prev_rho, lo = 0.0, 0.0, math.nan, 1.0
    for _ in range(_SLAB_LIMIT):
        hi, lo = lo, lo * 0.5
        mid = float(f(lo * math.sqrt(2.0)))  # the geometric midpoint, exactly
        if mid == math.inf:
            return False, math.inf
        if not math.isfinite(mid):
            raise NumericFailureError(f"integrand is {mid} at an interior point near t={lo:g}")
        slab = _gauss_legendre(f, lo, hi)
        total += slab
        if total == math.inf:
            return False, math.inf
        rho = slab / prev_slab if prev_slab else math.nan  # no ratio yet: NaN compares false
        steady = abs(rho - prev_rho) <= 4 * _GL_RTOL * rho
        if steady and rho >= 1 - 4 * _GL_RTOL:
            return False, total
        if rho < 1:
            tail = slab * rho / (1.0 - rho)
            if steady or tail < tol * max(1.0, total):
                return True, total + tail
        prev_slab, prev_rho = slab, rho
    if prev_rho >= 1:
        return False, total
    raise NumericFailureError("slab refinement did not settle finiteness")


def _gauss_legendre(f, lo, hi):
    """integral of f over [lo, hi] by the 40-node Gauss-Legendre rule, halving
    each piece until the 20-node rule agrees with it to _GL_RTOL of the slab."""
    total, scale, pieces = 0.0, None, [(lo, hi, 0)]
    while pieces:
        a, b, depth = pieces.pop()
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        coarse, fine = (half * float(np.dot(w, f(mid + half * x))) for x, w in _GL_RULES)
        scale = fine if scale is None else scale
        if not math.isfinite(fine) or abs(fine - coarse) <= _GL_RTOL * scale:
            total += fine
        elif depth == _GL_DEPTH:
            raise NumericFailureError(
                f"Gauss-Legendre quadrature did not settle on the slab [{lo:g}, {hi:g}] "
                f"after {_GL_DEPTH} halvings"
            )
        else:
            pieces += [(mid, b, depth + 1), (a, mid, depth + 1)]
    return total


def fubini_orlicz_check(z, fn: OrliczFunction, tol: float = DEFAULT_TOL):
    """Check the two-sided Orlicz bound for a kernel on a dyadic product grid.

    For z given cellwise on a (u, t) grid, verifies that the u-average of
    the Orlicz norms of the t-slices is at most twice the maximal Orlicz
    norm of a u-slice.
    """
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise InvalidArgumentError("kernel matrix is empty")
    if z.ndim != 2:
        raise InvalidArgumentError("kernel must be a 2-d matrix")
    rows, cols = z.shape
    if rows & (rows - 1) or cols & (cols - 1):
        raise InvalidArgumentError(f"grid dimensions must be powers of two, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise InvalidArgumentError("kernel entries must be finite")

    with timed_report(
        "fubini-orlicz", {"shape": f"{rows}x{cols}", "orlicz": fn.kind, "tol": tol}
    ) as report:
        wr = np.full(cols, 1.0 / cols)
        wc = np.full(rows, 1.0 / rows)
        lhs = float(
            np.mean([luxemburg_norm(StepDistribution(z[i], wr), fn, tol) for i in range(rows)])
        )
        rhs = 2.0 * max(
            luxemburg_norm(StepDistribution(z[:, j], wc), fn, tol) for j in range(cols)
        )
        report.add("avg_row_norm", lhs, "<=", rhs, tol=1e-12)
        report.add("double_max_col_norm", rhs, "info")
    return report

"""Quantitative certificates for Rademacher chaos systems.

Khintchine/Szarek moment bounds, moment growth tables, random sign
averages (the RUD functional), sup-norm concentration of randomized
chaos with Bernstein tails, fundamental-function lower bounds, and the
sum-set combinatorics driving asymptotic normality of the normalized
chaos sums.  All checks enumerate exactly and fall back to seeded,
counter-based Monte Carlo only where a cap demands it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .combdim import BlockChoice, gen_triangle
from .distribution import StepDistribution
from .errors import InvalidArgumentError, cap_error, check_cap
from .report import CertificateReport, timed_report
from .symspace import SpaceSpec, fundamental_function, norm
from .walsh import (DEFAULT_BITS_CAP, IndexSet, MultiIndex, distribution_exact, index_terms,
                    law_of, terms_law)

KHINTCHINE_MAX_COEFFS = 20
RUD_EXACT_MAX = 20
_SWEEP_BITS_CAP = 28  # pattern bits + configuration bits, see sign_concentration_check
CLT_PAIR_BUDGET = 10_000_000


@dataclass(frozen=True)
class VerificationParams:
    """Density and unconditionality parameters of one verification setup.

    alpha/beta are the super/sub density exponents, b the exponent of the
    target exponential space and delta the realized exponent log_n |A ∩ B|.
    """

    d: int
    alpha: float
    beta: float
    b: float
    delta: float = 0.0

    def __post_init__(self):
        if not 1 <= self.alpha <= self.beta <= self.d:
            raise InvalidArgumentError("need 1 <= alpha <= beta <= d")
        if not 1 <= self.b <= self.d:
            raise InvalidArgumentError("need 1 <= b <= d")
        if not 0 <= self.delta <= self.d:
            raise InvalidArgumentError("need 0 <= delta <= d")

    @property
    def hypothesis_margin(self):
        """Positive iff the density hypothesis alpha + b/beta > b + 1 holds."""
        return self.alpha + self.b / self.beta - (self.b + 1.0)


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Khintchine / moment growth
# ---------------------------------------------------------------------------


def khintchine_check(a, p) -> CertificateReport:
    """Exact p-norm of sum a_j r_j against the two-sided Khintchine bounds.

    Lower bound ||a||_2 / sqrt(2) holds for every p >= 1; the upper bound
    sqrt(max(p, 2)) ||a||_2 combines monotonicity of the moments with the
    sqrt(p) growth of the optimal constants.
    """
    a = [float(x) for x in a]
    if not a:
        raise InvalidArgumentError("coefficient list is empty")
    check_cap(len(a), KHINTCHINE_MAX_COEFFS, "coefficients of an exact Khintchine check",
              "sample the law of chaos_sum with distribution_mc and take its lp_norm")
    p = float(p)
    if not p >= 1:
        raise InvalidArgumentError(f"need p >= 1, got {p}")
    with timed_report("khintchine", {"k": len(a), "p": p}) as report:
        value = law_of(IndexSet.triangle(1, len(a)), a, bits_cap=len(a)).lp_norm(p)
        l2 = math.sqrt(sum(c * c for c in a))
        report.add("norm_l2_coeffs", l2, "info")
        report.add("moment", value, ">=", l2 / math.sqrt(2.0), tol=1e-12)
        report.add("moment_upper", value, "<=", math.sqrt(max(p, 2.0)) * l2, tol=1e-12)
    return report


@dataclass(frozen=True)
class MomentTable:
    """Exact p-norms with the fitted growth exponent of log||f||_p in log p."""

    rows: tuple  # of (p, norm)
    theta: float


def moment_table(f, p_list) -> MomentTable:
    """Exact p-norms of the law ``f``, or of the SignFunction ``f`` at the default bits cap."""
    p_list = [float(p) for p in p_list]
    if not p_list or not all(1 <= p < math.inf for p in p_list):
        raise InvalidArgumentError("p_list must be nonempty with all p finite and >= 1")
    law = (f if isinstance(f, StepDistribution) else distribution_exact(f)).abs_distribution()
    rows = tuple((p, law.lp_norm(p)) for p in p_list)
    norms = np.array([r[1] for r in rows])
    if len(rows) < 2 or np.any(norms <= 0):
        theta = 0.0
    else:
        theta = float(np.polyfit(np.log([r[0] for r in rows]), np.log(norms), 1)[0])
    return MomentTable(rows, theta)


def blei_bound_check(
    A: IndexSet, coeffs=None, beta=None, p_list=(1, 2, 4, 8, 16), bits_cap=DEFAULT_BITS_CAP
) -> CertificateReport:
    """Moment ratios ||S||_p / (p^(beta/2) ||a||_2) over a p range.

    The sharp constant in the p^(beta/2) moment bound is not pinned down,
    so the certificate only records the ratios and asserts that their
    maximum is finite and attained at a recorded p.  ``coeffs`` as in
    :func:`index_terms`, ``p_list`` as in :func:`moment_table`.
    """
    return _blei_check(A, coeffs, beta, p_list, bits_cap)[0]


def _blei_check(A, coeffs, beta, p_list, bits_cap):
    """(report, table) of :func:`blei_bound_check`: its report and the
    :func:`moment_table` of the one exact law that the ratios read."""
    if beta is None:
        beta = float(A.order)
    if not math.isfinite(beta):
        raise InvalidArgumentError(f"beta must be finite, got {beta}")
    with timed_report(
        "blei-moment-bound", {"size": len(A), "beta": beta, "p_list": tuple(p_list)}
    ) as report:
        c, keep, term_masks, k = index_terms(A, coeffs, bits_cap)
        l2 = math.sqrt(sum(x * x for x in c.tolist()))
        if l2 == 0.0:
            raise InvalidArgumentError("all coefficients are zero, so the ratios to ||a||_2 "
                                       "are undefined")
        best, best_p = -math.inf, None
        table = moment_table(terms_law(term_masks, c[keep], k), p_list)
        for p, lp in table.rows:
            ratio = lp / (p ** (beta / 2.0) * l2)
            report.add(f"ratio_p{p:g}", ratio, "info")
            if ratio > best:
                best, best_p = ratio, p
        report.add("max_ratio", best, "info")
        report.add("max_ratio_at_p", best_p, "info")
        report.add("max_ratio_finite", 1.0 if math.isfinite(best) else 0.0, "==", 1.0)
    return report, table


# ---------------------------------------------------------------------------
# Sign patterns modulo configuration shifts
# ---------------------------------------------------------------------------


def _exceeding_patterns(basis, m, lam):
    """Number of sign patterns u over m unit terms with sup_c |sum_t u_t chi_t(c)| > lam,
    ``basis`` the :func:`kernel.flip_code` H' of the terms.

    The sum at c is m - 2 wt(u xor chi(c)), and |m - 2w| > lam iff min(w, m - w) < t,
    t the number of weights w in 0..m with m - 2w > lam.  m - w is the weight of the
    word xor 1...1, so u exceeds iff the :func:`kernel.coset_leaders` weight of its
    coset of H' is below t, and every coset holds 2^rank(H') patterns.
    """
    t = sum(1 for w in range(m + 1) if m - 2 * w > lam)
    return int(np.count_nonzero(kernel.coset_leaders(basis, m) < t)) << len(basis)


# ---------------------------------------------------------------------------
# Random sign averages (RUD functional)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RudAverage:
    """Sign-averaged norm of a chaos sum versus its deterministic norm."""

    average: float
    deterministic_norm: float
    ratio: float
    stderr: float | None
    mode: str


def rud_average(
    Aprime: IndexSet,
    coeffs=None,
    space: SpaceSpec = None,
    samples=None,
    seed=0,
    bits_cap=DEFAULT_BITS_CAP,
    tol=1e-10,
) -> RudAverage:
    """Average over sign patterns u of || sum_j u_j a_j r_j ||_X.

    ``coeffs`` as in :func:`index_terms`.  Exact mode (samples=None) averages
    over all 2^|A'| patterns, Monte Carlo mode over seeded ones with a standard
    error.  The ratio to the all-plus pattern's (deterministic) norm is the
    empirical divergence constant.

    Exact mode runs one law per coset of the code H spanned by the shift
    code and the flip u -> -u (see :func:`kernel.flip_code`):
    2^(|keep| - rank H) laws for the |keep| nonzero coefficients.  Shifting
    the configuration by c turns pattern u into u chi(c), which negates and
    permutes butterfly inputs, exact in IEEE arithmetic; the flip negates
    the law, whose norm reads the same absolute law.  So every pattern of a
    coset has a bit-identical norm.  Every coset holds
    2^(|A'| - |keep| + rank H) patterns, so the average over all patterns is
    the mean of the coset norms: their ``math.fsum``, correctly rounded,
    divided exactly by the power of two that counts them.

    Both modes pass every pattern they need (the coset representatives, or
    the sampled patterns and then the all-plus one) to one :func:`kernel.law`
    call as the rows of a coefficient matrix.  The kernel settles the route
    once and runs one transform per block of patterns; the norm is still
    taken pattern by pattern, and every law is bit-identical to its own
    one-pattern call.
    """
    if space is None:
        raise InvalidArgumentError("a SpaceSpec is required")
    # pattern laws drop zero-coefficient terms, which then widen no support
    base, keep, term_masks, k = index_terms(Aprime, coeffs, bits_cap)
    m = base.size
    if keep.size == 0:
        raise InvalidArgumentError("all coefficients are zero, so the ratio to the "
                                   "deterministic norm is undefined")
    c = base[keep]

    def pattern_norms(signed):
        return [norm(law, space, tol) for law in terms_law(term_masks, signed, k)]

    if samples is not None:
        samples = int(samples)
        if samples < 1:
            raise InvalidArgumentError("sample count must be >= 1")
        bits = kernel.random_bits(seed, 0, samples, m)[keep].T
        *vals, det = pattern_norms(np.vstack([np.where(bits, -c, c), c]))
        vals = np.array(vals)
        avg = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
        return RudAverage(avg, det, det / avg, se, "mc")

    check_cap(m, RUD_EXACT_MAX, "pattern bits of an exact sign average",
              "pass samples= for a Monte Carlo average")
    # one law per coset of the shift code and the flip of the nonzero terms; a zero
    # term's sign changes no law and doubles every coset alike, so the mean keeps it out
    basis = kernel.flip_code(term_masks, k)
    reps = kernel.coset_reps(basis, c.size)
    coset_norms = pattern_norms(np.where((reps[:, None] >> np.arange(c.size, dtype=np.uint64)) & 1,
                                         -c, c))
    avg = math.fsum(coset_norms) / len(coset_norms)
    det = coset_norms[0]  # the all-plus pattern represents coset 0
    return RudAverage(avg, det, det / avg, None, "exact")


# ---------------------------------------------------------------------------
# Concentration of the randomized sup-norm
# ---------------------------------------------------------------------------


def _block_part(A, B):
    """(B as a BlockChoice, A ∩ B); refuses blocks not of A's order and an empty A ∩ B."""
    if not isinstance(B, BlockChoice):
        B = BlockChoice(B)
    AB = A.block_elements(B)
    if len(AB) == 0:
        raise InvalidArgumentError("A does not meet the block product")
    return B, AB


def sign_concentration_check(A: IndexSet, B: BlockChoice, threshold=None):
    """Exact exceedance of the randomized sup-norm against Bernstein tails.

    For the chaos over A ∩ B with d = A.order blocks of size n, computes the
    fraction q of sign patterns whose randomized sum exceeds sqrt(2d) n^((delta+1)/2)
    in sup-norm (delta the realized density exponent), and checks both
    q <= 2 (e/2)^(-dn) and the pointwise tail bound 2 exp(-lambda^2 / 2|A∩B|)
    at every configuration.  ``threshold`` overrides the default lambda.

    Shifting the configuration by c multiplies pattern u by the word chi(c)
    of the shift code H, so the sup over configurations is the max of
    |m - 2w| over the weights w of the coset u H, which is even in u -> -u:
    q counts the cosets of H' = H + <1...1> (:func:`kernel.flip_code`) whose
    :func:`kernel.coset_leaders` weight w has m - 2w > lambda, times |H'|, in
    r passes over the 2^(m - r) cosets, r = rank H'.  At any fixed configuration
    u -> u chi(c) is a bijection, so the pointwise tail is the binomial
    tail P(|sum of m signs| > lambda) everywhere.
    """
    B, AB = _block_part(A, B)
    d, m, n = A.order, len(AB), B.n
    _, _, term_masks, s = index_terms(AB)
    # the coset table holds 2^(m - rank H') bytes, and m + s <= 28 keeps m <= 23, as m
    # distinct terms need 2^s > m; the caps keep the refusal of the former pattern x
    # configuration sweep, which the benchmark's reference pins
    if s > 24 or m + s > _SWEEP_BITS_CAP:
        raise cap_error(m + s, _SWEEP_BITS_CAP,
                        f"pattern + configuration bits of the coset sweep ({m} + {s}, "
                        f"each part capped at 24)", "use smaller blocks")
    delta = math.log(m) / math.log(n) if n > 1 else 0.0
    lam = math.sqrt(2.0 * d * n * m) if threshold is None else float(threshold)
    if not math.isfinite(lam):
        raise InvalidArgumentError(f"threshold must be finite, got {lam}")

    with timed_report(
        "sign-concentration",
        {"d": d, "n": n, "intersection": m, "support_bits": s, "threshold": lam},
    ) as report:
        patterns = float(1 << m)
        q = _exceeding_patterns(kernel.flip_code(term_masks, s), m, lam) / patterns
        tail = sum(math.comb(m, w) for w in range(m + 1) if abs(m - 2 * w) > lam) / patterns
        point_bound = 2.0 * math.exp(-(lam**2) / (2.0 * m))
        # union over the at most 2^{dn} sign vectors of the monomial family;
        # at the default threshold this is exactly 2 (e/2)^{-dn}
        q_bound = 2.0 ** (d * n) * point_bound
        report.add("delta", delta, "info")
        report.add("sup_exceedance_fraction", q, "<=", q_bound)
        report.add("pointwise_tail_max", tail, "<=", point_bound)
        report.add("pointwise_tail_min", tail, "info")
    return report


def averaged_sup_growth(d, n_list, mc_samples=1000, seed=0):
    """Growth of deterministic / sign-averaged sup-norm over full triangles.

    For each n the chaos runs over the full triangle on {1..n}, m terms.
    The deterministic sup-norm is m: every monomial is +1 at the all-plus
    configuration.  The averaged one is estimated from seeded sign
    patterns u, whose sup is the :func:`kernel.coset_sup` of the coset u H, a
    sweep of mc_samples x 2^rank(H) cells.  The report checks that the ratio R(n)
    increases along n_list within three standard errors.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidArgumentError("n_list must be strictly increasing with >= 2 entries")
    check_cap(n_list[-1], 20, "triangle size n of the sup-growth sweep",
              "end n_list at n <= 20; each n sweeps mc_samples x 2^rank(H) cells")
    mc_samples = int(mc_samples)
    if mc_samples < 2:
        raise InvalidArgumentError("need at least 2 samples")

    with timed_report(
        "averaged-sup-growth", {"d": d, "n_list": tuple(n_list), "samples": mc_samples, "seed": seed}
    ) as report:
        ratios = []
        for idx, n in enumerate(n_list):
            term_masks = index_terms(gen_triangle(d, n))[2]  # support 1..n
            m = len(term_masks)
            patterns = kernel.random_words(seed, idx << 96, mc_samples, m)
            # float32 sups: their mean and std accumulate in float32
            sups = kernel.coset_sup(patterns, kernel.shift_code(term_masks, n), m).astype(np.float32)
            det = float(m)
            avg = float(sups.mean())
            se = float(sups.std(ddof=1) / math.sqrt(mc_samples))
            R = det / avg
            se_R = det * se / avg**2
            ratios.append((n, R, se_R))
            report.add(f"deterministic_sup_n{n}", det, "info")
            report.add(f"averaged_sup_n{n}", avg, "info")
            report.add(f"ratio_n{n}", R, "info")
            report.add(f"ratio_se_n{n}", se_R, "info")
        for (n0, r0, s0), (n1, r1, s1) in zip(ratios, ratios[1:]):
            report.add(f"ratio_increase_{n0}_to_{n1}", r1 - r0, ">=", 0.0, tol=3.0 * (s0 + s1))
    return report


def lower_bound_check(A: IndexSet, B: BlockChoice, space: SpaceSpec, tol=1e-10, bits_cap=DEFAULT_BITS_CAP):
    """Norm of the block chaos against |A ∩ B| phi_X(2^{-dn}).

    On the cell where every participating Rademacher function is +1 the
    sum takes the value |A ∩ B|, so the norm dominates the indicator bound
    through the fundamental function.
    """
    B, AB = _block_part(A, B)
    d, m, n = A.order, len(AB), B.n
    with timed_report(
        "fundamental-lower-bound",
        {"d": d, "n": n, "intersection": m, "space": space.describe()},
    ) as report:
        lhs = norm(law_of(AB, bits_cap=bits_cap), space, tol)
        rhs = m * fundamental_function(space, 2.0 ** (-d * n), tol)
        report.add("chaos_norm", lhs, ">=", rhs, tol=1e-9)
        report.add("indicator_bound", rhs, "info")
    return report


# ---------------------------------------------------------------------------
# Sum-set combinatorics for asymptotic normality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarCounts:
    """Per-index incidence counts of A_N: how many elements contain k."""

    counts: np.ndarray  # counts[k-1] = |{t in A_N : k in t}|
    max_count: int
    argmax_k: int
    ratio: float  # max_count / |A_N|


def clt_star(A: IndexSet, N) -> StarCounts:
    """Exact |A*_{N,k}| for all k in [1, N] plus the normalized maximum."""
    N = int(N)
    if N < 3:
        raise InvalidArgumentError(f"need N >= 3, got {N}")
    arr = A.restrict(N).to_array()
    if arr.shape[0] == 0:
        raise InvalidArgumentError(f"A restricted to entries <= {N} is empty")
    counts = np.bincount(arr.ravel(), minlength=N + 1)[1:]
    max_count = int(counts.max())
    argmax_k = int(np.argmax(counts) + 1)
    ratio = max_count / arr.shape[0]
    return StarCounts(counts, max_count, argmax_k, ratio)


def clt_sharp(A: IndexSet, N, budget=CLT_PAIR_BUDGET):
    """Ordered pairs of disjoint-support elements whose entry union recurs.

    A pair (u, v) from A_N with disjoint entry sets qualifies when some
    pair (u1, v1) in A_N has the same 2d-element entry union with
    u1 distinct from both u and v.  Equivalently, the union must be
    decomposable into disjoint element pairs in more than one way.
    """
    N = int(N)
    if A.order < 2:
        raise InvalidArgumentError("sharp pairs need order >= 2")
    arr = A.restrict(N).to_array()
    size = arr.shape[0]
    check_cap(size * size, budget, f"element pairs ({size}^2) of the sharp-pair search",
              "use clt_star, which counts incidences without pairs, or a smaller N")
    if size < 2:
        return []
    # entry set of each element as little-endian uint64 words: bit v % 64 of word v // 64
    words = np.zeros((size, int(arr.max()) // 64 + 1), dtype=np.uint64)
    rows = np.arange(size)
    for col in arr.T:  # a column repeats no row, so no cell is set twice in one buffered |=
        words[rows, col // 64] |= np.uint64(1) << (col % 64).astype(np.uint64)
    # the least entry of a disjoint pair's union lies in exactly one of its two
    # elements, so unions recur only among pairs bucketed by that entry: the
    # elements x whose least entry it is, with the elements y of larger least entry
    least = arr[:, -1]
    firsts, seconds = [], []
    for m in np.unique(least).tolist():
        xs, ys = np.flatnonzero(least == m), np.flatnonzero(least > m)
        pairs_x, pairs_y = [], []
        step = max(1, (1 << 18) // max(1, ys.size))
        for start in range(0, xs.size, step):  # at most 2^18 cells at a time
            bx = xs[start : start + step]
            meet = np.zeros((bx.size, ys.size), dtype=bool)
            for word in words.T:
                meet |= (word[bx, None] & word[None, ys]) != 0
            r, c = np.nonzero(~meet)
            pairs_x.append(bx[r])
            pairs_y.append(ys[c])
        first, second = np.concatenate(pairs_x), np.concatenate(pairs_y)
        unions = words[first] | words[second]
        # a union recurs when it equals a neighbour in sorted order
        order = np.lexsort(unions.T)
        unions = unions[order]
        same = np.all(unions[1:] == unions[:-1], axis=1)
        recurs = np.zeros(len(order), dtype=bool)
        recurs[1:] |= same
        recurs[:-1] |= same
        firsts.append(first[order[recurs]])
        seconds.append(second[order[recurs]])
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    # rows are in lexicographic order, so sorting index pairs sorts the element pairs
    u, v = np.concatenate([first, second]), np.concatenate([second, first])
    by_pair = np.lexsort((v, u))
    elems = {k: MultiIndex(arr[k]) for k in np.unique(u).tolist()}
    return [(elems[a], elems[b]) for a, b in zip(u[by_pair].tolist(), v[by_pair].tolist())]


def clt_criteria(A: IndexSet, N_list, star_threshold=0.15, sharp_threshold=1e-12):
    """Normality criteria table: incidence and recurring-union ratios per N.

    Passes when both ratio columns are non-increasing along N_list and
    their final values are below the configured thresholds.
    """
    N_list = [int(N) for N in N_list]
    if len(N_list) < 1 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise InvalidArgumentError("N_list must be strictly increasing")
    if not math.isfinite(star_threshold) or not math.isfinite(sharp_threshold):
        raise InvalidArgumentError(f"thresholds must be finite, got {star_threshold}, "
                                   f"{sharp_threshold}")
    with timed_report(
        "clt-criteria",
        {
            "N_list": tuple(N_list),
            "star_threshold": star_threshold,
            "sharp_threshold": sharp_threshold,
        },
    ) as report:
        star_ratios, sharp_ratios = [], []
        for N in N_list:
            card = len(A.restrict(N))
            star = clt_star(A, N)
            sharp = clt_sharp(A, N)
            s_ratio = star.ratio
            sh_ratio = len(sharp) / card**2
            star_ratios.append(s_ratio)
            sharp_ratios.append(sh_ratio)
            report.add(f"card_N{N}", card, "info")
            report.add(f"star_ratio_N{N}", s_ratio, "info")
            report.add(f"sharp_ratio_N{N}", sh_ratio, "info")
        for k in range(1, len(N_list)):
            for name, ratios in (("star", star_ratios), ("sharp", sharp_ratios)):
                report.add(f"{name}_nonincreasing_N{N_list[k]}", ratios[k], "<=", ratios[k - 1],
                           tol=1e-12)
        report.add("star_ratio_final", star_ratios[-1], "<=", star_threshold)
        report.add("sharp_ratio_final", sharp_ratios[-1], "<=", sharp_threshold)
    return report


@dataclass(frozen=True)
class NormalizedSum:
    """Exact law of the L2-normalized chaos sum with its normal distance."""

    distribution: StepDistribution
    l2_norm: float
    ks_distance: float
    size: int  # |A_N|


def normalized_sum_cdf(A: IndexSet, N, bits_cap=DEFAULT_BITS_CAP) -> NormalizedSum:
    """Distribution of S_N = |A_N|^{-1/2} sum of monomials, and its
    Kolmogorov distance to the standard normal law.

    The distance sup_x |F(x) - Phi(x)| of a step CDF is attained at an
    atom from one side or the other, so both one-sided limits are checked
    at every atom.
    """
    N = int(N)
    arr = A.restrict(N)
    m = len(arr)
    if m == 0:
        raise InvalidArgumentError(f"A restricted to entries <= {N} is empty")
    dist = law_of(arr, bits_cap=bits_cap).scaled(1.0 / math.sqrt(m))  # integer law, then scaled
    l2 = dist.lp_norm(2)
    F = dist.cdf()
    ks = 0.0
    prev = 0.0
    for x, Fx in zip(dist.values.tolist(), F.tolist()):
        phi = _normal_cdf(x)
        ks = max(ks, abs(Fx - phi), abs(prev - phi))
        prev = Fx
    return NormalizedSum(dist, l2, ks, m)

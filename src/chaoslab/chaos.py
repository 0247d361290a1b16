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
from .errors import InvalidArgumentError, NumericFailureError, ResourceLimitError
from .report import CertificateReport, timed_report
from .symspace import SpaceSpec, fundamental_function, norm
from .walsh import (
    DEFAULT_BITS_CAP,
    IndexSet,
    MultiIndex,
    SignFunction,
    chaos_sum,
    distribution_exact,
    unit_coefficients,
)

KHINTCHINE_MAX_COEFFS = 20
RUD_EXACT_MAX = 20
_PATTERN_CHUNK = 1 << 14
_SWEEP_BITS_CAP = 28  # pattern bits + configuration bits, see sign_concentration_check
_SWEEP_CELL_BITS = 16  # log2 of the pattern x codeword cells per block of the coset sweep
_SUP_BLOCK_ENTRIES = 1 << 21  # float32 entries per configuration block of the sup sweep
CLT_PAIR_BUDGET = 10_000_000


@dataclass(frozen=True)
class VerificationParams:
    """Density and unconditionality parameters of one verification setup.

    alpha/beta are the super/sub density exponents, b the exponent of the
    target exponential space, delta the realized exponent log_n |A ∩ B|,
    and rud_constant a candidate for the random-divergence constant.
    """

    d: int
    alpha: float
    beta: float
    b: float
    delta: float = 0.0
    rud_constant: float = 1.0

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
    if len(a) > KHINTCHINE_MAX_COEFFS:
        raise ResourceLimitError(
            f"{len(a)} coefficients exceed the exact enumeration cap of "
            f"{KHINTCHINE_MAX_COEFFS}",
            required=len(a),
            budget=KHINTCHINE_MAX_COEFFS,
        )
    p = float(p)
    if p < 1:
        raise InvalidArgumentError(f"need p >= 1, got {p}")
    with timed_report("khintchine", {"k": len(a), "p": p}) as report:
        f = chaos_sum({(j,): c for j, c in enumerate(a, start=1)})
        value = distribution_exact(f, bits_cap=len(a)).lp_norm(p)
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


def moment_table(f: SignFunction, p_list, bits_cap=DEFAULT_BITS_CAP) -> MomentTable:
    p_list = [float(p) for p in p_list]
    if not p_list or any(p < 1 for p in p_list):
        raise InvalidArgumentError("p_list must be nonempty with all p >= 1")
    dist = distribution_exact(f, bits_cap)
    rows = tuple((p, dist.lp_norm(p)) for p in p_list)
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
    maximum is finite and attained at a recorded p.
    """
    if beta is None:
        beta = float(A.order)
    if coeffs is None:
        coeffs = unit_coefficients(A)
    with timed_report(
        "blei-moment-bound", {"size": len(coeffs), "beta": beta, "p_list": tuple(p_list)}
    ) as report:
        f = chaos_sum(coeffs)
        dist = distribution_exact(f, bits_cap)
        l2 = math.sqrt(sum(c * c for c in coeffs.values()))
        best, best_p = -math.inf, None
        for p in p_list:
            p = float(p)
            ratio = dist.lp_norm(p) / (p ** (beta / 2.0) * l2)
            report.add(f"ratio_p{p:g}", ratio, "info")
            if ratio > best:
                best, best_p = ratio, p
        report.add("max_ratio", best, "info")
        report.add("max_ratio_at_p", best_p, "info")
        report.add("max_ratio_finite", 1.0 if math.isfinite(best) else 0.0, "==", 1.0)
    return report


# ---------------------------------------------------------------------------
# Sign patterns modulo configuration shifts
# ---------------------------------------------------------------------------


def _shift_code(term_masks, s, extra=()):
    """Reduced basis {pivot bit: word} of the shift code H = {chi(c)}.

    Bit t of chi(c) is set where monomial t (mask ``term_masks[t]`` over s
    support bits) is -1 at configuration c, so shifting the configuration
    by c multiplies sign pattern u by chi(c).  H is spanned by the s
    coordinate rows (bit t set where term t contains coordinate j), and
    the words ``extra`` join the span.  Every basis word is zero on the
    other pivot bits, so the words zero on every pivot bit are one
    representative per coset of H.
    """
    rows = [sum(((mask >> j) & 1) << t for t, mask in enumerate(term_masks)) for j in range(s)]
    basis = {}
    for w in [*rows, *extra]:
        for p, b in basis.items():
            if (w >> p) & 1:
                w ^= b
        if w:
            p = w.bit_length() - 1
            for q, b in basis.items():
                if (b >> p) & 1:
                    basis[q] = b ^ w
            basis[p] = w
    return basis


def _span(gens, low_bits):
    """(low, offsets): the XOR combinations of ``gens`` in counter order,
    where bit i of the counter picks gens[i], are ``low ^ off`` for each
    ``off`` in ``offsets``; ``low`` is the uint64 span of the first
    ``low_bits`` generators."""
    low = np.zeros(1, dtype=np.uint64)
    for g in gens[:low_bits]:
        low = np.concatenate([low, low ^ np.uint64(g)])
    offsets = [0]
    for g in gens[low_bits:]:
        offsets += [o ^ g for o in offsets]
    return low, offsets


def _exceeding_patterns(basis, m, lam):
    """Number of sign patterns u over m unit terms with sup_c |sum_t u_t chi_t(c)| > lam.

    The sum at c is m - 2 wt(u xor chi(c)), so u exceeds iff its coset of
    H holds a word of weight w with |m - 2w| > lam, which happens iff the
    coset's least or greatest weight does.  Representatives and codewords
    are both streamed, in blocks of 2^_SWEEP_CELL_BITS cells together.
    """
    exceeds = np.array([abs(m - 2 * w) > lam for w in range(m + 1)])  # by weight
    free = [t for t in range(m) if t not in basis]
    code_bits = min(len(basis), _SWEEP_CELL_BITS)
    code_low, code_offsets = _span(list(basis.values()), code_bits)
    reps_low, reps_offsets = _span([1 << t for t in free], _SWEEP_CELL_BITS - code_bits)
    count = 0
    for r_off in reps_offsets:
        reps = (reps_low ^ np.uint64(r_off))[:, None]
        least = np.full(reps.shape[0], m, dtype=np.uint8)
        most = np.zeros(reps.shape[0], dtype=np.uint8)
        for c_off in code_offsets:
            w = np.bitwise_count(reps ^ (code_low ^ np.uint64(c_off)))
            np.minimum(least, w.min(axis=1), out=least)
            np.maximum(most, w.max(axis=1), out=most)
        count += int(np.count_nonzero(exceeds[least] | exceeds[most]))
    return count << len(basis)


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

    Exact mode (samples=None) averages over all 2^|A'| patterns; Monte
    Carlo mode draws seeded patterns and reports a standard error.  The
    ratio deterministic / average is the empirical divergence constant.

    Exact mode runs one law per coset of the shift code H (see
    ``_shift_code``), 2^(|keep| - rank) laws for the |keep| nonzero
    coefficients.  Shifting the configuration by c turns pattern u into
    u chi(c); in the transform this only negates and permutes butterfly
    inputs, which IEEE arithmetic does exactly, so every pattern of a
    coset has a bit-identical law and norm.  The norms are summed in
    pattern order, as a per-pattern loop would.  The global flip u -> -u
    is not folded in: it reorders the atoms, and the norm sums them in
    another order, so the flipped norm may differ in the last bits.
    """
    if space is None:
        raise InvalidArgumentError("a SpaceSpec is required")
    elements = list(Aprime.tuples())
    if not elements:
        raise InvalidArgumentError("index set is empty")
    if coeffs is None:
        coeffs = {t: 1.0 for t in elements}
    else:
        coeffs = {MultiIndex(k): float(v) for k, v in coeffs.items()}
        missing = [t for t in elements if t not in coeffs]
        if missing:
            raise InvalidArgumentError(f"coefficients missing for {len(missing)} elements")
        extra = set(coeffs).difference(elements)
        if extra:
            raise InvalidArgumentError(f"coefficients given for {len(extra)} keys outside A'")
    base = np.array([coeffs[t] for t in elements])
    m = len(elements)

    det = norm(distribution_exact(chaos_sum(coeffs), bits_cap), space, tol)

    # pattern laws drop zero-coefficient terms, which then widen no support
    keep = np.flatnonzero(base)
    support = sorted({j for i in keep for j in elements[i]})
    term_masks, k = kernel.masks([elements[i] for i in keep], support), len(support)

    def pattern_norm(c):
        values, counts = kernel.law(term_masks, c, k)
        return norm(StepDistribution(values, counts / (1 << k)), space, tol)

    if samples is not None:
        samples = int(samples)
        if samples < 1:
            raise InvalidArgumentError("sample count must be >= 1")
        U = kernel.random_signs(seed, 0, samples, m)
        vals = np.fromiter((pattern_norm(c) for c in U[:, keep] * base[keep]), float)
        avg = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
        return RudAverage(avg, det, det / avg, se, "mc")

    if m > RUD_EXACT_MAX:
        raise ResourceLimitError(
            f"exact sign average over 2^{m} patterns exceeds the cap "
            f"2^{RUD_EXACT_MAX}; pass samples= for Monte Carlo",
            required=m,
            budget=RUD_EXACT_MAX,
        )
    # one law per coset of the shift code; a zero-coefficient term's sign
    # changes no law, so its unit word joins the code
    pattern_masks = dict(zip(keep.tolist(), term_masks))
    dropped = [1 << t for t in range(m) if t not in pattern_masks]
    basis = _shift_code([pattern_masks.get(t, 0) for t in range(m)], k, dropped)
    free = [t for t in range(m) if t not in basis]
    reps = _span([1 << t for t in free], len(free))[0].tolist()
    coset_norms = np.array(
        [pattern_norm(np.where((rep >> keep) & 1, -base[keep], base[keep])) for rep in reps]
    )
    # pattern p reduces to its representative p xor (the basis words of its
    # pivot bits), a linear map: bit t of p flips bits index[t] of the
    # representative's rank, its free bits read as a counter
    index = []
    for t in range(m):
        word = (1 << t) ^ basis.get(t, 0)
        index.append(sum(((word >> f) & 1) << i for i, f in enumerate(free)))
    low, offsets = _span(index, _PATTERN_CHUNK.bit_length() - 1)
    total = 0.0
    for off in offsets:  # running sum in pattern order, one block of patterns at a time
        vals = coset_norms[low ^ np.uint64(off)]
        vals[0] += total
        total = float(np.cumsum(vals)[-1])
    avg = total / (1 << m)
    return RudAverage(avg, det, det / avg, None, "exact")


# ---------------------------------------------------------------------------
# Concentration of the randomized sup-norm
# ---------------------------------------------------------------------------


def sign_concentration_check(A: IndexSet, B: BlockChoice, d=None, threshold=None):
    """Exact exceedance of the randomized sup-norm against Bernstein tails.

    For the chaos over A ∩ B with blocks of size n, computes the fraction
    q of sign patterns whose randomized sum exceeds sqrt(2d) n^((delta+1)/2)
    in sup-norm (delta the realized density exponent), and checks both
    q <= 2 (e/2)^(-dn) and the pointwise tail bound 2 exp(-lambda^2 / 2|A∩B|)
    at every configuration.  ``threshold`` overrides the default lambda.

    Shifting the configuration by c multiplies pattern u by the word chi(c)
    of the shift code H (see ``_shift_code``), so the sup over
    configurations is a max over the coset u H: q counts the cosets that
    hold a word of weight w with |m - 2w| > lambda, one representative
    each, times |H|.  The sweep visits 2^m pattern x codeword cells.  At
    any fixed configuration u -> u chi(c) is a bijection, so the pointwise
    tail is the binomial tail P(|sum of m signs| > lambda) everywhere.
    """
    if not isinstance(B, BlockChoice):
        B = BlockChoice(B)
    if d is None:
        d = A.order
    if d != A.order or B.order != d:
        raise InvalidArgumentError(
            f"order mismatch: set order {A.order}, blocks {B.order}, d={d}"
        )
    AB = A.block_elements(B)
    m = len(AB)
    if m == 0:
        raise InvalidArgumentError("A does not meet the block product")
    n = B.n
    elements = list(AB.tuples())
    support = sorted({j for t in elements for j in t})
    s = len(support)
    # the coset sweep needs only m <= 24; the support terms keep the refusal
    # of the former pattern x configuration sweep, which bench/reference.json pins
    if m > 24 or s > 24 or m + s > _SWEEP_BITS_CAP:
        raise ResourceLimitError(
            f"the coset sweep over {m} pattern bits is capped at 24 pattern bits, "
            f"24 configuration bits ({s} here) and {_SWEEP_BITS_CAP} combined "
            f"({m + s} here) — use smaller blocks",
            required=m + s,
            budget=_SWEEP_BITS_CAP,
        )
    delta = math.log(m) / math.log(n) if n > 1 else 0.0
    lam = math.sqrt(2.0 * d * n * m) if threshold is None else float(threshold)

    with timed_report(
        "sign-concentration",
        {"d": d, "n": n, "intersection": m, "support_bits": s, "threshold": lam},
    ) as report:
        basis = _shift_code(kernel.masks(elements, support), s)
        patterns = float(1 << m)
        q = _exceeding_patterns(basis, m, lam) / patterns
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

    For each n the chaos runs over the full triangle on {1..n}; the
    deterministic sup-norm is the set size (all monomials are +1 near 0),
    the averaged one is estimated from seeded sign patterns.  The report
    checks that the ratio R(n) increases along n_list within three
    standard errors.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidArgumentError("n_list must be strictly increasing with >= 2 entries")
    if n_list[-1] > 20:
        raise ResourceLimitError(
            f"2^{n_list[-1]} configurations exceed the sweep cap 2^20",
            required=n_list[-1],
            budget=20,
        )
    mc_samples = int(mc_samples)
    if mc_samples < 2:
        raise InvalidArgumentError("need at least 2 samples")

    with timed_report(
        "averaged-sup-growth", {"d": d, "n_list": tuple(n_list), "samples": mc_samples, "seed": seed}
    ) as report:
        ratios = []
        for idx, n in enumerate(n_list):
            elements = list(gen_triangle(d, n).tuples())  # support 1..n
            term_masks = kernel.masks(elements, range(1, n + 1))
            U = kernel.random_signs(seed, idx << 96, mc_samples, len(elements))
            # stream blocks of configurations so memory stays bounded at any n
            per_cfg = len(elements) + mc_samples
            block = 1 << min(16, max(0, (_SUP_BLOCK_ENTRIES // per_cfg).bit_length() - 1))
            det = 0.0
            sups = np.zeros(mc_samples, dtype=np.float32)
            for start in range(0, 1 << n, block):
                S = kernel.sign_matrix(term_masks, start, min(start + block, 1 << n))
                det = max(det, float(np.abs(S.sum(axis=1)).max()))
                G = U @ S.T
                np.abs(G, out=G)
                np.maximum(sups, G.max(axis=1), out=sups)
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
    if not isinstance(B, BlockChoice):
        B = BlockChoice(B)
    if B.order != A.order:
        raise InvalidArgumentError("block order must match the set order")
    AB = A.block_elements(B)
    m = len(AB)
    if m == 0:
        raise InvalidArgumentError("A does not meet the block product")
    d, n = A.order, B.n
    with timed_report(
        "fundamental-lower-bound",
        {"d": d, "n": n, "intersection": m, "space": space.describe()},
    ) as report:
        f = chaos_sum(unit_coefficients(AB))
        lhs = norm(distribution_exact(f, bits_cap), space, tol)
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
    if A.structure == "sum-set" and max_count > 3 * N:
        raise NumericFailureError(
            f"sum-set incidence bound violated: {max_count} > 3N={3 * N}"
        )  # pragma: no cover - impossible unless the generator is broken
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
    if size * size > budget:
        raise ResourceLimitError(
            f"{size}^2 element pairs exceed the budget of {budget}",
            required=size * size,
            budget=budget,
        )
    elems = [tuple(int(v) for v in row) for row in arr]
    supports = [frozenset(t) for t in elems]
    groups = {}
    for i in range(size):
        si = supports[i]
        for j in range(i + 1, size):
            if si.isdisjoint(supports[j]):
                key = tuple(sorted(si | supports[j]))
                groups.setdefault(key, []).append((i, j))
    out = []
    for pairs in groups.values():
        if len(pairs) < 2:
            continue
        for i, j in pairs:
            out.append((MultiIndex(elems[i]), MultiIndex(elems[j])))
            out.append((MultiIndex(elems[j]), MultiIndex(elems[i])))
    out.sort()
    return out


def clt_criteria(A: IndexSet, N_list, star_threshold=0.15, sharp_threshold=1e-12):
    """Normality criteria table: incidence and recurring-union ratios per N.

    Passes when both ratio columns are non-increasing along N_list and
    their final values are below the configured thresholds.
    """
    N_list = [int(N) for N in N_list]
    if len(N_list) < 1 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise InvalidArgumentError("N_list must be strictly increasing")
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
            report.add(
                f"star_nonincreasing_N{N_list[k]}",
                star_ratios[k],
                "<=",
                star_ratios[k - 1],
                tol=1e-12,
            )
            report.add(
                f"sharp_nonincreasing_N{N_list[k]}",
                sharp_ratios[k],
                "<=",
                sharp_ratios[k - 1],
                tol=1e-12,
            )
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
    f = chaos_sum(unit_coefficients(arr))  # scaled after the law: integer kernel, symmetric atoms
    dist = distribution_exact(f, bits_cap).scaled(1.0 / math.sqrt(m))
    l2 = dist.lp_norm(2)
    F = dist.cdf()
    ks = 0.0
    prev = 0.0
    for x, Fx in zip(dist.values.tolist(), F.tolist()):
        phi = _normal_cdf(x)
        ks = max(ks, abs(Fx - phi), abs(prev - phi))
        prev = Fx
    return NormalizedSum(dist, l2, ks, m)

"""Rademacher functions and chaos sums on the sign hypercube.

The j-th Rademacher function is the dyadic sign function
``r_j(t) = (-1)^floor(2^j t)`` on [0, 1).  A chaos monomial is a product
of distinct Rademacher functions indexed by a strictly decreasing
multi-index, and finite linear combinations of monomials are represented
as sparse Walsh polynomials (:class:`SignFunction`).  A chaos over an
index set skips them: :func:`index_terms` builds its kernel input from
the set's rows, and :func:`law_of` gives its exact law.  Laws come from
enumerating the sign configurations, or from seeded counter-based Monte
Carlo past the cap.  The enumeration and the sampling run in :mod:`kernel`:
monomials are uint64 masks over the ascending support, configurations
are uint64 words and a monomial's sign is the parity of their AND.
Every exact law comes from :func:`kernel.law`, which picks the route:
integer coefficients with absolute sum at most 2^31 - 1 take a
Walsh-Hadamard transform in the narrowest of int8, int16 and int32 that
holds that sum, over the configurations of the F2-rank of the masks,
other coefficients float64 transforms over all 2^k configurations, both
in blocks of at most 2^``kernel.LAW_BLOCK_BITS`` entries.  The hard cap of
2^``kernel.HARD_CAP_BITS`` configurations lives in :mod:`kernel`; this
module checks only the caller's ``bits_cap``, and the dyadic cell count,
which may exceed the support width, against the kernel's cap.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .distribution import StepDistribution
from .errors import EmptyInputError, InvalidArgumentError, ResolutionError, check_cap
from . import kernel

DEFAULT_BITS_CAP = 24
_MATERIALIZE_CAP = 5_000_000  # rows when materializing an implicit set


class MultiIndex(tuple):
    """Strictly decreasing tuple of positive integers (j1 > j2 > ... >= 1)."""

    def __new__(cls, entries):
        if isinstance(entries, (int, np.integer)):
            entries = (entries,)
        t = tuple(int(j) for j in entries)
        if not t:
            raise InvalidArgumentError("multi-index needs at least one entry")
        if t[-1] < 1:
            raise InvalidArgumentError(f"multi-index entries must be >= 1: {t}")
        if any(a <= b for a, b in zip(t, t[1:])):
            raise InvalidArgumentError(f"multi-index entries must strictly decrease: {t}")
        return super().__new__(cls, t)

    @property
    def order(self):
        return len(self)


def _ascending(arr):
    """Whether each row of the int64 matrix ``arr`` is lexicographically less
    than the next, read a column at a time into one step buffer and one mask."""
    ordered = np.zeros(max(len(arr) - 1, 0), dtype=bool)  # consecutive rows told apart so far
    step = np.empty(ordered.size, dtype=np.int64)
    for col in arr.T:
        np.subtract(col[1:], col[:-1], out=step)  # entries >= 1: no overflow
        np.copyto(step, 1, where=ordered)
        if step.min(initial=1) < 0:
            return False
        np.greater(step, 0, out=ordered)
    return bool(ordered.all())


class IndexSet:
    """Finite set of multi-indices of one order.

    Backed either by an explicit (size, d) integer array with unique,
    lexicographically sorted rows, or implicitly by the full triangle
    {(j1, ..., jd) : J >= j1 > ... > jd >= 1}, which for large J is far
    too big to materialize but still supports exact counting.
    """

    __slots__ = ("order", "_array", "_triangle_max")

    def __init__(self, order, array=None, triangle_max=None):
        if order < 1:
            raise InvalidArgumentError("order must be >= 1")
        self.order = int(order)
        if triangle_max is not None:
            self._triangle_max = int(triangle_max)
            self._array = None
            return
        self._triangle_max = None
        try:
            arr = np.asarray(array, dtype=np.int64)
        except OverflowError as exc:
            raise InvalidArgumentError(f"element entries must fit in int64: {exc}") from exc
        if arr.size == 0:
            arr = arr.reshape(0, self.order)
        if arr.ndim != 2 or arr.shape[1] != self.order:
            raise InvalidArgumentError("element array must have shape (size, order)")
        bad = np.flatnonzero((arr[:, -1] < 1) | np.any(np.diff(arr, axis=1) >= 0, axis=1))
        if bad.size:
            raise InvalidArgumentError(f"elements must be strictly decreasing positive tuples: "
                                       f"{tuple(arr[bad[0]].tolist())}")
        # canonical order: unique rows, lexicographic over the tuples, in an array of our own
        arr = arr.copy() if _ascending(arr) else np.unique(arr, axis=0)
        self._array = arr
        self._array.setflags(write=False)

    @classmethod
    def from_tuples(cls, tuples, order=None):
        elems = [MultiIndex(t) for t in tuples]
        if not elems:
            if order is None:
                raise InvalidArgumentError("order required for an empty index set")
            return cls(order, array=np.empty((0, order), dtype=np.int64))
        d = elems[0].order
        if any(e.order != d for e in elems):
            raise InvalidArgumentError("all elements must share one order")
        if order is not None and order != d:
            raise InvalidArgumentError(f"declared order {order} != element order {d}")
        return cls(d, array=np.array(elems, dtype=np.int64))

    @classmethod
    def triangle(cls, order, max_index):
        if not 1 <= order <= max_index:
            raise InvalidArgumentError(
                f"need max_index >= order >= 1, got order={order}, max={max_index}")
        return cls(order, triangle_max=max_index)

    @property
    def is_triangle(self):
        return self._triangle_max is not None

    def __len__(self):
        if self.is_triangle:
            return math.comb(self._triangle_max, self.order)
        return int(self._array.shape[0])

    @property
    def max_index(self):
        if self.is_triangle:
            return self._triangle_max
        if self._array.shape[0] == 0:
            return 0
        return int(self._array[:, 0].max())

    def __contains__(self, item):
        try:
            t = MultiIndex(item)
        except InvalidArgumentError:
            return False
        if t.order != self.order:
            return False
        if self.is_triangle:
            return t[0] <= self._triangle_max
        row = np.array(t, dtype=np.int64)
        sub = self._array[self._array[:, 0] == row[0]]
        return bool(sub.size) and bool(np.any(np.all(sub == row, axis=1)))

    def __eq__(self, other):
        if not isinstance(other, IndexSet):
            return NotImplemented
        if (self.order, len(self), self.max_index) != (other.order, len(other), other.max_index):
            return False
        # C(n, d) distinct decreasing rows with entries <= n are all of triangle(d, n)
        return self.is_triangle or other.is_triangle or np.array_equal(self._array, other._array)

    def __repr__(self):
        return f"IndexSet(order={self.order}, size={len(self)})"

    def to_array(self):
        """Explicit (size, d) row array; materializes an implicit triangle."""
        if not self.is_triangle:
            return self._array
        size = len(self)
        check_cap(size, _MATERIALIZE_CAP, "triangle elements to materialize",
                  "count them with count_leq or count_block instead")
        import itertools

        rows = list(itertools.combinations(range(self._triangle_max, 0, -1), self.order))
        rows.reverse()  # combinations of a decreasing range arrive lex-descending
        return np.array(rows, dtype=np.int64).reshape(size, self.order)

    def tuples(self):
        """Iterate elements as MultiIndex values (canonical order)."""
        for row in self.to_array():
            yield MultiIndex(row.tolist())

    def restrict(self, max_entry):
        """Subset of elements with every entry <= max_entry."""
        max_entry = int(max_entry)
        if self.is_triangle:
            m = min(self._triangle_max, max_entry)
            if m < self.order:
                return IndexSet(self.order, array=np.empty((0, self.order), dtype=np.int64))
            return IndexSet.triangle(self.order, m)
        keep = self._array[:, 0] <= max_entry  # leading entry is the max
        return IndexSet(self.order, array=self._array[keep])

    def count_leq(self, n):
        """|A restricted to entries <= n| without materializing."""
        n = int(n)
        if self.is_triangle:
            return math.comb(min(n, self._triangle_max), self.order) if n >= self.order else 0
        return int(np.searchsorted(self._array[:, 0], n, side="right"))

    def count_block(self, blocks):
        """Exact |A ∩ (B_1 × ... × B_d)| for per-coordinate blocks."""
        if not self.is_triangle:
            return len(self.block_elements(blocks))
        return _triangle_block_count(self.order, self._triangle_max, self._blocks(blocks))

    def block_elements(self, blocks):
        """Explicit IndexSet of the elements counted by :meth:`count_block`."""
        blocks = self._blocks(blocks)
        if self.is_triangle:
            rows = np.zeros((1, 0), dtype=np.int64)
            for b in blocks:  # the product, coordinate by coordinate, kept decreasing
                u = np.array(sorted(v for v in b if 1 <= v <= self._triangle_max), dtype=np.int64)
                rows = np.column_stack([np.repeat(rows, u.size, axis=0), np.tile(u, len(rows))])
                if rows.shape[1] > 1:
                    rows = rows[rows[:, -2] > rows[:, -1]]
            return IndexSet(self.order, array=rows)
        mask = np.ones(self._array.shape[0], dtype=bool)
        for i, b in enumerate(blocks):
            mask &= np.isin(self._array[:, i], sorted(b))
        return IndexSet(self.order, array=self._array[mask])

    def _blocks(self, blocks):
        """``blocks`` as one frozenset of ints per coordinate of the set."""
        blocks = [frozenset(int(v) for v in b) for b in blocks]
        if len(blocks) != self.order:
            raise InvalidArgumentError(f"order mismatch: set order {self.order}, blocks {len(blocks)}")
        return blocks


def _triangle_block_count(d, top, blocks):
    """Count strictly decreasing d-tuples with entry i in blocks[i], entries <= top.

    Dynamic program over the value axis: h[i] counts ways to fill
    coordinates i.. using values processed so far (descending positions
    get larger values later, so we sweep v upward and extend at the front).
    """
    sets = [frozenset(v for v in b if 1 <= v <= top) for b in blocks]
    hi = max((max(s) for s in sets if s), default=0)
    h = [0] * (d + 1)
    h[d] = 1
    for v in range(1, hi + 1):
        for i in range(d):  # h[i+1] still holds the value for v-1 here
            if v in sets[i]:
                h[i] += h[i + 1]
    return h[0]


# ---------------------------------------------------------------------------
# Sign functions (sparse Walsh polynomials)
# ---------------------------------------------------------------------------


class SignFunction:
    """Real function of finitely many Rademacher coordinates.

    Stored as a sparse Walsh polynomial: ``terms`` maps each monomial
    (a decreasing tuple of Rademacher indices, () for the constant term)
    to its real coefficient.  The support is the sorted union of all term
    indices; every sign configuration of the support carries probability
    2^-|support|.
    """

    __slots__ = ("terms", "support")

    def __init__(self, terms):
        clean = {}
        for key, coeff in terms.items():
            coeff = float(coeff)
            if coeff == 0.0:
                continue
            if not math.isfinite(coeff):
                raise InvalidArgumentError(f"coefficient of {key} is {coeff}; it must be finite")
            raw = key
            key = tuple(sorted({int(j) for j in raw}, reverse=True))
            if key and key[-1] < 1:
                raise InvalidArgumentError(f"Rademacher indices must be >= 1: {key}")
            if len(key) < len(raw):  # eps_j^2 = 1: an index repeated evenly often cancels
                key = tuple(j for j in key if sum(int(i) == j for i in raw) % 2)
            clean[key] = clean.get(key, 0.0) + coeff
        self.terms = {k: c for k, c in clean.items() if c != 0.0}
        self.support = tuple(sorted({j for k in self.terms for j in k}))

    def __repr__(self):
        return f"SignFunction({len(self.terms)} terms, support={self.support})"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = SignFunction({(): float(other)})
        if not isinstance(other, SignFunction):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0.0) + c
        return SignFunction(terms)

    __radd__ = __add__

    def __neg__(self):
        return SignFunction({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SignFunction) else -float(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return SignFunction({k: c * float(other) for k, c in self.terms.items()})
        if not isinstance(other, SignFunction):
            return NotImplemented
        # eps_j^2 = 1, so monomials multiply by symmetric difference
        terms = {}
        for ka, ca in self.terms.items():
            sa = frozenset(ka)
            for kb, cb in other.terms.items():
                key = tuple(sorted(sa.symmetric_difference(kb), reverse=True))
                terms[key] = terms.get(key, 0.0) + ca * cb
        return SignFunction(terms)

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------

    def value(self, signs):
        """Evaluate at one sign configuration.

        ``signs`` is either a mapping {index: +-1} covering the support or
        a sequence of +-1 aligned with the ascending support.
        """
        if not isinstance(signs, dict):
            seq = list(signs)
            if len(seq) != len(self.support):
                raise InvalidArgumentError(
                    f"expected {len(self.support)} signs for support {self.support}"
                )
            signs = dict(zip(self.support, seq))
        total = 0.0
        for key, coeff in self.terms.items():
            prod = 1
            for j in key:
                s = signs.get(j)
                if s not in (-1, 1):
                    raise InvalidArgumentError(f"sign for index {j} must be +-1, got {s!r}")
                prod *= s
            total += coeff * prod
        return total

    def values(self):
        """Values on all 2^k sign configurations of the support.

        Configuration c assigns eps_{support[b]} = -1 iff bit b of c is set.
        Computed by a fast Walsh-Hadamard transform of the coefficient
        vector, O(k 2^k), and refused past ``kernel.HARD_CAP_BITS`` bits.
        """
        return kernel.values(*self._kernel_input())

    def _kernel_input(self):
        """(term masks over the ascending support, coefficients, support width):
        the input of :mod:`kernel`'s evaluations."""
        return kernel.masks(self.terms, self.support), list(self.terms.values()), len(self.support)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def rademacher(j):
    """The j-th Rademacher function r_j, j >= 1."""
    j = int(j)
    if j < 1:
        raise InvalidArgumentError(f"Rademacher index must be a positive integer, got {j}")
    return SignFunction({(j,): 1.0})


def chaos_monomial(index):
    """Product of the Rademacher functions named by a decreasing multi-index."""
    return SignFunction({MultiIndex(index): 1.0})


def chaos_sum(coeffs):
    """Linear combination sum_j a_j * r_j over a coefficient map.

    Keys must be multi-indices of one common order (they form an index
    set); mixed-order combinations can be built with SignFunction algebra.
    """
    if not coeffs:
        raise EmptyInputError("coefficient map is empty")
    keys = [MultiIndex(k) for k in coeffs]
    if len({k.order for k in keys}) > 1:
        raise InvalidArgumentError("coefficient map keys must share one order")
    return SignFunction({k: float(c) for k, c in zip(keys, coeffs.values())})


def randomize_signs(coeffs, flips):
    """Chaos sum with each coefficient multiplied by a +-1 flip.

    ``flips`` must assign +-1 to every key of ``coeffs``.
    """
    if not coeffs:
        raise EmptyInputError("coefficient map is empty")
    flipped = {}
    norm_flips = {MultiIndex(k): v for k, v in flips.items()}
    for key, c in coeffs.items():
        key = MultiIndex(key)
        if key not in norm_flips:
            raise InvalidArgumentError(f"missing sign flip for index {tuple(key)}")
        s = norm_flips[key]
        if s not in (-1, 1):
            raise InvalidArgumentError(f"flip for {tuple(key)} must be +-1, got {s!r}")
        flipped[key] = float(c) * s
    return chaos_sum(flipped)


def unit_coefficients(index_set):
    """Coefficient map assigning 1.0 to every element of an index set."""
    return {t: 1.0 for t in index_set.tuples()}


def check_bits_cap(bits_cap):
    """InvalidArgumentError unless bits_cap >= 0; NaN is refused too."""
    if not bits_cap >= 0:
        raise InvalidArgumentError(f"bits_cap must be >= 0, got {bits_cap}")


def _check_bits(k, bits_cap):
    check_bits_cap(bits_cap)
    check_cap(k, bits_cap, "support bits of an exact law (bits_cap)",
              f"raise bits_cap to at least {k} or sample the law with distribution_mc")


def distribution_exact(f, bits_cap=DEFAULT_BITS_CAP):
    """Exact law of a sign function under the uniform hypercube measure.

    The law comes from :func:`kernel.law`: a streamed integer transform
    for small integer coefficients, float64 values otherwise.  Supports
    wider than ``bits_cap`` are refused here, wider than
    ``kernel.HARD_CAP_BITS`` by the kernel.
    """
    _check_bits(len(f.support), bits_cap)
    return terms_law(*f._kernel_input())


def terms_law(term_masks, coeffs, k):
    """Exact law of the polynomial with these :func:`kernel.masks` and coefficients
    over k support bits: :func:`kernel.law` with each count weighted 2^-k.
    A (P, T) coefficient matrix gives an iterator over the P laws of its rows."""
    laws = kernel.law(term_masks, coeffs, k)
    if isinstance(laws, tuple):  # one (values, counts) pair
        return StepDistribution(laws[0], laws[1] / (1 << k))
    return (StepDistribution(values, counts / (1 << k)) for values, counts in laws)


def index_terms(A, coeffs=None, bits_cap=None):
    """Kernel input (c, keep, term_masks, k) of the chaos sum of c_t r_t over
    the index set ``A``: the float64 coefficients c in canonical row order,
    the indices ``keep`` of the nonzero ones, their :func:`kernel.masks` over
    the ascending support of those rows, and its width k, refused past
    ``bits_cap`` as by :func:`distribution_exact`.  ``coeffs`` is None (all
    1), a sequence in canonical order, or a map keyed by exactly A.
    """
    rows = A.to_array()
    size = rows.shape[0]
    if size == 0:
        raise EmptyInputError("index set is empty")
    if coeffs is None:
        coeffs = np.ones(size)
    elif isinstance(coeffs, Mapping):
        given = {MultiIndex(t): float(v) for t, v in coeffs.items()}
        keys = [tuple(r) for r in rows.tolist()]
        missing = sum(t not in given for t in keys)
        if missing or len(given) > size:
            raise InvalidArgumentError(f"coefficient map misses {missing} elements of the set "
                                       f"and has {len(given) - size + missing} keys outside it")
        coeffs = [given[t] for t in keys]
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (size,):
        raise InvalidArgumentError(f"{c.size} coefficients for {size} elements")
    if not np.isfinite(c).all():
        bad = int(np.flatnonzero(~np.isfinite(c))[0])
        raise InvalidArgumentError(f"coefficient {bad} is {c[bad]}; coefficients must be finite")
    keep = np.flatnonzero(c)
    support = np.unique(rows[keep])
    if bits_cap is not None:
        _check_bits(support.size, bits_cap)
    return c, keep, kernel.masks(rows[keep].tolist(), support.tolist()), support.size


def law_of(A, coeffs=None, bits_cap=DEFAULT_BITS_CAP):
    """Exact law of the chaos over the index set ``A`` with the coefficients
    of :func:`index_terms`: ``distribution_exact`` of its :func:`chaos_sum`."""
    c, keep, term_masks, k = index_terms(A, coeffs, bits_cap)
    return terms_law(term_masks, c[keep], k)


def distribution_mc(f, samples, seed=0):
    """Empirical law of ``f`` from seeded Monte Carlo over configurations.

    Sampling uses the counter-based Philox generator, one fixed-size chunk
    per counter block, so the result depends only on (samples, seed) and
    not on the worker count.  ``seed`` is the Philox key, an integer in
    [0, 2^128).
    """
    samples = int(samples)
    if samples < 1:
        raise InvalidArgumentError("sample count must be >= 1")
    values, counts = kernel.sample_law(*f._kernel_input(), samples, seed)
    return StepDistribution(values, counts / samples)


@dataclass(frozen=True)
class DyadicStep:
    """Step function on [0, 1) that is constant on 2^m half-open dyadic cells."""

    resolution: int
    values: np.ndarray

    def histogram(self):
        """Law of the step function under Lebesgue measure."""
        uniq, counts = np.unique(self.values, return_counts=True)
        return StepDistribution(uniq, counts / self.values.size)


def evaluate_dyadic(f, m):
    """Realize ``f`` as a dyadic step function at resolution m >= max support.

    On cell i the j-th Rademacher sign is (-1)^floor(2^j (i + 1/2) 2^-m),
    evaluated in exact integer arithmetic.
    """
    m = int(m)
    top = max(f.support) if f.support else 0
    if m < top:
        raise ResolutionError(
            f"resolution {m} is below the largest Rademacher index {top}"
        )
    check_cap(m, kernel.HARD_CAP_BITS, "dyadic resolution bits",
              f"the law needs only resolution {top}, the largest index; "
              f"past the cap sample it with distribution_mc")
    cells = np.arange(1 << m, dtype=np.int64)
    config = np.zeros(1 << m, dtype=np.int64)
    for b, j in enumerate(f.support):
        bit = ((2 * cells + 1) >> (m + 1 - j)) & 1  # parity of floor(2^j (i+1/2) / 2^m)
        config |= bit << b
    vals = f.values()
    out = vals[config]
    out.setflags(write=False)
    return DyadicStep(m, out)

"""Configuration kernel: independent routes to a law agree exactly."""

import ast
import itertools
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from chaoslab import (
    InvalidArgumentError,
    ResourceLimitError,
    SignFunction,
    SpaceSpec,
    averaged_sup_growth,
    chaos_sum,
    distribution_exact,
    distribution_mc,
    evaluate_dyadic,
    gen_sum_set,
    gen_triangle,
    normalized_sum_cdf,
    rud_average,
    unit_coefficients,
)
from chaoslab import kernel
from chaoslab.parallel import worker_count


def fwht_reference(vec):
    """Copying transform, lowest bit first, butterflies (a + b, a - b)."""
    a = np.array(vec, dtype=float)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] += a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        a = a.reshape(-1)
        h *= 2
    return a


def fwht_shapes(monkeypatch):
    """The (rows, cols) of every later ``kernel.fwht`` call, as they run."""
    shapes, fwht = [], kernel.fwht

    def recording(a, cols=1, work=None):
        shapes.append((a.size // cols, cols))
        return fwht(a, cols, work)

    monkeypatch.setattr(kernel, "fwht", recording)
    return shapes


def mc_reference(f, samples, seed):
    """Column products over the Philox sign stream, accumulated in term order."""
    pos = {j: b for b, j in enumerate(f.support)}
    counts = {}
    for start in range(0, samples, kernel.MC_CHUNK):
        m = min(kernel.MC_CHUNK, samples - start)
        rng = np.random.Generator(
            np.random.Philox(key=seed, counter=(start // kernel.MC_CHUNK) << 64)
        )
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(m, len(f.support))).astype(np.float64)
        out = np.zeros(m)
        for key, c in f.terms.items():
            prod = np.ones(m)
            for j in key:
                prod *= signs[:, pos[j]]
            out += c * prod if key else c
        for v in out.tolist():
            counts[v] = counts.get(v, 0) + 1
    values = sorted(counts)
    return values, [counts[v] / samples for v in values]


def parity_law(f):
    """Law by Python-integer popcounts over every configuration."""
    masks = kernel.masks(f.terms, f.support)
    coeffs = list(f.terms.values())
    counts = {}
    for cfg in range(1 << len(f.support)):
        v = sum(c * (-1) ** bin(cfg & m).count("1") for m, c in zip(masks, coeffs))
        counts[v] = counts.get(v, 0) + 1
    return counts


def law_counts(f):
    """Law of ``f`` from kernel.law, as {value: configuration count}."""
    masks, coeffs = kernel.masks(f.terms, f.support), list(f.terms.values())
    vals, counts = kernel.law(masks, coeffs, len(f.support))
    return dict(zip(vals.tolist(), counts.tolist()))


def as_counts(dist, k):
    return {v: round(w * (1 << k)) for v, w in dist.atoms()}


monomial = st.sets(st.integers(1, 9), max_size=3).map(lambda s: tuple(sorted(s, reverse=True)))
keys = st.lists(monomial, min_size=1, max_size=12, unique=True)
int_coeff = st.integers(-40, 40).filter(bool).map(float)
# non-integer dyadic rationals: every route sums them exactly, in any order
dyadic_coeff = st.integers(-300, 300).filter(lambda n: n % 8).map(lambda n: n / 8)


@st.composite
def functions(draw, coeff):
    key_list = draw(keys)
    coeffs = draw(st.lists(coeff, min_size=len(key_list), max_size=len(key_list)))
    f = SignFunction(dict(zip(key_list, coeffs)))
    assume(f.support)
    return f


class TestRouteAgreement:
    @settings(max_examples=60, deadline=None)
    @given(functions(int_coeff))
    def test_integer_routes(self, f):
        k = len(f.support)
        sliced = law_counts(f)
        fvals, fcounts = np.unique(f.values(), return_counts=True)
        assert dict(zip(fvals.tolist(), fcounts.tolist())) == sliced
        assert parity_law(f) == sliced
        assert as_counts(distribution_exact(f), k) == sliced
        m = max(f.support)
        dyadic = evaluate_dyadic(f, m).histogram()
        assert as_counts(dyadic, k) == sliced

    @settings(max_examples=60, deadline=None)
    @given(functions(dyadic_coeff))
    def test_float_routes(self, f):
        k = len(f.support)
        coeffs = list(f.terms.values())
        assert kernel.int_dtype(coeffs) == (None, None)
        masks = kernel.masks(f.terms, f.support)
        unique = np.unique(f.values(), return_counts=True)
        assert all(np.array_equal(a, b) for a, b in zip(kernel.law(masks, coeffs, k), unique))
        exact = distribution_exact(f)
        assert as_counts(exact, k) == parity_law(f)
        assert evaluate_dyadic(f, max(f.support)).histogram().atoms() == exact.atoms()

    @settings(max_examples=40, deadline=None)
    @given(functions(int_coeff), st.integers(1, 9))
    def test_slice_width(self, f, slice_bits):
        k = len(f.support)
        masks, coeffs = kernel.masks(f.terms, f.support), list(f.terms.values())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "SLICE_BITS", k)
            whole = kernel.law(masks, coeffs, k)
            mp.setattr(kernel, "SLICE_BITS", slice_bits)
            sliced = kernel.law(masks, coeffs, k)
        assert all(np.array_equal(a, b) for a, b in zip(whole, sliced))

    @pytest.mark.parametrize("k", [1, 2, 5, 9, 10, 11, 14, 16, 17, 19])
    def test_values_bit_identical_to_copying_transform(self, k):
        rng = np.random.default_rng(k)
        vec = rng.standard_normal(1 << k)
        got = kernel.fwht(vec.copy())
        assert np.array_equal(got, fwht_reference(vec))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([np.float64, np.int8, np.int16, np.int32]),
           st.sampled_from([1, 2, 3, 5, 16, 41, 128]), st.integers(0, 17), st.integers(0, 99))
    def test_columns_match_one_column_transforms(self, dtype, cols, bits, seed):
        # up to 2^17 rows and 2^21 bytes: with and without parts, transposed
        # copies and stages across parts; integers wrap, which is still exact
        itemsize = np.dtype(dtype).itemsize
        n = 1 << min(bits, 21 - (itemsize * cols - 1).bit_length())
        rng = np.random.default_rng(seed)
        if dtype is np.float64:
            a = rng.standard_normal((n, cols))
        else:
            a = rng.integers(np.iinfo(dtype).min, np.iinfo(dtype).max, (n, cols), endpoint=True,
                             dtype=dtype)
        got = kernel.fwht(a.copy().reshape(-1), cols).reshape(n, cols)
        for j in range(cols):
            assert got[:, j].tobytes() == kernel.fwht(a[:, j].copy()).tobytes()

    def test_parity_matches_popcount(self):
        cfg = np.arange(1 << 10, dtype=np.uint64)
        for mask in (0, 1, 0b1011, 0b1111111111, 0b1000000001):
            expect = [bin(c & mask).count("1") & 1 for c in range(1 << 10)]
            assert kernel.parity(cfg, np.uint64(mask)).tolist() == expect

    @pytest.mark.parametrize("counter", [0, 5 << 64, 2 << 96])
    @pytest.mark.parametrize(
        "rows, k", [(1, 1), (3, 5), (1001, 7), (65536, 30), (13, 64), (5, 65), (7, 80)]
    )
    def test_bit_reader_reads_the_integers_stream(self, rows, k, counter):
        rng = np.random.Generator(np.random.Philox(key=11, counter=counter))
        expect = rng.integers(0, 2, size=(rows, k)).T
        got = kernel.random_bits(11, counter, rows, k)
        assert got.dtype == np.uint8 and got.shape == (k, rows) and got.flags.c_contiguous
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("block_bits", [0, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "rows, k", [(1, 1), (1, 7), (9, 3), (17, 5), (41, 91), (6, 64), (13, 65)]
    )
    def test_sub_blocks_continue_the_stream(self, rows, k, block_bits, monkeypatch):
        # a few halves per sub-block: two rows of odd k read an odd number of
        # raw words, so sub-blocks end inside a 4-word Philox block, and at 2^4
        # halves k = 3 and 5 would take 5 and 3 rows, were the count not even
        monkeypatch.setattr(kernel, "_SIGN_BLOCK_BITS", block_bits)
        rng = np.random.Generator(np.random.Philox(key=3, counter=7 << 64))
        expect = rng.integers(0, 2, size=(rows, k)).T
        assert np.array_equal(kernel.random_bits(3, 7 << 64, rows, k), expect)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sum_set_n30_sampled_law_is_pinned(self, threads, monkeypatch, pool_calls):
        # 140,000 rows: three counter blocks of MC_CHUNK rows, the last partial
        monkeypatch.setenv("CHAOSLAB_THREADS", threads)
        law = distribution_mc(chaos_sum(unit_coefficients(gen_sum_set(30))), 140_000, seed=2023)
        assert [(chunks, len(ids)) for chunks, ids in pool_calls] == [(3, int(threads))]
        assert law.values.tolist() == [-102, -88, -86, -84, *range(-80, 76, 2),
                                       78, 80, 82, 94, 96, 106]
        assert np.rint(law.weights * 140_000).astype(int).tolist() == [
            1, 2, 1, 2, 3, 1, 1, 2, 3, 1, 6, 6, 11, 15, 11, 18, 21, 39, 40, 58, 74, 90, 119,
            143, 203, 241, 365, 410, 611, 788, 1014, 1375, 1643, 2132, 2745, 3185, 3871, 4683,
            5482, 6062, 6862, 7295, 7699, 8210, 8125, 8246, 7892, 7348, 6835, 6267, 5409, 4717,
            4004, 3310, 2663, 2203, 1762, 1325, 1032, 787, 605, 453, 353, 268, 199, 164, 109,
            91, 62, 49, 41, 35, 20, 16, 22, 7, 7, 5, 9, 3, 3, 1, 1, 2, 2, 2, 1, 1]

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**130, 1.0, "3", None])
    def test_seed_outside_the_philox_key_range(self, seed):
        f = SignFunction({(2, 1): 1.0, (3,): 0.5})
        constant = SignFunction({(): 1.0})  # empty support: a point mass, no draws
        for call in (lambda: distribution_mc(f, 100, seed=seed),
                     lambda: distribution_mc(constant, 10, seed=seed),
                     lambda: kernel.random_bits(seed, 0, 4, 3)):
            with pytest.raises(InvalidArgumentError) as err:
                call()
            assert f"seed {seed!r}" in str(err.value) and "[0, 2**128)" in str(err.value)

    @pytest.mark.parametrize("seed", [2**128 - 1, np.int64(5)])
    def test_integer_seeds_in_range_are_keys(self, seed):
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        expect = rng.integers(0, 2, size=(9, 4)).T
        assert np.array_equal(kernel.random_bits(seed, 0, 9, 4), expect)


@st.composite
def edge_functions(draw, key_lists=keys):
    """Integer functions whose S = sum |c| lies near the int8, int16 and int32
    edges, over at most 12 keys drawn from ``key_lists``."""
    key_list = draw(key_lists)
    rest = draw(st.lists(st.integers(-9, 9).filter(bool),
                         min_size=len(key_list) - 1, max_size=len(key_list) - 1))
    edge = draw(st.sampled_from([127, 32767, 2**31 - 1]))
    bound = edge + draw(st.integers(-3, 1 if edge < 2**31 - 1 else 0))
    first = (bound - sum(map(abs, rest))) * draw(st.sampled_from([-1, 1]))  # sum |rest| <= 99
    f = SignFunction(dict(zip(key_list, map(float, [first, *rest]))))
    assume(f.support)
    return f


class TestIntegerInvariance:
    @settings(max_examples=60, deadline=None)
    @given(edge_functions(), st.data(), st.integers(1, 9))
    def test_sign_flip_and_relabeling(self, f, data, slice_bits):
        # flipping coordinate j negates every term that holds j, and a
        # relabeling of the indices permutes the configurations: neither
        # moves the law, in any dtype or slice width
        j = data.draw(st.sampled_from(f.support))
        flipped = SignFunction({key: -c if j in key else c for key, c in f.terms.items()})
        perm = dict(zip(range(1, 10), data.draw(st.permutations(range(1, 10)))))
        relabeled = SignFunction({tuple(sorted((perm[i] for i in key), reverse=True)): c
                                  for key, c in f.terms.items()})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "SLICE_BITS", slice_bits)
            law = law_counts(f)
            assert law_counts(flipped) == law
            assert law_counts(relabeled) == law
        assert law == parity_law(f)


@st.composite
def rank_deficient_keys(draw):
    """At most 10 monomials over 1..9 whose masks span a proper subspace of
    the support."""
    kind = draw(st.sampled_from(["even", "blocks", "groups"]))
    coords = draw(st.permutations(range(1, 10)))
    if kind == "even":  # even weights: flipping every sign moves no term
        key_list = draw(st.lists(st.sets(st.sampled_from(coords), min_size=2, max_size=4)
                                 .filter(lambda s: len(s) % 2 == 0), min_size=1, max_size=10))
    elif kind == "blocks":  # triangle(2) on each block: rank k - blocks
        cuts = draw(st.sampled_from([(0, 2, 4), (0, 3, 7), (0, 2, 5, 7), (0, 3, 6, 9),
                                     (0, 4, 7)]))
        key_list = [{coords[a], coords[b]} for lo, hi in zip(cuts, cuts[1:])
                    for a in range(lo, hi) for b in range(a + 1, hi)]
    else:  # the coordinates of a group always appear together
        cuts = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=5)) | {0, 9})
        groups = [coords[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]
        assume(groups)
        picks = draw(st.lists(st.sets(st.integers(0, len(groups) - 1), min_size=1),
                              min_size=1, max_size=10))
        key_list = [{j for g in pick for j in groups[g]} for pick in picks]
    return sorted({tuple(sorted(key, reverse=True)) for key in key_list})


class TestRankReduction:
    @settings(max_examples=80, deadline=None)
    @given(edge_functions(rank_deficient_keys()), st.integers(1, 9))
    def test_reduced_law_is_the_full_law(self, f, slice_bits):
        k = len(f.support)
        masks, coeffs = kernel.masks(f.terms, f.support), list(f.terms.values())
        assert len(kernel.pivot_bits(masks)[0]) < k
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "SLICE_BITS", slice_bits)
            vals, counts = kernel.law(masks, coeffs, k)
        assert counts.dtype == np.int64
        assert int(counts.sum()) == 1 << k
        assert dict(zip(vals.tolist(), counts.tolist())) == parity_law(f)

    @staticmethod
    def transform_shapes(f, monkeypatch):
        shapes = fwht_shapes(monkeypatch)
        distribution_exact(f)
        return shapes

    def test_triangle_transforms_half_the_slices(self, monkeypatch):
        # rank 17, no flip: two slice rows of 2^16 in one block
        f = chaos_sum(unit_coefficients(gen_triangle(2, 18)))
        assert self.transform_shapes(f, monkeypatch) == [(1 << 16, 2)]

    def test_sum_set_transforms_one_reduced_array(self, monkeypatch):
        # rank 13, and the top bit of the flip fixed: 2^12 configurations
        f = chaos_sum(unit_coefficients(gen_sum_set(14)))
        assert len(f.support) == 14
        assert self.transform_shapes(f, monkeypatch) == [(1 << 12, 1)]

    def test_float_route_transforms_every_configuration(self, monkeypatch):
        # a shorter float transform would reorder the sums and move atoms by ulps
        f = chaos_sum({t: 0.5 for t in gen_triangle(2, 10).tuples()})
        assert self.transform_shapes(f, monkeypatch) == [(1 << 10, 1)]


@st.composite
def half_cube_keys(draw):
    """Monomials over 1..9 of one of six kinds: odd degree (a flip always
    exists), disjoint pairs or edges of a bipartite graph (even, with a
    flip), triangle(2) on 3..5 coordinates (even, no flip), odd degree
    plus a constant term (no flip), or rank-deficient keys."""
    kind = draw(st.sampled_from(["odd", "pairs", "bipartite", "triangle", "constant", "deficient"]))
    if kind == "deficient":
        return draw(rank_deficient_keys())
    coords = draw(st.permutations(range(1, 10)))
    if kind in ("odd", "constant"):
        key_list = draw(st.lists(st.sets(st.sampled_from(coords), min_size=1, max_size=5)
                                 .filter(lambda s: len(s) % 2), min_size=1, max_size=10))
        key_list += [()] if kind == "constant" else []
    elif kind == "pairs":
        key_list = [coords[2 * i:2 * i + 2] for i in range(draw(st.integers(1, 4)))]
    elif kind == "bipartite":
        cut = draw(st.integers(1, 8))
        edges = [(a, b) for a in coords[:cut] for b in coords[cut:]]
        key_list = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=10))
    else:
        n = draw(st.integers(3, 5))
        key_list = [(a, b) for i, a in enumerate(coords[:n]) for b in coords[i + 1:n]]
    return sorted({tuple(sorted(key, reverse=True)) for key in key_list})


def flip_exists(term_masks, k):
    """Whether some configuration makes every monomial -1, by trying all."""
    return any(all(bin(c & m).count("1") % 2 for m in term_masks) for c in range(1 << k))


class TestHalfCube:
    @settings(max_examples=150, deadline=None)
    @given(edge_functions(half_cube_keys()), st.integers(1, 9))
    def test_law_is_the_parity_law(self, f, slice_bits):
        k = len(f.support)
        masks = kernel.masks(f.terms, f.support)
        pivots, flip = kernel.pivot_bits(masks)
        assert (flip is not None) == flip_exists(masks, k)
        if flip is not None:
            assert all(bin(flip & m).count("1") % 2 for m in masks)
            assert flip & ~sum(1 << p for p in pivots) == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "SLICE_BITS", slice_bits)
            law = law_counts(f)
        assert law == parity_law(f)

    @settings(max_examples=80, deadline=None)
    @given(edge_functions(half_cube_keys()), st.data(), st.integers(1, 9), st.integers(0, 8))
    def test_rows_match_one_row_calls(self, f, data, slice_bits, block_bits):
        masks, base = kernel.masks(f.terms, f.support), np.array(list(f.terms.values()))
        k = len(f.support)
        signs = data.draw(st.lists(st.lists(st.sampled_from([-1.0, 1.0]), min_size=base.size,
                                            max_size=base.size), min_size=1, max_size=6))
        rows = base * np.array(signs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "SLICE_BITS", slice_bits)
            mp.setattr(kernel, "LAW_BLOCK_BITS", block_bits)
            batched = list(kernel.law(masks, rows, k))
            single = [kernel.law(masks, row.tolist(), k) for row in rows]
        assert len(batched) == len(rows)
        for (bvals, bcounts), (svals, scounts), row in zip(batched, single, rows):
            assert bvals.tolist() == svals.tolist() and bcounts.tolist() == scounts.tolist()
            expect = parity_law(SignFunction(dict(zip(f.terms, row.tolist()))))
            assert dict(zip(svals.tolist(), scounts.tolist())) == expect

    @staticmethod
    def histogram_sizes(f, monkeypatch):
        sizes, histogram = [], kernel._histogram

        def recording(vals, *args):
            sizes.append(vals.size)
            return histogram(vals, *args)

        monkeypatch.setattr(kernel, "_histogram", recording)
        law = distribution_exact(f)
        return sizes, law

    @pytest.mark.parametrize("N, slices", [(18, 1), (20, 4)])
    def test_sum_set_transforms_half_the_slices(self, N, slices, monkeypatch):
        # rank N - 1, the top bit of the flip fixed: 2^(N - 2 - 16) slice rows
        f = chaos_sum(unit_coefficients(gen_sum_set(N)))
        assert TestRankReduction.transform_shapes(f, monkeypatch) == [(1 << 16, slices)]

    def test_sum_set_histograms_half_the_row(self, monkeypatch):
        f = chaos_sum(unit_coefficients(gen_sum_set(14)))
        sizes, law = self.histogram_sizes(f, monkeypatch)
        assert sizes == [1 << 12]
        assert as_counts(law, 14) == parity_law(f)

    @pytest.mark.parametrize("terms, enumerated", [
        ({(1,): 1.0}, 1),  # k = r = 1: the flip is r_1 itself
        ({(): 3.0, (1,): 1.0, (2,): -1.0, (3, 2, 1): 2.0}, 8),  # a constant term: no flip
        ({(4, 3): 1.0, (2, 1): 2.0}, 2),  # disjoint pairs: rank 2, halved
    ])
    def test_small_laws(self, terms, enumerated, monkeypatch):
        f = SignFunction(terms)
        sizes, law = self.histogram_sizes(f, monkeypatch)
        assert sizes == [enumerated]
        assert as_counts(law, len(f.support)) == parity_law(f)

    def test_empty_support_is_a_point_mass(self):
        # no terms: the solve is consistent with flip 0, which never halves
        assert kernel.pivot_bits([]) == (set(), 0)
        assert [a.tolist() for a in kernel.law([], [], 0)] == [[0], [1]]
        assert kernel.pivot_bits([0]) == (set(), None)
        assert [a.tolist() for a in kernel.law([0], [2.0], 0)] == [[2], [1]]
        assert distribution_exact(SignFunction({(): 2.0})).atoms() == [(2.0, 1.0)]


@st.composite
def coefficient_matrices(draw):
    """(masks, (P, T) coefficient matrix, k): 1 <= P <= 6 rows over the shared
    masks of an edge function, on full-rank or rank-deficient keys.  Integer
    rows flip the signs of the function's coefficients (S at an int8, int16
    or int32 edge), and some drop its large one, so that a row alone may fit
    a narrower dtype than the matrix; float rows are seeded Gaussians, which
    the transform adds inexactly, so any change in its order shows."""
    f = draw(edge_functions(st.one_of(keys, rank_deficient_keys())))
    masks, base = kernel.masks(f.terms, f.support), np.array(list(f.terms.values()))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["signs", "small", "float"]))
        if kind == "float":
            rows.append(np.random.default_rng(draw(st.integers(0, 99))).standard_normal(base.size))
            continue
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=base.size,
                                       max_size=base.size)))
        row = base * signs
        if kind == "small":
            row[0] = signs[0]
        rows.append(row)
    return masks, np.array(rows), len(f.support)


class TestBatchedLaws:
    @settings(max_examples=100, deadline=None)
    @given(coefficient_matrices(), st.integers(1, 9), st.integers(0, 8))
    def test_rows_match_one_row_calls(self, case, slice_bits, block_bits):
        # a narrow slice width takes the sliced route, a small block budget
        # puts block boundaries between the rows
        masks, rows, k = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "SLICE_BITS", slice_bits)
            mp.setattr(kernel, "LAW_BLOCK_BITS", block_bits)
            batched = list(kernel.law(masks, rows, k))
            single = [kernel.law(masks, row.tolist(), k) for row in rows]
        assert len(batched) == len(rows)
        for (bvals, bcounts), (svals, scounts) in zip(batched, single):
            assert bcounts.dtype == scounts.dtype == np.int64
            assert bcounts.tolist() == scounts.tolist()
            assert ([float(v).hex() for v in bvals.tolist()]
                    == [float(v).hex() for v in svals.tolist()])

    @pytest.mark.parametrize("block_bits, count", [(15, 13), (17, 61), (19, 300)])
    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_partial_blocks_reuse_the_scratch(self, block_bits, count, scale, monkeypatch):
        # sum set N = 14: 2^12 reduced configurations in int8, or 2^14 in
        # float64, whose parts run on transposed copies in the scratch that
        # every block reuses; the last block is narrower than the others
        masks, coeffs, k = chaos_sum(unit_coefficients(gen_sum_set(14)))._kernel_input()
        signs = np.random.default_rng(block_bits).choice([-1.0, 1.0], size=(count, len(coeffs)))
        rows = signs * np.array(coeffs) * scale
        monkeypatch.setattr(kernel, "LAW_BLOCK_BITS", block_bits)
        batched = list(kernel.law(masks, rows, k))
        assert len(batched) == count
        for (bvals, bcounts), row in zip(batched, rows):
            svals, scounts = kernel.law(masks, row.tolist(), k)
            assert bvals.tobytes() == svals.tobytes() and bcounts.tolist() == scounts.tolist()

    def test_block_holds_the_budget(self, monkeypatch):
        # 2^12 reduced configurations (sum set N = 14: rank 13, the top bit of
        # the flip fixed): a block of 2^LAW_BLOCK_BITS entries holds 2^(B - 12)
        # rows, one fwht call per block, the last one partial
        shapes = fwht_shapes(monkeypatch)
        masks, coeffs, k = chaos_sum(unit_coefficients(gen_sum_set(14)))._kernel_input()
        rows = np.tile(coeffs, (300, 1))
        assert len(list(kernel.law(masks, rows, k))) == 300
        per = 1 << (kernel.LAW_BLOCK_BITS - 12)
        assert 300 % per and shapes == [(1 << 12, min(per, 300 - s)) for s in range(0, 300, per)]


@st.composite
def shift_codes(draw):
    """(reduced basis, m) of the shift code of m <= 10 terms over s <= 8 support bits."""
    s = draw(st.integers(1, 8))
    term_masks = draw(st.lists(st.integers(0, (1 << s) - 1), min_size=1, max_size=10))
    return kernel.shift_code(term_masks, s), len(term_masks)


def span(basis):
    """The 2^r codewords spanned by the r words of a reduced basis, as uint64."""
    return np.array(sorted(xor_span(basis.values())), dtype=np.uint64)


def rep_words(basis, m):
    """The rows of :func:`kernel.coset_reps` as uint64 words, column t as bit t."""
    bits = kernel.coset_reps(basis, m)
    assert bits.dtype == np.uint8 and bits.shape == (1 << (m - len(basis)), m)
    return bits.astype(np.uint64) @ (np.uint64(1) << np.arange(m, dtype=np.uint64))


class TestCosetReps:
    @settings(max_examples=100, deadline=None)
    @given(shift_codes())
    def test_cosets_partition_the_patterns(self, case):
        # equal cosets are what lets a mean over representatives stand for all patterns
        basis, m = case
        reps, code = rep_words(basis, m), span(basis)
        patterns = np.sort((reps[:, None] ^ code[None, :]).ravel())
        assert np.array_equal(patterns, np.arange(1 << m, dtype=np.uint64))
        assert not np.any(reps & np.uint64(sum(1 << p for p in basis)))


@st.composite
def term_sets(draw):
    """Up to 12 distinct terms of triangle(d, n), d <= 3 and n <= 7."""
    d = draw(st.integers(1, 3))
    elements = list(gen_triangle(d, draw(st.integers(d, 7))).tuples())
    picks = draw(st.lists(st.sampled_from(range(len(elements))), min_size=1, max_size=12,
                          unique=True))
    return [elements[i] for i in sorted(picks)]


def term_code(elements):
    """(reduced basis, m) of the shift code of ``elements`` over their support."""
    support = sorted({j for t in elements for j in t})
    return kernel.shift_code(kernel.masks(elements, support), len(support)), len(elements)


class TestCosetLeaders:
    @settings(max_examples=150, deadline=None)
    @given(term_sets())
    @example([(1,), (2,), (3,), (5,)])  # full rank: H is all of F_2^m, one coset
    def test_least_weight_of_every_coset(self, elements):
        # brute force: the least popcount of rep xor h over every codeword h
        basis, m = term_code(elements)
        reps, code = rep_words(basis, m), span(basis)
        weights = np.bitwise_count(reps[:, None] ^ code[None, :])
        least = kernel.coset_leaders(basis, m)
        assert least.dtype == np.uint8 and least.size == 1 << (m - len(basis))
        assert np.array_equal(least, weights.min(axis=1))

    @settings(max_examples=150, deadline=None)
    @given(term_sets())
    @example(list(gen_triangle(3, 5).tuples()))  # odd degree: the flip is in H already
    @example(list(gen_triangle(2, 5).tuples()))  # triangle(2, 5): it is not
    def test_flip_code_leaders(self, elements):
        # brute force: every pattern u against every codeword h of H, the least
        # min(wt, m - wt) of u xor h, read at the coset of u in H' = H + <1...1>
        support = sorted({j for t in elements for j in t})
        masks, m = kernel.masks(elements, support), len(elements)
        shift, flip = kernel.shift_code(masks, len(support)), kernel.flip_code(masks, len(support))
        code = span(shift)
        u = np.arange(1 << m, dtype=np.uint64)
        weights = np.bitwise_count(u[:, None] ^ code[None, :]).astype(np.int64)
        nearest = np.minimum(weights, m - weights).min(axis=1)
        rep = u  # reduced by the rows of its pivot bits: the free part names the coset
        for p, row in flip.items():
            rep = np.where(rep >> np.uint64(p) & 1, rep ^ np.uint64(row), rep)
        free = [t for t in range(m) if t not in flip]
        index = sum(((rep >> np.uint64(t) & 1) << np.uint64(i) for i, t in enumerate(free)),
                    np.zeros_like(u))
        least = kernel.coset_leaders(flip, m)
        assert least.size == 1 << (m - len(flip))
        assert np.array_equal(least[index.astype(np.intp)], nearest)
        assert len(flip) == len(shift) + ((1 << m) - 1 not in code.tolist())


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "terms",
        [
            {(3, 1): 2.0, (2,): -1.0, (): 3.0, (5, 4, 1): 1.0},
            {(3, 1): 0.37, (2,): -1.25, (): 0.5, (5, 4, 1): 2.0},
            {(3, 1): 70000.0, (2,): -1.0, (): 3.0, (5, 4, 1): 1.0},
        ],
        ids=["integer", "float", "wide-integer"],
    )
    def test_matches_column_products(self, terms):
        f = SignFunction(terms)
        samples = kernel.MC_CHUNK + 1000  # two counter blocks
        law = distribution_mc(f, samples, seed=4)
        values, weights = mc_reference(f, samples, seed=4)
        assert law.values.tolist() == values
        assert law.weights.tolist() == weights

    @pytest.mark.parametrize("cross", [2.0, 0.5], ids=["integer", "float"])
    def test_supports_wider_than_one_word(self, cross):
        terms = {(2 * j, 2 * j - 1): float(j % 3 + 1) for j in range(1, 41)}
        terms[(80, 3, 1)] = cross  # bits 79, 2 and 0: spans both words
        f = SignFunction(terms)
        assert len(f.support) == 80
        law = distribution_mc(f, 3000, seed=2)
        values, weights = mc_reference(f, 3000, seed=2)
        assert law.values.tolist() == values
        assert law.weights.tolist() == weights

    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(functions(int_coeff), functions(dyadic_coeff)),
        st.sampled_from([None, 3.0, -0.375]),
    )
    def test_odd_bit_count_in_last_chunk(self, f, constant):
        terms = {key: c for key, c in f.terms.items() if key}
        if constant is not None:
            terms[()] = constant
        if len(SignFunction(terms).support) % 2 == 0:
            terms[(10,)] = 1.0  # a fresh coordinate makes the support odd
        g = SignFunction(terms)
        samples = kernel.MC_CHUNK + 1001  # last chunk reads 1001 * k bits, k odd
        law = distribution_mc(g, samples, seed=6)
        values, weights = mc_reference(g, samples, seed=6)
        assert law.values.tolist() == values
        assert law.weights.tolist() == weights


class TestHomogeneity:
    @settings(max_examples=60, deadline=None)
    @given(functions(int_coeff), st.sampled_from([1e-14, 1e14]))
    def test_scaled_law(self, f, scale):
        law, scaled = distribution_exact(f), distribution_exact(f * scale)
        assert len(scaled) == len(law)
        assert scaled.weights.tolist() == law.weights.tolist()
        tol = 1e-12 * scale * law.max_abs()
        np.testing.assert_allclose(scaled.values, law.values * scale, rtol=1e-12, atol=tol)

    @pytest.mark.parametrize("scale", [1e-14, 0.1, 3.7, 1e14])
    def test_triangle_l4_norm(self, scale):
        elements = list(gen_triangle(3, 8).tuples())[:40]
        c = np.random.default_rng(0).integers(1, 4, size=40)
        law = distribution_exact(chaos_sum(dict(zip(elements, c * scale))))
        assert len(law) == 32
        assert law.lp_norm(4) / scale == pytest.approx(25.9891403306, rel=1e-10)


def sum_set_law(N, scale=1.0):
    """Exact (values, counts) lists of the unit sum set of order N, scaled."""
    masks, coeffs, k = chaos_sum(unit_coefficients(gen_sum_set(N)))._kernel_input()
    vals, counts = kernel.law(masks, np.array(coeffs) * scale, k)
    return vals.tolist(), counts.tolist()


def small_triangle_law(n):
    """Exact (values, counts) lists of triangle(2, n) with seeded {-3..3} coefficients."""
    tuples = list(gen_triangle(2, n).tuples())
    c = np.random.default_rng(n).integers(-3, 4, size=len(tuples)).astype(float)
    masks, coeffs, k = chaos_sum(dict(zip(tuples, c)))._kernel_input()
    assert k == n
    vals, counts = kernel.law(masks, coeffs, k)
    return vals.tolist(), counts.tolist()


def normalized_sum_hex(N):
    """float.hex of every number of normalized_sum_cdf(gen_sum_set(N), N)."""
    res = normalized_sum_cdf(gen_sum_set(N), N)
    floats = [*res.distribution.values.tolist(), *res.distribution.weights.tolist(),
              res.l2_norm, res.ks_distance]
    return [float(x).hex() for x in floats], res.size


# name: (law, blocks of 2^LAW_BLOCK_BITS entries, slice and block bits or None)
WIDE_LAWS = {
    # 2^20 reduced configurations in int8: 16 slice rows of 2^16, 8 per block
    "sum_set_22": (lambda: sum_set_law(22), 2, None),
    # 2^22 in int16: 64 slice rows, the exact-laws p90
    "sum_set_24": (lambda: sum_set_law(24), 8, None),
    "normalized_sum_22": (lambda: normalized_sum_hex(22), 2, None),
    # rank 21 and no flip: 2^21 configurations in int16 (S = sum |c| > 127)
    "triangle_2_22": (lambda: small_triangle_law(22), 4, None),
    # S = 110 * 300 > 32767: int32
    "sum_set_22_times_300": (lambda: sum_set_law(22, 300.0), 2, None),
    # 2^12 reduced configurations: 256 slice rows of 2^4, 4 per block of 2^6
    "sum_set_14_small_blocks": (lambda: sum_set_law(14), 64, (4, 6)),
    # rank 10 and no flip: 64 slice rows of 2^4, 2 per block of 2^5
    "triangle_2_11_small_blocks": (lambda: small_triangle_law(11), 32, (4, 5)),
}


class TestWorkerCount:
    def test_exact_and_mc_laws(self, monkeypatch, pool_calls):
        f = chaos_sum(unit_coefficients(gen_sum_set(12)))
        g = SignFunction({(2, 1): 1.5, (5, 3): -0.25, (4,): 1.0})
        masks, coeffs = kernel.masks(f.terms, f.support), list(f.terms.values())
        k = len(f.support)
        monkeypatch.setattr(kernel, "SLICE_BITS", 4)

        def laws():
            sliced = kernel.law(masks, coeffs, k)
            return (
                [a.tolist() for a in sliced],
                distribution_exact(f).atoms(),
                distribution_mc(f, 150_000, seed=3).atoms(),
                distribution_mc(g, 150_000, seed=3).atoms(),
            )

        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        single = laws()
        monkeypatch.delenv("CHAOSLAB_THREADS")
        assert laws() == single
        # the two sampled laws of each run map their chunks, on one thread, then on more
        assert [len(threads) > 1 for _, threads in pool_calls] == [False, False, True, True]

    def test_integer_slices_run_inline(self, monkeypatch):
        f = chaos_sum(unit_coefficients(gen_sum_set(12)))
        monkeypatch.setattr(kernel, "SLICE_BITS", len(f.support))
        whole = law_counts(f)

        def refuse(fn, chunks):
            raise AssertionError("an exact integer law mapped its slices")

        monkeypatch.setattr(kernel, "map_chunks", refuse)
        monkeypatch.setattr(kernel, "SLICE_BITS", 4)
        assert len(f.support) > kernel.SLICE_BITS
        assert law_counts(f) == whole

    @pytest.mark.parametrize("name", list(WIDE_LAWS))
    def test_one_wide_law_at_every_worker_count(self, name, monkeypatch, pool_calls):
        # one row of several blocks maps them, one block, scratch and index
        # per worker; any buffer two workers shared would change the law
        law, blocks, bits = WIDE_LAWS[name]
        if bits:
            monkeypatch.setattr(kernel, "SLICE_BITS", bits[0])
            monkeypatch.setattr(kernel, "LAW_BLOCK_BITS", bits[1])
        laws = {}
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("CHAOSLAB_THREADS", threads)
            pool_calls.clear()
            laws[threads] = law()
            assert [(n, len(ids) > 1) for n, ids in pool_calls] == [(blocks, threads != "1")]
        assert laws["2"] == laws["1"] and laws["3"] == laws["1"]

    def test_small_blocks_on_more_workers_than_cores(self, monkeypatch, pool_calls):
        # 32 blocks on 4 workers that switch every microsecond (numpy keeps
        # the interpreter lock on blocks this small).  The first two blocks of
        # a law wait for each other after their transforms, so a block that
        # two workers shared would hold one transform for both.
        law, blocks, (slice_bits, block_bits) = WIDE_LAWS["triangle_2_11_small_blocks"]
        monkeypatch.setattr(kernel, "SLICE_BITS", slice_bits)
        monkeypatch.setattr(kernel, "LAW_BLOCK_BITS", block_bits)
        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        single = law()
        monkeypatch.setenv("CHAOSLAB_THREADS", "4")
        fwht, laws, interval = kernel.fwht, [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                meet, order = threading.Barrier(2, timeout=60), itertools.count()

                def transform(a, cols=1, work=None, meet=meet, order=order):
                    fwht(a, cols, work)
                    if next(order) < 2:
                        meet.wait()
                    return a

                monkeypatch.setattr(kernel, "fwht", transform)
                laws.append(law())
        finally:
            sys.setswitchinterval(interval)
        assert all(pooled == single for pooled in laws)
        assert [(n, len(ids) > 1) for n, ids in pool_calls] == [(blocks, False)] + [(blocks, True)] * 5

    @pytest.mark.parametrize("caller", ["rud_exact", "rud_mc", "sup_growth", "rows_200"])
    def test_matrix_laws_stay_inline(self, caller, monkeypatch, pool_calls):
        # the laws and sups of a coefficient matrix stream their blocks on
        # the calling thread, at the default sizes or with many small blocks
        if caller == "rows_200":  # test_slice_rows_follow_the_block_cap's law
            masks, coeffs, k = chaos_sum(unit_coefficients(gen_sum_set(22)))._kernel_input()
            signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(200, len(coeffs)))
            assert len(list(kernel.law(masks, signs * np.array(coeffs), k))) == 200
        else:
            shapes = fwht_shapes(monkeypatch)
            monkeypatch.setattr(kernel, "SLICE_BITS", 3)
            monkeypatch.setattr(kernel, "LAW_BLOCK_BITS", 5)
            if caller == "sup_growth":
                averaged_sup_growth(2, (6, 7), mc_samples=40, seed=1)
            else:
                samples = 40 if caller == "rud_mc" else None
                rud_average(gen_triangle(2, 6), None, SpaceSpec.lp(4), samples=samples, seed=2)
            assert len(shapes) > 1
        assert pool_calls == []

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(functions(int_coeff), edge_functions(rank_deficient_keys())),
           st.integers(1, 9), st.integers(0, 8))
    def test_one_row_law_maps_only_several_blocks(self, pool_calls, f, slice_bits,
                                                  block_bits):
        # a one-block law runs inline; a law of several blocks maps them in
        # one map_chunks call, on the default pool of up to 4 workers
        masks, coeffs = kernel.masks(f.terms, f.support), list(f.terms.values())
        pool_calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            shapes = fwht_shapes(mp)
            mp.setattr(kernel, "SLICE_BITS", slice_bits)
            mp.setattr(kernel, "LAW_BLOCK_BITS", block_bits)
            vals, counts = kernel.law(masks, coeffs, len(f.support))
        assert dict(zip(vals.tolist(), counts.tolist())) == parity_law(f)
        assert [n for n, _ in pool_calls] == ([len(shapes)] if len(shapes) > 1 else [])


class TestDtypeBoundaries:
    @pytest.mark.parametrize(
        "bound, dtype",
        [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
         (2**31 - 1, np.int32), (2**31, None)],
    )
    def test_dtype_and_law(self, bound, dtype):
        coeffs = {(1,): float(bound - 7), (3, 2): 3.0, (2,): -4.0}
        f = SignFunction(coeffs)
        assert kernel.int_dtype(list(f.terms.values()))[0] is dtype
        law = distribution_exact(f)
        assert law.values[-1] == float(bound)
        assert as_counts(law, 3) == parity_law(f)

    @pytest.mark.parametrize("bound, dtype", [(127, np.int8), (32767, np.int16)])
    def test_sliced_law_reaches_the_bound(self, bound, dtype, monkeypatch):
        # every term holds the 4 low coordinates and an odd number of the 4
        # high ones: the slice at high bits 0 sums to S, the one at all ones
        # to -S, and the transform reaches both
        coeffs = {(5, 4, 3, 2, 1): float(bound - 6), (6, 4, 3, 2, 1): 1.0,
                  (7, 4, 3, 2, 1): 2.0, (8, 7, 6, 4, 3, 2, 1): 3.0}
        f = SignFunction(coeffs)
        assert kernel.int_dtype(list(f.terms.values())) == (dtype, bound)
        monkeypatch.setattr(kernel, "SLICE_BITS", 4)
        law = distribution_exact(f)
        assert (law.values[0], law.values[-1]) == (-float(bound), float(bound))
        assert as_counts(law, 8) == parity_law(f)

    def test_reads_a_float_matrix_in_place(self):
        # the (1000, 91) +-1 patterns of averaged_sup_growth(2, (10, 12, 14), 1000):
        # column tops from max and min and one integrality pass, no copy of the matrix
        rows = np.where(np.random.default_rng(7).integers(0, 2, (1000, 91)), -1.0, 1.0)
        tracemalloc.start()
        try:
            assert kernel.int_dtype(rows) == (np.int8, 91)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * rows.nbytes

    def test_non_integer_takes_float_path(self):
        assert kernel.int_dtype([1.0, 2.5]) == (None, None)
        assert kernel.int_dtype([1.0, float("nan")]) == (None, None)
        assert kernel.int_dtype([1.0, float("inf")]) == (None, None)
        assert kernel.int_dtype(np.array([[1.0, 2.0], [float("inf"), 3.0]])) == (None, None)
        # integrality is read on every entry, not on the column maxima
        assert kernel.int_dtype(np.array([[127.0], [0.125]])) == (None, None)
        f = SignFunction({(1,): 1.0, (2,): 2.5})
        law = distribution_exact(f)
        assert law.atoms() == [(-3.5, 0.25), (-1.5, 0.25), (1.5, 0.25), (3.5, 0.25)]


class TestMemoryAndCaps:
    def test_sum_set_n22_streams(self):
        f = chaos_sum(unit_coefficients(gen_sum_set(22)))
        tracemalloc.start()
        try:
            law = distribution_exact(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(law.weights.sum() - 1.0) < 1e-12
        assert peak < 8 * 2**20

    def test_slice_rows_follow_the_block_cap(self):
        # 200 sign-flipped rows over sum set N = 22 (110 terms, S = 110: int8)
        # have 2^20 reduced configurations each, 16 slice rows of 2^16.  The
        # slice rows of one block are built at a time: the block and its
        # transposed copy take 2 bytes per entry, and 2^21 bytes cover the
        # rest (one 2^16-entry intp histogram index, the 200 x 110 matrix and
        # the 16 x 110 slice rows of a block); all 3200 at once take more
        masks, coeffs, k = chaos_sum(unit_coefficients(gen_sum_set(22)))._kernel_input()
        signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(200, len(coeffs)))
        tracemalloc.start()
        try:
            laws = list(kernel.law(masks, signs * np.array(coeffs), k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(laws) == 200 and all(int(c.sum()) == 1 << k for _, c in laws)
        assert peak < 2 * (1 << kernel.LAW_BLOCK_BITS) + (1 << 21)

    def test_sum_set_n30_sample_law_memory(self, monkeypatch):
        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        f = chaos_sum(unit_coefficients(gen_sum_set(30)))
        tracemalloc.start()
        try:
            law = distribution_mc(f, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(law.weights.sum() - 1.0) < 1e-12
        assert peak < 15 * 2**20

    def test_sample_law_chunk_memory(self, monkeypatch):
        # one chunk of MC_CHUNK rows at k = 30: the (30, 2^16) uint8 signs take
        # 1.9 MiB, next to one sub-block of Philox words at a time (512 KiB),
        # then the int64 sums and the histogram index; all 2^20 raw words of
        # the chunk at once, with their bool and transposed copies, took ~10 MiB
        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        masks, coeffs, k = chaos_sum(unit_coefficients(gen_sum_set(30)))._kernel_input()
        kernel.sample_law(masks, coeffs, k, 10, 0)  # first-call allocations stay out
        tracemalloc.start()
        try:
            vals, counts = kernel.sample_law(masks, coeffs, k, kernel.MC_CHUNK, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == kernel.MC_CHUNK
        assert peak < 4 * 2**20

    def test_sum_set_n24_law_reuses_its_buffers(self, monkeypatch):
        # 2^22 reduced configurations in int16, 64 slice rows of 2^16: one block
        # (2 bytes per entry) and one scratch array (at most 3 bytes per entry:
        # the stage buffer and the transposed part, then the transposed copy)
        # serve every block, and 2^20 bytes cover the rest (the 2^16-entry intp
        # histogram index and the slice rows of a block)
        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        masks, coeffs, k = chaos_sum(unit_coefficients(gen_sum_set(24)))._kernel_input()
        tracemalloc.start()
        try:
            vals, counts = kernel.law(masks, coeffs, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == 1 << k
        assert peak < 5 * (1 << kernel.LAW_BLOCK_BITS) + (1 << 20)

    def test_sum_set_n24_law_holds_buffers_per_worker(self, monkeypatch, pool_calls):
        # the same law on two workers: each holds its own block, scratch array
        # and histogram index, so the bound above holds per worker
        monkeypatch.setenv("CHAOSLAB_THREADS", "2")
        masks, coeffs, k = chaos_sum(unit_coefficients(gen_sum_set(24)))._kernel_input()
        tracemalloc.start()
        try:
            vals, counts = kernel.law(masks, coeffs, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == 1 << k
        assert [(n, len(ids)) for n, ids in pool_calls] == [(8, 2)]
        assert peak < 2 * 5 * (1 << kernel.LAW_BLOCK_BITS) + (1 << 20)

    def test_exact_law_keeps_hard_cap(self):
        f = chaos_sum(unit_coefficients(gen_sum_set(27)))
        with pytest.raises(ResourceLimitError) as err:
            distribution_exact(f, bits_cap=40)
        assert (err.value.required, err.value.budget) == (27, 26)
        assert "distribution_mc" in str(err.value)

    def test_values_cap_names_cheaper_routes(self):
        f = SignFunction({(j,): 1.0 for j in range(1, 28)})
        with pytest.raises(ResourceLimitError) as err:
            f.values()
        assert (err.value.required, err.value.budget) == (27, 26)
        # distribution_exact refuses the same support, so only sampling is named
        assert "distribution_exact" not in str(err.value)
        assert "distribution_mc" in str(err.value)


@pytest.mark.parametrize("raw", ["two", "1.5"])
def test_non_integer_thread_cap_gives_one_worker(raw, monkeypatch):
    monkeypatch.setenv("CHAOSLAB_THREADS", raw)
    assert worker_count() == 1


def test_bit_words_stay_in_the_kernel():
    # the kernel alone reads raw Philox words and packs or counts bit words
    modules = sorted(Path(kernel.__file__).parent.glob("*.py"))
    assert "kernel.py" in [path.name for path in modules]
    found = [f"{path.name}: {name}" for path in modules if path.name != "kernel.py"
             for name in ("bitwise_count", "packbits", "random_raw") if name in path.read_text()]
    assert found == []


def callers(name):
    """'module: function' of every library function that calls ``name``: a
    bare name or attribute (``_stages``), or a dotted one (``np.abs``)."""
    modules = sorted(Path(kernel.__file__).parent.glob("*.py"))
    return {f"{path.name}: {fn.name}" for path in modules
            for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None),
                         ast.unparse(node.func))}


def test_one_transform_routine():
    # fwht alone runs the butterfly stages, for one column or many, and the
    # integer route of law is one block loop: no second, sliced loop
    assert callers("_stages") == {"kernel.py: fwht"}
    assert not hasattr(kernel, "_sliced_laws")


def test_one_absolute_law():
    # every norm reads the law of |X| that abs_distribution builds, so X and -X
    # have the same norm bit for bit; moment sums the signed atoms, and an
    # Orlicz function is even
    laws = {c for c in callers("np.abs") if c.startswith(("distribution.py", "symspace.py"))}
    assert laws == {"distribution.py: abs_distribution", "distribution.py: moment",
                    "symspace.py: apply"}


def test_one_elimination_routine():
    # the pivots and flip of a law and the shift code reduce one way over F2
    assert callers("_echelon") == {"kernel.py: pivot_bits", "kernel.py: shift_code"}


def test_one_flip_code():
    # the two exact sign-pattern certificates build H + <1...1> one way, and
    # concentration reads its coset leaders alone, with no table translate; a
    # sampled pattern's sup reads the block transform of the laws, reduced,
    # folded and sliced by one helper, with no codeword sweep or packed words
    assert callers("flip_code") == {"chaos.py: rud_average", "chaos.py: sign_concentration_check"}
    assert not hasattr(kernel, "coset_translate")
    for name in ("coset_sup", "random_words", "SWEEP_CELL_BITS", "span"):
        assert not hasattr(kernel, name)
    assert callers("pivot_bits") == {"kernel.py: _reduced"}
    assert callers("_reduced") == {"kernel.py: law", "kernel.py: max_abs"}


def test_one_triangle_recursion():
    # a triangle's rows, its block rows and its block counts all come from one
    # recursion over sorted blocks: no combinations, product filter or second count
    assert callers("_descents") == {"walsh.py: _decreasing_rows", "walsh.py: _decreasing_count"}
    assert callers("_decreasing_rows") == {"walsh.py: to_array", "walsh.py: block_elements"}
    assert callers("_decreasing_count") == {"walsh.py: count_block"}
    assert not any(c.startswith("walsh.py") for c in callers("np.tile"))
    source = (Path(kernel.__file__).parent / "walsh.py").read_text()
    assert "itertools" not in source and "_triangle_block_count" not in source


def xor_span(words):
    """Every XOR combination of ``words``, by brute force."""
    out = {0}
    for w in words:
        out |= {v ^ w for v in out}
    return out


class TestEchelon:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 255), max_size=12), st.randoms(use_true_random=False))
    def test_reduced_basis_of_the_span(self, words, rng):
        basis = kernel._echelon(words)
        for p, w in basis.items():
            assert w.bit_length() - 1 == p
            assert all(not (w >> q & 1) for q in basis if q != p)
        assert xor_span(basis.values()) == xor_span(words)
        shuffled = list(words)
        rng.shuffle(shuffled)
        assert kernel._echelon(shuffled) == basis

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda k: st.tuples(
        st.lists(st.integers(0, (1 << k) - 1), max_size=12), st.just(k))))
    def test_row_rank_is_column_rank(self, case):
        # pivot_bits eliminates the masks, shift_code their transposed rows
        masks, k = case
        assert len(kernel.pivot_bits(masks)[0]) == len(kernel.shift_code(masks, k))

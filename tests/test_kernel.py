"""Configuration kernel: independent routes to a law agree exactly."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaoslab import (
    InvalidArgumentError,
    ResourceLimitError,
    SignFunction,
    chaos_sum,
    distribution_exact,
    distribution_mc,
    evaluate_dyadic,
    gen_sum_set,
    gen_triangle,
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
def edge_functions(draw):
    """Integer functions whose S = sum |c| lies near the int8, int16 and int32 edges."""
    key_list = draw(keys)
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
def shift_codes(draw):
    """(reduced basis, m) of the shift code of m <= 10 terms over s <= 8 support bits."""
    s = draw(st.integers(1, 8))
    term_masks = draw(st.lists(st.integers(0, (1 << s) - 1), min_size=1, max_size=10))
    return kernel.shift_code(term_masks, s), len(term_masks)


class TestCosetReps:
    @settings(max_examples=100, deadline=None)
    @given(shift_codes())
    def test_cosets_partition_the_patterns(self, case):
        # equal cosets are what lets a mean over representatives stand for all patterns
        basis, m = case
        reps = kernel.coset_reps(basis, m)
        code = kernel.span(np.array(list(basis.values()), dtype=np.uint64))
        patterns = np.sort((reps[:, None] ^ code[None, :]).ravel())
        assert np.array_equal(patterns, np.arange(1 << m, dtype=np.uint64))
        assert not np.any(reps & np.uint64(sum(1 << p for p in basis)))


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


class TestWorkerCount:
    def test_exact_and_mc_laws(self, monkeypatch):
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

    def test_non_integer_takes_float_path(self):
        assert kernel.int_dtype([1.0, 2.5]) == (None, None)
        assert kernel.int_dtype([1.0, float("nan")]) == (None, None)
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

"""Hypercube layer: Rademacher functions, chaos sums, exact and MC laws."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    EmptyInputError,
    IndexSet,
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
    law_of,
    rademacher,
    randomize_signs,
    unit_coefficients,
)
from chaoslab import kernel
from chaoslab.walsh import index_terms


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

    @pytest.mark.parametrize("terms, value", [({(): 2.5}, 2.5), ({(): -3.0}, -3.0), ({}, 0.0)])
    def test_empty_support_is_a_point_mass(self, terms, value):
        # a constant and the zero function sample no sign at all
        law = distribution_mc(SignFunction(terms), 100_000, seed=3)
        assert law.atoms() == [(value, 1.0)]

    def test_worker_count_invariance(self, monkeypatch, pool_calls):
        # chunk boundaries are fixed, so the law is identical for any pool size
        f = chaos_sum({(2, 1): 1.0, (3, 2): -0.5})
        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        seq = distribution_mc(f, 200_000, seed=77)
        monkeypatch.setenv("CHAOSLAB_THREADS", "4")
        par = distribution_mc(f, 200_000, seed=77)
        assert seq.atoms() == par.atoms()
        assert [len(threads) > 1 for _, threads in pool_calls] == [False, True]


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

    @pytest.mark.parametrize("terms, value", [({(): 2.5}, 2.5), ({}, 0.0)],
                             ids=["constant", "zero"])
    def test_constant_is_read_only(self, terms, value):
        values = evaluate_dyadic(SignFunction(terms), 3).values
        assert values.tolist() == [value] * 8
        assert not values.flags.writeable

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


class TestIndexSetEquality:
    def test_triangle_equals_its_explicit_copy_without_materializing(self, monkeypatch):
        tri = IndexSet.triangle(3, 7)
        explicit = IndexSet(3, array=tri.to_array())
        # 35 rows, as many as triangle(3, 7), but with entries up to 8
        wider = IndexSet.from_tuples(list(itertools.combinations(range(8, 0, -1), 3))[:35])

        def refuse(self):
            raise AssertionError("equality materialized a set")

        monkeypatch.setattr(IndexSet, "to_array", refuse)
        assert tri == explicit and explicit == tri
        assert tri != wider and wider != tri
        assert explicit != wider
        assert IndexSet.triangle(3, 400) == IndexSet.triangle(3, 400)


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

    def test_repeated_key_index_cancels(self):
        # r_3 r_3 r_1 = r_1, so a key with a repeated index agrees with the product
        f = SignFunction({(3, 3, 1): 1.0})
        assert f.terms == (rademacher(3) * rademacher(3) * rademacher(1)).terms == {(1,): 1.0}
        assert f.value({1: 1}) == 1.0
        assert f.value({1: -1}) == -1.0
        g = SignFunction({(2, 2): 1.0})
        assert g.terms == {(): 1.0} and g.support == ()
        assert distribution_exact(g).atoms() == [(1.0, 1.0)]
        # the odd count survives and merges with an equal monomial
        assert SignFunction({(1, 1, 1): 2.0, (1,): 0.5}).terms == {(1,): 2.5}

    def test_repeated_key_index_checked_before_cancelling(self):
        with pytest.raises(InvalidArgumentError):
            SignFunction({(0, 0): 1.0})

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

    def test_negation_and_subtraction(self):
        f = SignFunction({(2, 1): 1.5, (3,): -0.5})
        g = SignFunction({(2, 1): 1.5, (1,): 2.0})
        assert (-f).terms == {(2, 1): -1.5, (3,): 0.5}
        assert (f - g).terms == {(3,): -0.5, (1,): -2.0}  # the (2, 1) terms cancel
        assert (f - 2).terms == {(2, 1): 1.5, (3,): -0.5, (): -2.0}


@st.composite
def index_set_chaos(draw, kind):
    """(A, coefficients in canonical order) over a random explicit set of
    order 1..3 on indices 1..12; about a fifth of the coefficients are 0."""
    d = draw(st.integers(1, 3))
    element = st.lists(st.integers(1, 12), min_size=d, max_size=d, unique=True)
    rows = draw(st.lists(element.map(lambda t: sorted(t, reverse=True)), min_size=1,
                         max_size=14, unique_by=tuple))
    A = IndexSet.from_tuples(rows)
    if kind == "gauss":
        values = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(len(A))
    else:
        scale = 1 if kind == "int" else 8
        values = np.array(draw(st.lists(st.integers(-40, 40), min_size=len(A),
                                        max_size=len(A)))) / scale
    zero = draw(st.lists(st.integers(0, 4), min_size=len(A), max_size=len(A)))
    return A, np.where(np.array(zero) == 0, 0.0, values).tolist()


def same_law(a, b):
    return np.array_equal(a.values, b.values) and np.array_equal(a.weights, b.weights)


class TestLawOf:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["int", "dyadic", "gauss"]).flatmap(index_set_chaos), st.randoms())
    def test_matches_the_sign_function_route(self, case, random):
        A, c = case
        elements = list(A.tuples())
        reference = distribution_exact(chaos_sum(dict(zip(elements, c))))
        assert same_law(law_of(A, c), reference)
        order = list(range(len(c)))
        random.shuffle(order)
        assert same_law(law_of(A, {elements[i]: c[i] for i in order}), reference)
        _, keep, term_masks, k = index_terms(A, c)
        support = sorted({j for i in keep for j in elements[i]})
        assert term_masks == kernel.masks([elements[i] for i in keep], support)
        assert k == len(support)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["int", "dyadic"]).flatmap(index_set_chaos),
           st.permutations(range(1, 31)))
    def test_relabeling_invariance(self, case, image):
        A, c = case
        relabeled = {tuple(sorted((image[j - 1] for j in t), reverse=True)): x
                     for t, x in zip(A.tuples(), c)}
        assert same_law(law_of(IndexSet.from_tuples(relabeled), relabeled), law_of(A, c))

    def test_unit_coefficients_by_default(self):
        A = gen_triangle(2, 6)
        assert same_law(law_of(A), distribution_exact(chaos_sum(unit_coefficients(A))))

    @pytest.mark.parametrize("coeffs", [
        [1.0, 2.0],  # wrong length
        {(2, 1): 1.0, (3, 1): 1.0},  # a key missing
        {(2, 1): 1.0, (3, 1): 1.0, (3, 2): 1.0, (4, 1): 1.0},  # a key outside the set
    ])
    def test_coefficients_must_cover_the_set(self, coeffs):
        with pytest.raises(InvalidArgumentError):
            law_of(gen_triangle(2, 3), coeffs)

    def test_empty_set(self):
        with pytest.raises(EmptyInputError):
            law_of(IndexSet.from_tuples([], order=2))

    def test_bits_cap_refusal_of_distribution_exact(self):
        A = gen_triangle(1, 25)
        with pytest.raises(ResourceLimitError) as ours:
            law_of(A, bits_cap=24)
        with pytest.raises(ResourceLimitError) as theirs:
            distribution_exact(chaos_sum(unit_coefficients(A)), bits_cap=24)
        assert str(ours.value) == str(theirs.value)
        assert (ours.value.required, ours.value.budget) == (25, 24)


class TestNonFiniteCoefficients:
    """NaN and +-inf are refused where coefficients enter, not carried into laws."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sign_function_refuses(self, bad):
        with pytest.raises(InvalidArgumentError, match="finite"):
            SignFunction({(1,): bad, (2,): 1.0})
        with pytest.raises(InvalidArgumentError, match="finite"):
            chaos_sum({(1,): bad, (2,): 1.0})
        with pytest.raises(InvalidArgumentError, match="finite"):
            randomize_signs({(1,): bad, (2,): 1.0}, {(1,): -1, (2,): 1})
        with pytest.raises(InvalidArgumentError, match="finite"):
            rademacher(1) * bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            rademacher(1) + bad

    def test_product_overflow_refused(self):
        big = chaos_sum({(1,): 1e200})
        with pytest.raises(InvalidArgumentError, match="finite"):
            big * big

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_index_terms_refuses(self, bad):
        A = gen_triangle(2, 4)
        coeffs = [1.0, 2.0, bad, 1.0, 1.0, 1.0]
        for given_coeffs in (coeffs, np.array(coeffs), dict(zip(A.tuples(), coeffs))):
            with pytest.raises(InvalidArgumentError, match="coefficient 2 is"):
                index_terms(A, given_coeffs)
            with pytest.raises(InvalidArgumentError, match="finite"):
                law_of(A, given_coeffs)

    def test_finite_extremes_accepted(self):
        A = gen_triangle(1, 2)
        law = law_of(A, [1e300, -5e-324])
        assert np.all(np.isfinite(law.values))
        assert distribution_exact(chaos_sum({(1,): 1e300})).values.tolist() == [-1e300, 1e300]


def per_key_chaos_sum(coeffs):
    """``chaos_sum`` reading its map one MultiIndex per key: the reference of
    the key array."""
    if not coeffs:
        raise EmptyInputError("coefficient map is empty")
    keys = [MultiIndex(k) for k in coeffs]
    if len({k.order for k in keys}) > 1:
        raise InvalidArgumentError("coefficient map keys must share one order")
    return SignFunction({k: float(c) for k, c in zip(keys, coeffs.values())})


def per_key_index_terms(A, coeffs):
    """``index_terms`` of a map read one MultiIndex per key and handed on as
    the sequence of its values in canonical order."""
    given = {MultiIndex(t): float(v) for t, v in coeffs.items()}
    keys = [tuple(r) for r in A.to_array().tolist()]
    missing = sum(t not in given for t in keys)
    if missing or len(given) > len(keys):
        raise InvalidArgumentError(f"coefficient map misses {missing} elements of the set "
                                   f"and has {len(given) - len(keys) + missing} keys outside it")
    return index_terms(A, [given[t] for t in keys])


def outcome(fn, *args):
    """("ok", result) or (exception type, message) of one call."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # any exception: its type and message are compared
        return type(exc), str(exc)


KEY_FORMS = {
    "tuple": lambda row: row,
    "int64": lambda row: tuple(np.int64(j) for j in row),
    "int32": lambda row: tuple(np.int32(j) for j in row),
    "multi": MultiIndex,
    "bare": lambda row: row[0],  # order 1 only
    "bare_int64": lambda row: np.int64(row[0]),
}
FAULTS = ("none", "mixed", "nondecreasing", "zero", "nonfinite", "missing", "extra")


@st.composite
def coefficient_maps(draw):
    """(A, map, fault): a map keyed by the rows of A (order 1..4, entries <= 40)
    in drawn order, each key a tuple of ints, of numpy ints, a MultiIndex or,
    at order 1, a bare int; values 0.0, -0.0, ints or floats; then one fault."""
    d = draw(st.integers(1, 4))
    element = st.lists(st.integers(1, 40), min_size=d, max_size=d, unique=True)
    rows = draw(st.lists(element.map(lambda t: tuple(sorted(t, reverse=True))), min_size=1,
                         max_size=12, unique=True))
    forms = sorted(KEY_FORMS) if d == 1 else ["tuple", "int64", "int32", "multi"]
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-5, 5),
                      st.floats(allow_nan=False, allow_infinity=False))
    items = [(KEY_FORMS[draw(st.sampled_from(forms))](row), draw(value)) for row in rows]
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, len(items)))
    # of order d, rising or with a repeated entry; at order 1 no such key exists
    rising = draw(st.sampled_from([tuple(range(1, d + 1)), (d,) * d])) if d > 1 else (1, 2)
    bad_key = {"mixed": tuple(range(d + 1, 0, -1)), "nondecreasing": rising,
               "zero": tuple(range(d - 1, -1, -1)), "extra": tuple(range(40 + d, 40, -1))}
    if fault in bad_key:
        items.insert(at, (bad_key[fault], 1.0))
    elif fault == "nonfinite":
        items[at % len(items)] = (items[at % len(items)][0],
                                  draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    elif fault == "missing":
        del items[at % len(items)]
    return IndexSet.from_tuples(rows), dict(items), fault


class TestKeyArray:
    """A coefficient map reaches the kernel as one int64 key array, with the
    results and refusals of reading it one MultiIndex per key."""

    @settings(max_examples=300, deadline=None)
    @given(coefficient_maps())
    def test_matches_the_per_key_reading(self, case):
        A, coeffs, _ = case
        got, want = outcome(chaos_sum, coeffs), outcome(per_key_chaos_sum, coeffs)
        assert got[0] == want[0]
        if got[0] == "ok":
            f, g = got[1], want[1]
            assert [(k, v.hex()) for k, v in f.terms.items()] == \
                [(k, v.hex()) for k, v in g.terms.items()]
            assert all(type(j) is int for key in f.terms for j in key)
            assert f.support == g.support and all(type(j) is int for j in f.support)
        else:
            assert got[1] == want[1]
        got, want = outcome(index_terms, A, coeffs), outcome(per_key_index_terms, A, coeffs)
        assert got[0] == want[0]
        if got[0] == "ok":
            (c, keep, masks, k), (c0, keep0, masks0, k0) = got[1], want[1]
            assert c.tobytes() == c0.tobytes() and np.array_equal(keep, keep0)
            assert masks == masks0 and k == k0
        else:
            assert got[1] == want[1]

    def test_no_multi_index_per_key(self, monkeypatch):
        A20, A18 = gen_triangle(2, 20), gen_triangle(2, 18)
        m20 = unit_coefficients(A20)
        m18 = dict(reversed([(t, float(i % 5 - 2)) for i, t in enumerate(A18.tuples())]))
        built = []
        new = MultiIndex.__new__
        monkeypatch.setattr(MultiIndex, "__new__",
                            lambda cls, entries: built.append(entries) or new(cls, entries))
        MultiIndex((2, 1))
        assert built == [(2, 1)]  # the counter counts
        built.clear()
        assert len(m20) == 190 and len(chaos_sum(m20).terms) == 190
        assert len(m18) == 153 and len(index_terms(A18, m18)[2]) == 153 * 4 // 5
        bare = {j: float(j % 3) for j in range(20, 0, -1)}  # order 1 keyed by bare ints
        assert len(chaos_sum(bare).terms) == 14 and len(index_terms(gen_triangle(1, 20), bare)[2]) == 14
        assert built == []


    @pytest.mark.parametrize("n", [62, 63, 64, 70])
    def test_masks_of_wide_supports_are_exact(self, n):
        # int64 masks hold 62 bits here; wider supports take Python ints
        rows = gen_triangle(2, n).to_array()
        support = np.unique(rows)
        got = kernel.masks(rows, support)
        assert got == kernel.masks(rows.tolist(), support.tolist())
        assert max(got) == 3 << (n - 2) and all(type(m) is int for m in got)

@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_block_rows_are_canonical(data, n, seed):
    # the rows block_elements adopts unchecked: strictly decreasing, positive,
    # unique and in lexicographic order, as the checked constructor keeps them
    d = data.draw(st.integers(1, min(4, n)))
    blocks = [data.draw(st.sets(st.integers(1, n), max_size=8)) for _ in range(d)]
    tri = IndexSet.triangle(d, n)
    rows = tri.to_array()
    explicit = IndexSet(d, array=rows[np.random.default_rng(seed).random(len(rows)) < 0.5])
    for got in (tri.block_elements(blocks), explicit.block_elements(blocks)):
        rows = got.to_array()
        assert rows.dtype == np.int64 and rows.shape == (len(got), d)
        assert not rows.flags.writeable
        assert (rows[:, -1] >= 1).all() and (np.diff(rows, axis=1) < 0).all()
        keys = [tuple(r) for r in rows.tolist()]
        assert keys == sorted(set(keys))
        assert np.array_equal(IndexSet(d, array=rows)._array, rows)

"""Index-set generation, block densities, dimension fits, text format."""

import functools
import itertools
import math
import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaoslab import (
    BlockChoice,
    DegenerateFitError,
    IndexSet,
    InvalidArgumentError,
    ResourceLimitError,
    density_certificates,
    density_count,
    dump_index_set,
    estimate_dimension,
    gen_sum_set,
    gen_triangle,
    load_index_set,
    max_density,
)


def brute_sum_set(N):
    return {(i + j, j, i) for i in range(1, N) for j in range(i + 1, N) if i + j <= N}


def brute_block_count(A_tuples, blocks):
    sets = [set(b) for b in blocks]
    return sum(1 for t in A_tuples if all(v in s for v, s in zip(t, sets)))


class TestGenerators:
    def test_triangle_2_3(self):
        A = gen_triangle(2, 3)
        assert sorted(A.tuples()) == [(2, 1), (3, 1), (3, 2)]

    def test_triangle_3_3(self):
        assert sorted(gen_triangle(3, 3).tuples()) == [(3, 2, 1)]

    def test_triangle_order_1(self):
        assert sorted(gen_triangle(1, 5).tuples()) == [(j,) for j in range(1, 6)]

    def test_triangle_cardinality(self):
        for d, J in [(2, 8), (3, 9), (4, 10)]:
            assert len(gen_triangle(d, J)) == math.comb(J, d)

    def test_triangle_invalid(self):
        with pytest.raises(InvalidArgumentError):
            gen_triangle(3, 2)

    def test_triangle_lazy_matches_explicit(self):
        for d, J in [(2, 6), (3, 7)]:
            lazy = gen_triangle(d, J)
            explicit = IndexSet.from_tuples(itertools.combinations(range(J, 0, -1), d))
            assert lazy == explicit

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.integers(1, min(n, 4)), st.just(n))))
    def test_triangle_rows_are_the_combinations(self, case):
        d, n = case
        rows = sorted(c[::-1] for c in itertools.combinations(range(1, n + 1), d))
        got = gen_triangle(d, n).to_array()
        assert got.dtype == np.int64 and got.shape == (math.comb(n, d), d)
        assert got.tolist() == [list(r) for r in rows]

    def test_triangle_count_past_int64(self):
        full = [range(1, 10**4 + 1)] * 6
        assert density_count(gen_triangle(6, 10**4), full) == math.comb(10**4, 6) > 2**63

    @pytest.mark.parametrize("d, n", [(3, 120), (2, 1000)])
    def test_triangle_rows_allocate_about_their_bytes(self, d, n):
        # every row is placed once: no overshoot to filter, no list of tuples
        tracemalloc.start()
        try:
            rows = gen_triangle(d, n).to_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (math.comb(n, d), d)
        assert peak < 3 * rows.nbytes

    def test_huge_triangle_stays_cheap(self):
        A = gen_triangle(3, 1100)
        assert len(A) == math.comb(1100, 3)
        assert A.count_leq(64) == math.comb(64, 3)
        with pytest.raises(ResourceLimitError):
            A.to_array()

    def test_sum_set_small(self):
        expect = {(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)}
        got = {(t[2], t[1]) for t in gen_sum_set(6).tuples()}
        assert got == expect
        assert len(gen_sum_set(5)) == 4

    def test_sum_set_closed_form(self):
        for N in range(3, 61):
            A = gen_sum_set(N)
            assert len(A) == (N - 1) ** 2 // 4
            assert set(A.tuples()) == brute_sum_set(N)
        assert len(gen_sum_set(200)) == 199**2 // 4 == 9900

    def test_sum_set_inside_triangle(self):
        A = gen_sum_set(12)
        tri = gen_triangle(3, 12)
        assert all(t in tri for t in A.tuples())

    def test_sum_set_invalid(self):
        with pytest.raises(InvalidArgumentError):
            gen_sum_set(2)

    def test_sum_set_allocates_about_its_rows(self):
        assert set(gen_sum_set(301).tuples()) == brute_sum_set(301)
        tracemalloc.start()
        try:
            A = gen_sum_set(2000)  # 999,000 rows of 24 bytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(A) == 1999**2 // 4
        assert peak < 100 * 2**20


class TestDensityCount:
    def test_upper_corner(self):
        assert density_count(gen_triangle(2, 4), [(3, 4), (1, 2)]) == 4

    def test_identity_blocks_sum_set(self):
        A = gen_sum_set(6)
        assert density_count(A, [range(1, 7)] * 3) == 6

    def test_disjoint_blocks(self):
        assert density_count(gen_sum_set(12), [(100, 101), (1, 2), (1, 2)]) == 0

    def test_order_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            density_count(gen_sum_set(6), [(1, 2), (1, 2)])

    @pytest.mark.parametrize("A", [gen_sum_set(6), gen_triangle(3, 6)],
                             ids=["explicit", "triangle"])
    def test_order_mismatch_is_named(self, A):
        with pytest.raises(InvalidArgumentError, match="order mismatch: set order 3, blocks 2"):
            density_count(A, [(1, 2), (1, 2)])

    def test_triangle_dp_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for d, J in [(2, 9), (3, 8)]:
            A = gen_triangle(d, J)
            tuples = list(A.tuples())
            for _ in range(20):
                n = int(rng.integers(1, 5))
                blocks = [tuple(rng.choice(np.arange(1, J + 2), size=n, replace=False)) for _ in range(d)]
                assert density_count(A, blocks) == brute_block_count(tuples, blocks)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 9))
    def test_triangle_block_elements_match_the_product(self, data, d, n):
        # reference: itertools.product over the sorted block universes, the
        # strictly decreasing tuples kept; blocks may be empty or reach
        # outside [1, n]
        assume(d <= n)
        blocks = [data.draw(st.sets(st.integers(-2, n + 3), max_size=7)) for _ in range(d)]
        universe = [sorted(v for v in b if 1 <= v <= n) for b in blocks]
        rows = [t for t in itertools.product(*universe) if all(a > b for a, b in zip(t, t[1:]))]
        got = gen_triangle(d, n).block_elements(blocks)
        assert got == IndexSet.from_tuples(rows, order=d)
        assert got.to_array().tolist() == sorted(map(list, rows))
        assert len(got) == density_count(gen_triangle(d, n), blocks)

    def test_bounded_by_block_volume(self):
        rng = np.random.default_rng(29)
        A = gen_sum_set(15)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            blocks = [tuple(rng.choice(np.arange(1, 16), size=n, replace=False)) for _ in range(3)]
            c = density_count(A, blocks)
            assert c <= min(len(A), n**3)


def greedy_reference(A, n, universe):
    """Greedy swap with one density_count per trial block choice."""
    blocks = [list(range(1, n + 1)) for _ in range(A.order)]
    count = density_count(A, blocks)
    improved = True
    while improved:
        improved = False
        for i in range(A.order):
            here = set(blocks[i])
            for out in sorted(here):
                for cand in range(1, universe + 1):
                    if cand in here:
                        continue
                    trial = sorted(here - {out} | {cand})
                    trial_blocks = blocks[:i] + [trial] + blocks[i + 1 :]
                    c = density_count(A, trial_blocks)
                    if c > count:
                        blocks, count, improved = trial_blocks, c, True
                        break
                if improved:
                    break
            if improved:
                break
    return count, tuple(tuple(b) for b in blocks)


def exhaustive_reference(A, n, universe):
    """Every block choice in lexicographic order; the first maximum is the witness.

    Rows inside the universe are bits; a block's rows are the OR of its values'
    masks, and a block choice's the AND of its blocks'.
    """
    value_masks = [{} for _ in range(A.order)]
    for row, t in enumerate(A.restrict(universe).to_array().tolist()):
        for masks, v in zip(value_masks, t):
            masks[v] = masks.get(v, 0) | (1 << row)
    candidates = list(itertools.combinations(range(1, universe + 1), n))
    cand_masks = [[functools.reduce(operator.or_, (masks.get(v, 0) for v in c)) for c in candidates]
                  for masks in value_masks]
    best_count, best_idx = -1, None
    for idx in itertools.product(range(len(candidates)), repeat=A.order):
        c = functools.reduce(operator.and_, (cm[k] for cm, k in zip(cand_masks, idx))).bit_count()
        if c > best_count:
            best_count, best_idx = c, idx
    return best_count, tuple(candidates[k] for k in best_idx)


@st.composite
def exhaustive_instances(draw):
    # entries run to universe + 3, so some rows (or all) lie outside the universe
    d = draw(st.integers(1, 3))
    universe = draw(st.integers(d + 1, 8))
    n = draw(st.integers(1, universe - 1))
    assume(math.comb(universe, n) ** d <= 30_000)
    entries = st.lists(st.integers(1, universe + 3), min_size=d, max_size=d, unique=True)
    rows = draw(st.lists(entries, min_size=1, max_size=30))
    return IndexSet.from_tuples({tuple(sorted(r, reverse=True)) for r in rows}), n, universe


class TestMaxDensity:
    @settings(max_examples=150, deadline=None)
    @given(exhaustive_instances())
    def test_exhaustive_matches_every_block_choice(self, instance):
        A, n, universe = instance
        count, witness = max_density(A, n, universe, "exhaustive")
        assert (count, witness.blocks) == exhaustive_reference(A, n, universe)

    @pytest.mark.parametrize("A,n,universe", [(gen_sum_set(12), 3, 9), (gen_triangle(3, 9), 3, 9),
                                              (gen_triangle(2, 12), 5, 12)])
    def test_exhaustive_matches_on_stock_sets(self, A, n, universe):
        count, witness = max_density(A, n, universe, "exhaustive")
        assert (count, witness.blocks) == exhaustive_reference(A, n, universe)

    def test_exhaustive_example(self):
        count, witness = max_density(gen_triangle(2, 4), 2, 4, "exhaustive")
        assert count == 4
        assert witness.blocks == ((3, 4), (1, 2))

    def test_identity_sum_set(self):
        count, witness = max_density(gen_sum_set(20), 6, 20, "identity-blocks")
        assert count == 25 // 4 == 6
        assert witness.blocks[0] == (1, 2, 3, 4, 5, 6)

    def test_blocks_forced_at_full_universe(self):
        A = gen_sum_set(8)
        for strategy in ("exhaustive", "greedy-swap", "identity-blocks"):
            count, _ = max_density(A, 8, 8, strategy)
            assert count == len(A)

    def test_exhaustive_dominates(self):
        A = gen_sum_set(8)
        exh, _ = max_density(A, 3, 8, "exhaustive")
        greedy, _ = max_density(A, 3, 8, "greedy-swap")
        ident, _ = max_density(A, 3, 8, "identity-blocks")
        assert exh >= greedy >= ident

    def test_greedy_improves_on_identity(self):
        # moving the top block up captures more decreasing pairs
        A = gen_triangle(2, 6)
        greedy, witness = max_density(A, 2, 6, "greedy-swap")
        ident, _ = max_density(A, 2, 6, "identity-blocks")
        assert greedy >= ident
        exh, _ = max_density(A, 2, 6, "exhaustive")
        assert greedy <= exh

    def test_exhaustive_counts_only_the_universe(self):
        # the full triangle(3, 1000) has 166,167,000 elements; C(6, 3) lie in [1, 6]
        count, witness = max_density(gen_triangle(3, 1000), 2, 6, "exhaustive")
        assert count == 8
        assert witness.blocks == ((5, 6), (3, 4), (1, 2))

    def test_greedy_matches_per_trial_counts(self):
        rng = np.random.default_rng(41)
        sets = [gen_sum_set(N) for N in (12, 20, 40)]
        sets += [gen_triangle(2, 9), gen_triangle(3, 10), gen_triangle(3, 40)]
        tri = list(gen_triangle(3, 12).tuples())
        sets += [IndexSet.from_tuples([tri[i] for i in rng.choice(len(tri), 60, replace=False)])]
        for A in sets:
            for _ in range(3):
                universe = int(rng.integers(A.order + 1, 16))
                n = int(rng.integers(1, universe))
                count, witness = max_density(A, n, universe, "greedy-swap")
                assert (count, witness.blocks) == greedy_reference(A, n, universe)

    def test_budget_error(self):
        with pytest.raises(ResourceLimitError) as err:
            max_density(gen_sum_set(40), 15, 30, "exhaustive")
        assert err.value.budget == 1_000_000

    def test_invalid_strategy(self):
        with pytest.raises(InvalidArgumentError):
            max_density(gen_sum_set(6), 2, 6, "magic")

    @pytest.mark.parametrize("n", [0, 7])
    def test_block_size_out_of_range(self, n):
        with pytest.raises(InvalidArgumentError, match=f"need 1 <= n <= universe, got n={n}"):
            max_density(gen_sum_set(6), n, 6)

    def test_monotone_identity_counts(self):
        A = gen_sum_set(30)
        counts = [max_density(A, n, 30, "identity-blocks")[0] for n in range(3, 15)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestDensityCertificates:
    def test_empty_n_list(self):
        with pytest.raises(InvalidArgumentError, match="n_list is empty"):
            density_certificates(gen_sum_set(12), 1.0, 2.0, [], 12)

    def test_sum_set_super_2(self):
        # identity blocks give floor((n-1)^2/4) elements; the worst ratio on
        # {4..12} is 2/16 at n=4
        report = density_certificates(gen_sum_set(40), 2.0, 2.0, range(4, 13), 40, "identity-blocks")
        assert report.quantity("super_alpha_constant") == pytest.approx(0.125, abs=1e-12)
        assert report.verdict
        report59 = density_certificates(
            gen_sum_set(40), 2.0, 2.0, range(5, 13), 40, "identity-blocks"
        )
        assert report59.quantity("super_alpha_constant") >= 0.14

    def test_triangle_sub_3(self):
        report = density_certificates(gen_triangle(3, 30), 1.0, 3.0, [2, 3], 6, "exhaustive")
        assert report.quantity("sub_beta_constant") <= 1.0
        assert report.inputs["sub_side"] == "certificate"

    def test_sum_set_sub_2_exhaustive(self):
        report = density_certificates(gen_sum_set(30), 1.0, 2.0, [2], 6, "exhaustive")
        assert report.quantity("sub_beta_constant") <= 1.0

    def test_heuristic_labeling(self):
        report = density_certificates(gen_sum_set(20), 1.0, 2.0, [3, 4], 20, "identity-blocks")
        assert report.inputs["super_side"] == "lower-bound evidence"

    def test_parameter_order(self):
        with pytest.raises(InvalidArgumentError):
            density_certificates(gen_sum_set(20), 2.0, 1.0, [3], 20)


class TestEstimateDimension:
    N_LIST = [64, 128, 256, 512, 1024]

    def test_sum_set_slope(self):
        profile = estimate_dimension(gen_sum_set(2100), self.N_LIST, 2100)
        counts = [(n - 1) ** 2 // 4 for n in self.N_LIST]
        oracle = np.polyfit(np.log(self.N_LIST), np.log(counts), 1)[0]
        assert profile.alpha_hat == pytest.approx(oracle, abs=1e-12)
        assert 1.95 <= profile.alpha_hat <= 2.05
        assert profile.r_squared > 0.9999

    def test_triangle_order3_slope(self):
        profile = estimate_dimension(gen_triangle(3, 1100), self.N_LIST, 1100)
        counts = [math.comb(n, 3) for n in self.N_LIST]
        oracle = np.polyfit(np.log(self.N_LIST), np.log(counts), 1)[0]
        assert profile.alpha_hat == pytest.approx(oracle, abs=1e-12)
        # the local slope of log C(n,3) is 3 + ~3/n, so the fit sits just above 3
        assert 3.0 < profile.alpha_hat < 3.03

    def test_triangle_order1_slope(self):
        profile = estimate_dimension(gen_triangle(1, 1100), self.N_LIST, 1100)
        assert profile.alpha_hat == pytest.approx(1.0, abs=1e-3)

    def test_rows_capture_witnesses(self):
        profile = estimate_dimension(gen_sum_set(40), [4, 8, 16], 40)
        assert [r.best_count for r in profile.rows] == [2, 12, 56]
        assert profile.rows[0].witness.blocks[0] == (1, 2, 3, 4)

    def test_greedy_rows_are_max_density(self):
        A = gen_sum_set(20)
        profile = estimate_dimension(A, [3, 4, 5], 20, "greedy-swap")
        assert [r.n for r in profile.rows] == [3, 4, 5]
        for row in profile.rows:
            count, witness = max_density(A, row.n, 20, "greedy-swap")
            assert (row.best_count, row.witness.blocks, row.strategy) == (
                count, witness.blocks, "greedy-swap")

    def test_needs_three_points(self):
        with pytest.raises(InvalidArgumentError):
            estimate_dimension(gen_sum_set(40), [4, 8], 40)

    @pytest.mark.parametrize("n_list", [[4, 4, 4], [4, 4, 8], [8, 4, 8, 4]])
    def test_needs_three_distinct_sizes(self, n_list):
        # a line through fewer than 3 distinct points fits exactly and says nothing
        with pytest.raises(InvalidArgumentError, match=re.escape(str(n_list))):
            estimate_dimension(gen_sum_set(40), n_list, 40)

    def test_repeated_sizes_beside_three_distinct(self):
        profile = estimate_dimension(gen_sum_set(40), [4, 8, 8, 16], 40)
        assert [r.best_count for r in profile.rows] == [2, 12, 12, 56]

    def test_degenerate_fit(self):
        A = IndexSet.from_tuples([(9, 8, 7)])
        with pytest.raises(DegenerateFitError):
            estimate_dimension(A, [3, 4, 5], 9)


class TestBlockChoice:
    def test_identity(self):
        b = BlockChoice.identity(3, 4)
        assert b.order == 3 and b.n == 4

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            BlockChoice(((1, 2), (3,)))

    def test_positive_entries(self):
        with pytest.raises(InvalidArgumentError):
            BlockChoice(((0, 1), (2, 3)))

    @pytest.mark.parametrize("blocks, cause", [((), "at least one block"),
                                               (((), ()), "blocks must be nonempty")])
    def test_empty_refused(self, blocks, cause):
        with pytest.raises(InvalidArgumentError, match=cause):
            BlockChoice(blocks)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        A = gen_sum_set(9)
        path = tmp_path / "a.idx"
        dump_index_set(A, path)
        B = load_index_set(path)
        assert A == B
        # a second dump is byte-identical
        path2 = tmp_path / "b.idx"
        dump_index_set(B, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.idx"
        path.write_text("# header\n\n3 2 1\n# mid\n4 2 1\n\n")
        A = load_index_set(path)
        assert sorted(A.tuples()) == [(3, 2, 1), (4, 2, 1)]

    def test_line_order_irrelevant(self, tmp_path):
        p1, p2 = tmp_path / "f.idx", tmp_path / "g.idx"
        p1.write_text("3 2 1\n4 2 1\n")
        p2.write_text("4 2 1\n3 2 1\n")
        assert load_index_set(p1) == load_index_set(p2)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_text("3 x 1\n")
        with pytest.raises(InvalidArgumentError):
            load_index_set(path)

    def test_non_decreasing_line(self, tmp_path):
        path = tmp_path / "bad2.idx"
        path.write_text("1 2 3\n")
        with pytest.raises(InvalidArgumentError):
            load_index_set(path)

    def test_row_errors_name_the_file(self, tmp_path):
        path = tmp_path / "mixed.idx"
        path.write_text("3 2 1\n# comment\n4 2\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:3: row of order 2")):
            load_index_set(path)
        path.write_text("3 2 1\n1 2 3\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: ") + r".*\(1, 2, 3\)"):
            load_index_set(path)
        path.write_bytes(b"3 2 1\n4 \xe9 1\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: not an ASCII")):
            load_index_set(path)
        path.write_text("3 2 1\n99999999999999999999 2 1\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: ") + ".*int64"):
            load_index_set(path)

    @pytest.mark.parametrize("token", ["1_0", "+3"])
    def test_only_ascii_digit_runs(self, token, tmp_path):
        # int() reads 1_0 as 10 and +3 as 3; the format is runs of ASCII digits
        path = tmp_path / "token.idx"
        path.write_text(f"12 11 9\n# comment\n{token} 2 1\n")
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"{path}:3: not an integer row: '{token} 2 1'")):
            load_index_set(path)

    @pytest.mark.parametrize("A", [gen_sum_set(20), gen_triangle(3, 8)], ids=["sum20", "tri3_8"])
    def test_generated_sets_round_trip(self, A, tmp_path):
        path = tmp_path / "set.idx"
        dump_index_set(A, path)
        B = load_index_set(path)
        assert B == A and np.array_equal(B.to_array(), A.to_array())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_text("# nothing\n")
        with pytest.raises(InvalidArgumentError):
            load_index_set(path)


@st.composite
def element_rows(draw):
    """(order, int64 rows) of strictly decreasing positive tuples, with
    repeats, some entries near the top of int64."""
    d = draw(st.integers(1, 3))
    entry = st.one_of(st.integers(1, 6), st.integers(2**63 - 4, 2**63 - 1))
    tuples = st.lists(entry, min_size=d, max_size=d, unique=True)
    rows = draw(st.lists(tuples.map(lambda t: sorted(t, reverse=True)), max_size=12))
    return d, np.array(rows, dtype=np.int64).reshape(-1, d)


class TestIndexSetOps:
    @settings(max_examples=200, deadline=None)
    @given(element_rows())
    def test_rows_are_canonical(self, case):
        # sorted input skips the sort; either way the set holds unique rows in
        # lexicographic order, and the caller's array stays its own and writable
        d, rows = case
        canonical = np.unique(rows, axis=0)
        for given_rows in (rows, canonical):
            before = given_rows.copy()
            got = IndexSet(d, array=given_rows).to_array()
            assert np.array_equal(got, canonical) and not got.flags.writeable
            assert given_rows.flags.writeable and np.array_equal(given_rows, before)
            assert not np.shares_memory(got, given_rows)

    def test_ascending_rows_skip_the_sort(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("ascending rows were sorted")

        monkeypatch.setattr(np, "unique", no_sort)
        rows = np.array([(3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 2, 1)])  # a later column falls
        assert np.array_equal(IndexSet(3, array=rows).to_array(), rows)
        assert len(gen_triangle(3, 7).block_elements([range(1, 8)] * 3)) == 35
        assert len(gen_sum_set(12)) == 30  # the generator builds its rows in order

    def test_restrict_explicit(self):
        A = gen_sum_set(12)
        assert set(A.restrict(6).tuples()) == set(gen_sum_set(6).tuples())

    def test_restrict_triangle(self):
        A = gen_triangle(3, 50)
        R = A.restrict(5)
        assert R.is_triangle and len(R) == math.comb(5, 3)
        E = A.restrict(2)  # below the order: no row fits
        assert not E.is_triangle and len(E) == 0 and E.order == 3

    def test_membership(self):
        A = gen_sum_set(10)
        assert (3, 2, 1) in A
        assert (4, 3, 2) not in A  # 2+3=5, not 4
        assert (5, 2) not in A  # wrong order

    def test_count_leq_matches_restrict(self):
        A = gen_sum_set(33)
        for n in (3, 7, 12, 33):
            assert A.count_leq(n) == len(A.restrict(n))

"""Block densities and combinatorial dimension of index sets.

The density of an index set A over a block choice (B_1, ..., B_d) of
equal-size integer sets is |A ∩ (B_1 × ... × B_d)|.  Lower bounds of the
form max-density >= c n^alpha (over some blocks, for each n) and upper
bounds <= C n^beta (over all blocks) are what the super-alpha / sub-beta
certificates quantify, and the least-squares growth exponent of the best
counts is the empirical combinatorial dimension.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, InvalidArgumentError, check_cap
from .report import timed_report, write_text
from .walsh import _MATERIALIZE_CAP, IndexSet, _index_entries

EXHAUSTIVE_BUDGET = 1_000_000
STRATEGIES = ("exhaustive", "greedy-swap", "identity-blocks")


@dataclass(frozen=True)
class BlockChoice:
    """d blocks of distinct positive integers, all of one size n."""

    blocks: tuple

    def __init__(self, blocks):
        blocks = tuple(tuple(sorted(set(_index_entries(b)))) for b in blocks)
        if not blocks:
            raise InvalidArgumentError("block choice needs at least one block")
        n = len(blocks[0])
        if n < 1:
            raise InvalidArgumentError("blocks must be nonempty")
        if any(len(b) != n for b in blocks):
            raise InvalidArgumentError("all blocks must have equal size")
        if any(b[0] < 1 for b in blocks):
            raise InvalidArgumentError("block entries must be positive integers")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def identity(cls, order, n):
        return cls(tuple(tuple(range(1, n + 1)) for _ in range(order)))

    @property
    def order(self):
        return len(self.blocks)

    @property
    def n(self):
        return len(self.blocks[0])

    def __iter__(self):
        return iter(self.blocks)


@dataclass(frozen=True)
class ProfileRow:
    n: int
    best_count: int
    witness: BlockChoice
    strategy: str


@dataclass(frozen=True)
class DensityProfile:
    """Best block counts per n with the fitted growth exponent."""

    rows: tuple
    alpha_hat: float
    r_squared: float


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_triangle(d, max_index):
    """Full triangle: all strictly decreasing d-tuples with entries <= max_index.

    Held implicitly, so huge triangles stay cheap; materialization happens
    only on demand and only when affordably small.
    """
    return IndexSet.triangle(int(d), int(max_index))


def gen_sum_set(max_entry):
    """The order-3 sum set {(i+j, j, i) : 1 <= i < j, i+j <= max_entry}."""
    N = int(max_entry)
    if N < 3:
        raise InvalidArgumentError(f"sum set needs max entry >= 3, got {N}")
    # (N - 1)^2 // 4 rows, checked before they are allocated
    largest = 1 + math.isqrt(4 * _MATERIALIZE_CAP + 3)  # largest N within the cap
    check_cap((N - 1) ** 2 // 4, _MATERIALIZE_CAP, "rows of the sum set",
              f"use a smaller max entry (CLI --max), at most {largest}")
    s = np.arange(3, N + 1)
    per_s = (s - 1) // 2  # j runs over s // 2 + 1..s - 1: lexicographic rows, by s then j
    rows = np.empty((per_s.sum(), 3), dtype=np.int64)  # columns i + j, j, i
    rows[:, 0] = np.repeat(s, per_s)
    rows[:, 1] = np.arange(1, len(rows) + 1) + np.repeat(s // 2 - np.cumsum(per_s) + per_s, per_s)
    rows[:, 2] = rows[:, 0] - rows[:, 1]
    return IndexSet(3, array=rows)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def density_count(A: IndexSet, blocks) -> int:
    """Exact |A ∩ (B_1 × ... × B_d)|."""
    return A.count_block(blocks)


def _union_mask(masks, values):
    m = 0
    for v in values:
        m |= masks.get(v, 0)
    return m


def max_density(A: IndexSet, n, universe, strategy="exhaustive"):
    """Best block density of A at block size n, by the chosen strategy.

    exhaustive      true maximum over all block choices from [1, universe]
                    (budget-limited; ties resolved to the lexicographically
                    smallest witness)
    greedy-swap     local maximum from identity blocks via single-element
                    swaps, first-improvement in a fixed scan order
    identity-blocks the count for B_i = {1, ..., n}
    """
    n, universe = int(n), int(universe)
    if strategy not in STRATEGIES:
        raise InvalidArgumentError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if n < 1 or n > universe:
        raise InvalidArgumentError(f"need 1 <= n <= universe, got n={n}, universe={universe}")
    d = A.order

    if strategy == "identity-blocks" or n == universe:
        # n == universe forces B_i = {1..universe} under every strategy
        blocks = BlockChoice.identity(d, n)
        return density_count(A, blocks), blocks

    per_coord = math.comb(universe, n)
    if strategy == "exhaustive":
        check_cap(per_coord**d, EXHAUSTIVE_BUDGET, "block choices of an exhaustive search",
                  "use strategy 'greedy-swap' for a local maximum")
    # rows of A inside the universe (no other element meets a block choice) as bits:
    # a block's rows are the OR of its values' masks, a block choice's the AND
    value_masks = [{} for _ in range(d)]
    for row, t in enumerate(A.restrict(universe).to_array().tolist()):
        for masks, v in zip(value_masks, t):
            masks[v] = masks.get(v, 0) | (1 << row)

    if strategy == "exhaustive":
        candidates = list(itertools.combinations(range(1, universe + 1), n))
        cand_masks = [
            [_union_mask(value_masks[i], c) for c in candidates] for i in range(d - 1)
        ]
        last_masks = [value_masks[-1].get(v, 0) for v in range(1, universe + 1)]
        all_rows = functools.reduce(operator.or_, last_masks)
        best_count = -1
        best_blocks = None
        # prefixes B_1..B_{d-1} in lexicographic order; for each, the best B_d is the
        # n values v with the most rows N(v) in the prefix, ties to the smaller v, which
        # is also the smallest such block: the first maximum seen is the smallest witness
        for idx in itertools.product(range(per_coord), repeat=d - 1):
            m = all_rows
            for i, k in enumerate(idx):
                m &= cand_masks[i][k]
            if m.bit_count() <= best_count:
                continue  # the whole prefix cannot beat the best count
            rows_at = [(m & lm).bit_count() for lm in last_masks]
            # a stable sort keeps equal counts in ascending order of v
            last = sorted(range(universe), key=rows_at.__getitem__, reverse=True)[:n]
            c = sum(rows_at[v] for v in last)
            if c > best_count:
                best_count = c
                best_blocks = [candidates[k] for k in idx] + [[v + 1 for v in last]]
        return best_count, BlockChoice(best_blocks)

    # greedy-swap: take the first improving swap in scan order until none improves
    blocks = [list(range(1, n + 1)) for _ in range(d)]
    unions = [_union_mask(masks, b) for masks, b in zip(value_masks, blocks)]
    count = functools.reduce(operator.and_, unions).bit_count()

    def swaps():
        for i in range(d):
            here = set(blocks[i])
            others = functools.reduce(operator.and_, unions[:i] + unions[i + 1 :], -1)
            for out in sorted(here):
                for cand in range(1, universe + 1):
                    if cand not in here:
                        trial = sorted(here - {out} | {cand})
                        union = _union_mask(value_masks[i], trial)
                        yield (others & union).bit_count(), i, trial, union

    while swap := next((s for s in swaps() if s[0] > count), None):
        count, i, trial, union = swap
        blocks[i], unions[i] = trial, union
    return count, BlockChoice(tuple(tuple(b) for b in blocks))


def density_certificates(A: IndexSet, alpha, beta, n_list, universe, strategy="exhaustive"):
    """Empirical super-alpha / sub-beta certificate over the tested n range.

    The super-alpha side reports min_n best_count / n^alpha (a lower
    density constant, exact only under exhaustive search); the sub-beta
    side reports max_n best_count / n^beta over the searched blocks
    (a true certificate for exhaustive search, otherwise only refutation
    evidence).  The report labels each side accordingly.
    """
    d = A.order
    if not 1 <= alpha <= beta <= d:
        raise InvalidArgumentError(f"need 1 <= alpha <= beta <= order, got {alpha}, {beta}, {d}")
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise InvalidArgumentError("n_list is empty")
    exact = strategy == "exhaustive"
    with timed_report(
        "density-certificates",
        {
            "alpha": alpha,
            "beta": beta,
            "n_list": tuple(n_list),
            "universe": universe,
            "strategy": strategy,
            "super_side": "exact" if exact else "lower-bound evidence",
            "sub_side": "certificate" if exact else "refutation-only",
        },
    ) as report:
        lower = math.inf
        upper = 0.0
        for n in n_list:
            count, _ = max_density(A, n, universe, strategy)
            report.add(f"count_n{n}", count, "info")
            lower = min(lower, count / n**alpha)
            upper = max(upper, count / n**beta)
        report.add("super_alpha_constant", lower, "info")
        report.add("super_alpha_positive", 1.0 if lower > 0 else 0.0, "==", 1.0)
        report.add("sub_beta_constant", upper, "info")
    return report


def estimate_dimension(A: IndexSet, n_list, universe, strategy="identity-blocks"):
    """Least-squares growth exponent of the best counts against n."""
    n_list = [int(n) for n in n_list]
    if len(set(n_list)) < 3:
        raise InvalidArgumentError(f"dimension estimation needs at least 3 distinct block sizes, "
                                   f"got n_list {n_list}")
    rows = []
    for n in n_list:
        if strategy == "identity-blocks":
            # the identity count never needs a block search
            count = A.count_leq(n)
            witness = BlockChoice.identity(A.order, n)
        else:
            count, witness = max_density(A, n, universe, strategy)
        if count == 0:
            raise DegenerateFitError(f"best count at n={n} is zero; log-log fit is degenerate")
        rows.append(ProfileRow(n, int(count), witness, strategy))
    x = np.log([r.n for r in rows])
    y = np.log([r.best_count for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DensityProfile(tuple(rows), float(slope), r2)


# ---------------------------------------------------------------------------
# Text interchange format
# ---------------------------------------------------------------------------


def dump_index_set(A: IndexSet, path):
    """Write one element per line, entries space-separated decreasing."""
    write_text(path, "".join(" ".join(map(str, row)) + "\n" for row in A.to_array().tolist()))


def load_index_set(path):
    """Parse the text format: '#' comments and blank lines are ignored."""
    rows = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not an ASCII text file: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not all(map(str.isdigit, tokens)):  # ASCII digits only: int() reads 1_0 and +3 too
            raise InvalidArgumentError(f"{path}:{lineno}: not an integer row: {line!r}")
        entries = list(map(int, tokens))
        if rows and len(entries) != len(rows[0]):
            raise InvalidArgumentError(f"{path}:{lineno}: row of order {len(entries)} "
                                       f"in a set of order {len(rows[0])}")
        rows.append(entries)
    if not rows:
        raise InvalidArgumentError(f"{path}: no elements found")
    try:
        return IndexSet(len(rows[0]), array=rows)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc

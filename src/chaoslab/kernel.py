"""Evaluation of a sparse Walsh polynomial over its sign configurations.

Every routine that evaluates a chaos over configurations goes through this
module, and every one reads the polynomial's monomials as one :class:`Terms`,
built once from a key array or from a coefficient map's keys: the support
positions of each term and the support width k.  Coordinate b of the
ascending support is -1 at a configuration exactly when bit b of its word is
set.  The exact routes read a term as the mask of its coordinates, whose value
at a configuration is (-1)^parity(word & mask); Monte Carlo reads its
coordinates as sign columns.

Every exact law goes through :func:`law`, the one place that picks a route
and refuses a support wider than ``HARD_CAP_BITS`` (2^26 configurations).  It
takes one coefficient row or a (P, T) matrix of P rows over the same terms,
such as the sign patterns of one chaos, settles the dtype, the rank reduction
and the caps once for all P, and transforms the rows a block of at most
2^``LAW_BLOCK_BITS`` entries at a time (:func:`_block_laws`), so that each
row's law is bit-identical to its own one-row call.  The blocks of one row
that fills several run on the :func:`~chaoslab.parallel.map_chunks` pool and
merge in block order, so no law depends on the worker count.

* Integer coefficients whose absolute sum S is at most 2^31 - 1 take a fast
  Walsh-Hadamard transform (FWHT) in the narrowest of int8, int16 and int32
  that holds S: every partial sum is a signed subset sum, bounded by S.  It
  enumerates the 2^r configurations of the r pivot coordinates of the masks,
  r their F2-rank, and scales the counts by 2^(k - r); every sum set and
  triangle(2, n) has r = k - 1.  Where a configuration c* negates every term
  (every odd-degree chaos, and some even ones such as disjoint pairs) the law
  is symmetric, so the sign of the top bit of c* is fixed too and the counts
  fold by v -> -v.  The caps read the k support bits, so a refusal names the
  support a caller passed.  Memory is one block only while 2S + 1 <=
  ``_DENSE_RANGE``: a wider value range can hold up to 2^k atoms, so the hard
  cap guards memory on this route too.
* Other coefficients take float64 transforms of all 2^k configurations, with
  a fixed stage order (lowest bit first) and fixed butterflies (a + b, a - b),
  so equal inputs give bit-identical atoms; :func:`values` is the one-row
  case.  A transform reduced to the rank would add the floats in another order
  and move atoms by ulps, and a fold would spare part of the sort and none of
  the transform, as the half with a bit of c* clear is contiguous only after a
  relabelling that reorders the stages.
* Monte Carlo (:func:`sample_law`) draws one sign per support coordinate from
  the seeded Philox stream of :func:`random_bits`, so it neither reduces nor
  folds, and no cap bounds its support; a term's parity is the XOR of its
  sign columns.
* Sign patterns over the T terms are bit words, bit t set where the sign of
  term t is -1.  Shifting the configuration by c multiplies a pattern by the
  word chi(c) of the :func:`shift_code` H, so a sup or a law depends only on
  the pattern's coset; :func:`flip_code` adds the flip u -> -u, and
  :func:`coset_reps` and :func:`coset_leaders` give one entry per coset for
  all 2^T patterns.
"""

from __future__ import annotations

import itertools
import operator
import threading

import numpy as np

from .errors import InvalidArgumentError, check_cap
from .parallel import map_chunks

HARD_CAP_BITS = 26  # widest support any exact route enumerates: 2^26 configurations
SLICE_BITS = 16  # low configuration bits transformed per slice
MC_CHUNK = 1 << 16  # Monte Carlo rows per counter block
_SIGN_BLOCK_BITS = 17  # log2 of the 32-bit Philox halves random_bits reads per sub-block
_DENSE_RANGE = 1 << 17  # widest value range histogrammed by bincount
_TRANSPOSE_BITS = 10  # parts of at least 2^10 rows run their low row bits on a transposed copy
_BLOCK_BITS = 16  # longer transforms run their low stages in parts of 2^16 float64 (512 KiB)
LAW_BLOCK_BITS = 19  # log2 of the entries of one block of the laws of a coefficient matrix


class Terms:
    """The monomials of a Walsh polynomial: term t holds the support positions
    ``cols[starts[t]:starts[t + 1]]`` (none for a constant term) of a support
    of ``k`` coordinates.  Built from ``keys``, a (T, d) integer array of index
    rows or a sequence of index tuples of any lengths, over ``support``, the
    ascending indices they hold; no cap is read, as a sampled law may be wide."""

    __slots__ = ("cols", "starts", "k", "_masks")

    def __init__(self, keys, support):
        if isinstance(keys, np.ndarray):
            sizes, entries = np.full(len(keys), keys.shape[1]), keys.reshape(-1)
        else:  # entries past int64 read as Python ints
            sizes = np.fromiter(map(len, keys), np.intp, len(keys))
            entries = np.array(list(itertools.chain.from_iterable(keys)))
        self.cols = np.searchsorted(support, entries)
        self.starts = np.concatenate(([0], np.cumsum(sizes)))
        self.k, self._masks = len(support), None

    def __len__(self):
        return len(self.starts) - 1

    def rows(self):
        """The term of each entry of ``cols``."""
        return np.repeat(np.arange(len(self)), np.diff(self.starts))

    def masks(self):
        """int64 mask of each term, bit b set where it holds coordinate b, built on
        first use: the exact routes read them under the hard cap, where they fit."""
        if self._masks is None:
            self._masks = np.zeros(len(self), dtype=np.int64)
            np.add.at(self._masks, self.rows(), np.left_shift(1, self.cols))  # distinct bits
        return self._masks


def parity(words, mask):
    """1 where monomial ``mask`` is -1 at configuration ``words``, else 0 (uint8)."""
    return np.bitwise_count(words & mask) & 1


def int_dtype(coeffs):
    """(dtype, S) with S = sum |c| and dtype the narrowest of int8, int16 and
    int32 whose max is at least S, so that it transforms ``coeffs`` exactly.
    A list is a one-row matrix, and for a (P, T) array S sums the largest
    |c| of each column, which bounds the sum of every row.

    (None, None) for non-integer coefficients, (None, S) when S > 2^31 - 1.
    """
    rows = np.atleast_2d(np.asarray(coeffs, dtype=float))  # a float array is not copied
    tops = np.maximum(rows.max(axis=0), -rows.min(axis=0))
    if not ((np.trunc(rows) == rows).all() and np.isfinite(tops).all()):  # NaN, inf
        return None, None
    bound = sum(map(int, tops.tolist()))
    fits = (t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max)
    return next(fits, None), bound


def fwht(a, cols=1, work=None):
    """In-place Walsh-Hadamard transform of every column of ``a`` viewed as
    (a.size // cols, cols): a[c] <- sum_S a[S] (-1)^popcount(c & S) over rows.

    Stages run from the lowest row bit up, each mapping a pair of rows
    (x, y) to (x + y, x - y).  Every butterfly sees the same inputs in any
    schedule that keeps this order per pair, so these schedules give
    bit-identical floats, and each column equals its own 1-D transform: the
    rows are split into parts of a power of two rows, at most the bytes of
    2^_BLOCK_BITS float64 (one row at least), each transformed in cache
    before the stages across parts, and a part of at least
    2^_TRANSPOSE_BITS rows runs the low half of its row bits on a
    transposed copy, so every stage works on contiguous runs.  ``work`` is
    scratch of a's dtype with at least :func:`_fwht_work` entries: the
    stage buffer, then the transposed part; None allocates it.
    """
    n = a.size // cols
    part = min(n, max(1, (8 << _BLOCK_BITS) // a.itemsize >> (cols - 1).bit_length()))
    if work is None:
        work = np.empty(_fwht_work(a.size, cols, a.itemsize), a.dtype)
    stage, spare = work[: a.size // 2], work[a.size // 2 :]
    for p in a.reshape(n // part, -1):
        rows = part
        if part >= 1 << _TRANSPOSE_BITS:  # a row's cols entries move as one item
            rows = part >> (part.bit_length() - 1) // 2
            grid = p.view(np.dtype((np.void, cols * a.itemsize))).reshape(rows, -1)
            t = spare[: p.size].view(grid.dtype).reshape(grid.shape[::-1])
            t[...] = grid.T
            _stages(t.view(a.dtype), t.shape[0], stage)
            grid[...] = t.T
        _stages(p, rows, stage)
    if n > part:
        _stages(a, n // part, stage)
    return a


def _fwht_work(size, cols, itemsize):
    """Entries of scratch that serves an :func:`fwht` of at most ``size``
    entries in at most ``cols`` columns: half the size for the stage buffer,
    and a transposed part, which holds at most the bytes of 2^_BLOCK_BITS
    float64 or one row of ``cols`` entries."""
    return size // 2 + min(size, max((8 << _BLOCK_BITS) // itemsize, cols))


def _stages(a, rows, buf):
    """Butterflies over the row bits of ``a`` viewed as (rows, a.size // rows),
    the differences held in the first a.size // 2 entries of ``buf``."""
    n = a.size
    h = n // rows
    while h < n:
        pairs = a.reshape(-1, 2, h)
        x, y = pairs[:, 0], pairs[:, 1]
        diff = buf[: n // 2].reshape(-1, h)
        np.subtract(x, y, out=diff)
        x += y
        y[...] = diff
        h *= 2


def values(terms, coeffs):
    """float64 values of the polynomial at all 2^k configurations."""
    _check_hard_cap(terms.k)
    vals = np.zeros(1 << terms.k)
    vals[terms.masks()] = coeffs
    return fwht(vals)


def _check_hard_cap(k):
    check_cap(k, HARD_CAP_BITS, "configuration bits of an exact enumeration",
              "sample the law with distribution_mc")


def _echelon(words):
    """Fully reduced basis {pivot bit: word} of the F2 span of the Python
    ints ``words``: the pivot of a word is its highest bit, and every basis
    word is zero on the other pivot bits.  That form is unique, and the
    pivots keep the order in which the words first reach them.  Each word
    is reduced along the chain of its highest bits into an echelon form;
    then each row, in ascending pivot order, is cleared of the lower pivots
    by the rows already reduced, one XOR per pivot bit it holds."""
    basis = {}
    for w in words:
        while w and (b := basis.get(w.bit_length() - 1)):
            w ^= b
        if w:
            basis[w.bit_length() - 1] = w
    done = 0  # the pivots whose rows are reduced
    for p in sorted(basis):
        w = basis[p]
        while lower := w & done:
            w ^= basis[lower.bit_length() - 1]
        basis[p] = w
        done |= 1 << p
    return basis


def pivot_bits(terms):
    """(pivots, flip) of the :func:`_echelon` of the masks of ``terms`` over
    F2, the elimination :func:`shift_code` runs too.

    ``pivots`` are the pivot bits, the highest bits of the reduced rows;
    their number is the rank.  ``flip`` is a configuration at which every
    monomial is -1, parity(flip & m) = 1 for every mask m, or None where
    there is none (a constant term, or triangle(2, n)).  Each mask carries
    a right-hand-side bit 1 below it, so there is none exactly when bit 0
    is a pivot; else bit p - 1 of ``flip`` is bit 0 of reduced row p, and
    its free bits are 0.
    """
    basis = _echelon(m << 1 | 1 for m in terms.masks().tolist())
    flip = None if 0 in basis else sum((w & 1) << (p - 1) for p, w in basis.items())
    return {p - 1 for p in basis if p}, flip


def law(terms, coeffs):
    """Exact (values, counts) over the 2^k configurations of ``terms``; for a
    (P, T) matrix ``coeffs``, an iterator over the laws of its P rows in order.
    Coefficients that ``int_dtype`` transforms exactly take the integer route
    over the slice rows of :func:`_reduced`, whose histograms, folded by
    v -> -v where a flip negates every term, merge in block order and scale
    by 2^(k - r); the others take float64 blocks over all 2^k configurations
    and the equal runs of each sorted row, which are what ``np.unique`` gives.
    """
    _check_hard_cap(terms.k)
    rows = np.asarray(coeffs, dtype=float)
    single = rows.ndim == 1
    rows = np.atleast_2d(rows)
    dtype, bound = int_dtype(rows)
    if dtype is None:
        laws = _block_laws(terms.masks(), len(rows), lambda i, j: rows[i:j], terms.k, np.float64,
                           lambda: _sorted_runs)
        return next(laws) if single else laws
    lows, low_bits, slices, slice_rows, folded, fixed = _reduced(terms, rows)

    def histograms():  # one intp index per worker, reused by every slice row it reads
        index = np.empty(1 << low_bits, dtype=np.intp)

        def read(block, work):  # rows by index: iterating a 2-D array costs more
            vals = _rows(block, work)
            return (_histogram(vals[i], bound, folded, index) for i in range(len(vals)))

        return read

    laws = _block_laws(lows, len(rows) * slices, slice_rows, low_bits, dtype, histograms,
                       pool=single)
    laws = ((vals, counts << fixed) for vals, counts in map(_merge, zip(*[laws] * slices)))
    return next(laws) if single else laws


def max_abs(terms, coeffs):
    """Max over the 2^k configurations of ``terms`` of |value| of each row of
    the (P, T) integer matrix ``coeffs``, as int64, from the slice rows of
    :func:`_reduced` (the fold keeps the sup, as c xor c* negates the value
    at c) and the blocks of :func:`_block_laws`; refuses other coefficients."""
    _check_hard_cap(terms.k)
    rows = np.atleast_2d(np.asarray(coeffs, dtype=float))
    dtype, _ = int_dtype(rows)
    if dtype is None:
        raise InvalidArgumentError("max_abs needs integer coefficients whose absolute "
                                   "sum is at most 2**31 - 1")
    lows, low_bits, slices, slice_rows, _, _ = _reduced(terms, rows)

    def tops(block, work):  # halving the rows in place reads contiguous runs at any P
        top = np.abs(block, out=block)  # |v| <= S, which the dtype holds
        h = len(top)
        while h > 1:
            h //= 2
            np.maximum(top[:h], top[h : 2 * h], out=top[:h])
        return top[0]

    out = np.fromiter(_block_laws(lows, len(rows) * slices, slice_rows, low_bits, dtype,
                                  lambda: tops),
                      dtype=np.int64, count=len(rows) * slices)
    return out.reshape(len(rows), slices).max(axis=1)


def _reduced(terms, rows):
    """(lows, low_bits, slices, slice_rows, folded, fixed) of the integer
    route: the signs off the r :func:`pivot_bits` of ``terms``, ``fixed`` =
    k - r, are +1, and where a flip c* negates every term (``folded``) so is
    the sign of its top bit; masks that then coincide add their coefficients.
    The k' bits left are cut at ``low_bits`` = min(k', SLICE_BITS), and
    ``slice_rows(start, stop)`` gives rows start..stop of the slice matrix:
    row p * slices + h of it, slices = 2^(k' - low_bits), sums
    c * chi_high(h) over the terms of each distinct low mask in ``lows``,
    exactly, for row p of the float matrix ``rows``.
    """
    pivots, flip = pivot_bits(terms)
    fixed = terms.k - len(pivots)
    if flip:  # the top bit of flip is a pivot: fix its sign to +1 too, and fold
        pivots.remove(flip.bit_length() - 1)
    words = terms.masks().astype(np.uint64)
    for j in sorted(set(range(terms.k)) - pivots, reverse=True):  # drop bit j: sign j is +1
        words = words & ((1 << j) - 1) | words >> (j + 1) << j
    k = len(pivots)
    low_bits = min(k, SLICE_BITS)
    slices = 1 << (k - low_bits)
    low = (words & ((1 << low_bits) - 1)).astype(np.intp)
    order = np.argsort(low, kind="stable")
    lows, starts = np.unique(low[order], return_index=True)
    high = (words >> low_bits)[order]
    rows = rows[:, order]

    def slice_rows(start, stop):
        i = np.arange(start, stop)
        c = rows[i // slices]
        signed = np.where(parity((i % slices).astype(np.uint64)[:, None], high), -c, c)
        return np.add.reduceat(signed, starts, axis=1)

    return lows, low_bits, slices, slice_rows, bool(flip), fixed


def _block_laws(masks, count, rows, k, dtype, reader, pool=False):
    """Laws of ``count`` coefficient rows over 2^k configurations, built by
    ``rows(start, stop)`` a block of at most 2^LAW_BLOCK_BITS entries (one
    row at least) at a time.  The P rows of a block are scattered to rows
    ``masks`` of a (2^k, P) array, the rows on the contiguous axis, and
    transformed by one :func:`fwht` call; ``read(block, work)`` maps the
    transformed block to its P laws, or to another reading of each row, and
    may overwrite both arrays.  A worker allocates its block, one scratch
    array ``work`` (the stage buffer and transposed part of the transform,
    then for P > 1 the transposed copy of :func:`_rows`) and ``read =
    reader()`` once and reuses them for every block it runs: buffers allocated
    per block would come from fresh pages past the allocator's mmap threshold,
    and faulting those in costs more than the transform.  The blocks stream
    on the calling thread, or, with ``pool`` and more than one block,
    run through :func:`map_chunks`; either way the laws come in block order."""
    step = max(1, min(count, (1 << LAW_BLOCK_BITS) >> k))
    size, itemsize = step << k, np.dtype(dtype).itemsize
    copy = size if step > 1 else 0  # one row needs no transposed copy
    held = threading.local()  # one worker's block, scratch and reader

    def run(start):
        if not hasattr(held, "buf"):
            held.buf = np.empty(size, dtype)
            held.work = np.empty(max(copy, _fwht_work(size, step, itemsize)), dtype)
            held.read = reader()
        coeffs = rows(start, min(start + step, count))
        block = held.buf[: coeffs.shape[0] << k].reshape(1 << k, -1)
        block.fill(0)
        block[masks] = coeffs.T
        fwht(block.reshape(-1), block.shape[1], held.work)
        return list(held.read(block, held.work))

    for laws in (map_chunks if pool and count > step else map)(run, range(0, count, step)):
        yield from laws


def _rows(block, work):
    """The P rows of a transformed (2^k, P) block as a contiguous (P, 2^k)
    array: a transposed copy in ``work``, or the block itself for one row."""
    if block.shape[1] == 1:
        return block.T
    rows = work[: block.size].reshape(block.shape[::-1])
    rows[...] = block.T
    return rows


def _sorted_runs(block, work):
    """(values, counts) of each row of a transformed float block, sorted in
    place in :func:`_rows`: the equal runs of the sorted row, as
    ``np.unique`` finds them."""
    rows = _rows(block, work)
    rows.sort(axis=1)
    edge = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=edge[:, 1:])
    starts = np.flatnonzero(edge)
    counts = np.diff(starts, append=rows.size)
    cut = np.searchsorted(starts, np.arange(rows.shape[1], rows.size, rows.shape[1]))
    return zip(np.split(rows.reshape(-1)[starts], cut), np.split(counts, cut))


def philox_key(seed):
    """``seed`` as a Philox key, an integer in [0, 2^128); else InvalidArgumentError."""
    try:
        key = operator.index(seed)
    except TypeError:
        key = None
    if key is None or not 0 <= key < 1 << 128:
        raise InvalidArgumentError(f"seed {seed!r} must be an integer in [0, 2**128)")
    return key


def random_bits(seed, counter, rows, k):
    """(k, rows) uint8 matrix of the seeded bits
    ``Generator(Philox(key=seed, counter=counter)).integers(0, 2, size=(rows, k)).T``:
    column r is the r-th sign pattern over k terms, 1 where a sign is -1.

    That draw returns bit 31 of one 32-bit Philox output per entry, and
    Philox hands out its 32-bit outputs as the low, then the high half of
    each raw 64-bit word.  So entry i of the row-major draw is bit 31 of
    half i of ``random_raw(ceil(rows * k / 2))``, low half first; the halves
    are read through little-endian views, whatever the byte order.  One
    Philox fills the columns in sub-blocks of an even number of rows,
    about 2^_SIGN_BLOCK_BITS halves each: a sub-block reads whole raw
    words, so successive ``random_raw`` calls continue the stream exactly,
    and no more than one sub-block of raw words is held at a time.
    """
    out = np.empty((k, rows), dtype=np.uint8)
    philox = np.random.Philox(key=philox_key(seed), counter=counter)
    step = max(2, ((1 << _SIGN_BLOCK_BITS) // max(k, 1)) & ~1)
    for start in range(0, rows, step):
        m = min(step, rows - start)
        raw = philox.random_raw((m * k + 1) // 2).astype("<u8", copy=False).view("<u4")
        top = raw[: m * k] >= np.uint32(1 << 31)
        del raw  # the next sub-block's words replace these, not join them
        out[:, start : start + m] = top.view(np.uint8).reshape(m, k).T
    return out


def _xor_columns(bits, cols):
    """Parity (uint8) of the rows ``cols`` of ``bits``: 0 for no rows."""
    if len(cols) == 0:
        return np.zeros(bits.shape[1], dtype=np.uint8)
    if len(cols) == 1:
        return bits[cols[0]]
    out = bits[cols[0]] ^ bits[cols[1]]
    for col in cols[2:]:
        out ^= bits[col]
    return out


def sample_law(terms, coeffs, samples, seed):
    """Seeded Monte Carlo (values, counts) of ``samples`` configurations.

    Chunk j holds rows j * MC_CHUNK.. of the sample and reads its signs
    with :func:`random_bits` at counter j << 64, so the law depends on
    neither the worker count nor the chunk schedule.  A term is -1 where
    the XOR of its sign columns is 1.  Integer coefficients are grouped by
    value: each group counts its odd terms in a narrow unsigned array and
    adds c * (size - 2 * odd) in int64, which is exact.  Other coefficients
    add +c or -c per term in term order, the float64 arithmetic of the
    column products.
    """
    term_cols = np.split(terms.cols, terms.starts[1:-1])
    dtype, bound = int_dtype(coeffs)
    exact = dtype is not None
    if exact:
        groups = {}
        for columns, c in zip(term_cols, coeffs):
            groups.setdefault(int(c), []).append(columns)

    def run_chunk(start):
        m = min(MC_CHUNK, samples - start)
        bits = random_bits(seed, (start // MC_CHUNK) << 64, m, terms.k)
        if not exact:
            acc, term = np.zeros(m), np.empty(m)
            for columns, c in zip(term_cols, coeffs):
                np.multiply(_xor_columns(bits, columns), -2.0, out=term)
                term += 1.0
                term *= c  # +c or -c exactly
                acc += term
            return np.unique(acc, return_counts=True)
        acc = np.zeros(m, dtype=np.int64)
        for c, group in groups.items():
            odd = np.zeros(m, dtype=np.min_scalar_type(len(group)))
            for columns in group:
                odd += _xor_columns(bits, columns)
            acc += c * len(group)
            acc -= np.multiply(odd, 2 * c, dtype=np.int64)
        return _histogram(acc, bound)

    return _merge(map_chunks(run_chunk, range(0, samples, MC_CHUNK)))


def _histogram(vals, bound, mirror=False, index=None):
    """(values, counts) of an integer array with entries in [-bound, bound];
    with ``mirror``, of its entries and of their negatives.  ``index``, an
    intp array of vals.size entries, holds the offset values vals + bound;
    None allocates it."""
    if 2 * bound + 1 > _DENSE_RANGE:
        law = np.unique(vals, return_counts=True)
        return _mirror(law) if mirror else law
    counts = np.bincount(np.add(vals, bound, dtype=np.intp, out=index),
                         minlength=2 * bound + 1)
    if mirror:
        counts += counts[::-1]
    nz = np.flatnonzero(counts)
    return nz - bound, counts[nz]


def _mirror(law):
    """The histogram ``law`` merged with its image under v -> -v."""
    vals, counts = law
    return _merge([law, (-vals[::-1], counts[::-1])])


def _merge(parts):
    """Sum (values, counts) histograms into one over the sorted distinct values."""
    if len(parts) == 1:
        return parts[0]
    vals, inv = np.unique(np.concatenate([p[0] for p in parts]), return_inverse=True)
    counts = np.zeros(vals.size, dtype=np.int64)
    np.add.at(counts, inv, np.concatenate([p[1] for p in parts]))
    return vals, counts


def shift_code(terms):
    """Reduced basis {pivot bit: word} of the shift code H = {chi(c)}.

    Bit t of chi(c) is set where term t of ``terms`` is -1 at configuration
    c, so shifting the configuration by c multiplies sign pattern u by
    chi(c).  H is spanned by the k coordinate rows (bit t set where term t
    holds coordinate j), whose :func:`_echelon` is the basis, the elimination
    :func:`pivot_bits` runs too.  Every basis word is zero on the other pivot
    bits, so the words zero on every pivot bit are one representative per
    coset of H.
    """
    return _echelon(_coordinate_rows(terms))


def flip_code(terms):
    """Reduced basis of H' = H + <1...1>, the :func:`shift_code` H and the
    flip u -> -u: the row of a fresh coordinate in every term.  H' = H where
    a configuration negates every term, as in every odd-degree chaos."""
    return _echelon([*_coordinate_rows(terms), (1 << len(terms)) - 1])


def _coordinate_rows(terms):
    """Row j of each coordinate j < k, a Python int: bit t is set where term t holds j."""
    rows = [0] * terms.k
    for t, j in zip(terms.rows().tolist(), terms.cols.tolist()):
        rows[j] |= 1 << t
    return rows


def coset_reps(basis, m):
    """One representative per coset of the shift code with basis ``basis``:
    the 2^(m - len(basis)) m-bit words zero on every pivot bit, as the rows of
    a uint8 bit matrix, bit t of a word in column t, in counter order over the
    free bits: bit i of the row index is the i-th non-pivot bit.  Every coset
    holds 2^len(basis) patterns, so a mean over the representatives is the
    mean over all 2^m patterns."""
    free = [t for t in range(m) if t not in basis]
    bits = np.zeros((1 << len(free), m), dtype=np.uint8)
    bits[:, free] = np.arange(1 << len(free))[:, None] >> np.arange(len(free)) & 1
    return bits


def _xor_gather(table, g):
    """A copy of table[s ^ g] for every index s of a uint8 table of 2^n
    entries.  Bits 3 and up of g move whole uint64 words of eight entries,
    one index entry per word, and XOR by 7, 3 or 1 reverses the bytes of
    every 8-, 4- or 2-byte group, a byte swap of the words in memory order,
    so bits 0 to 2 take at most three in-place swaps."""
    if table.size < 8:
        return table[np.arange(table.size) ^ g]
    words = table.view(np.uint64)
    words = words[np.arange(words.size) ^ (g >> 3)] if g >> 3 else words.copy()
    low = g & 7
    for mask, width in ((7, np.uint64), (3, np.uint32), (1, np.uint16)):
        if low & (mask + 1) >> 1:  # the top bit of the mask
            words.view(width).byteswap(inplace=True)
            low ^= mask
    return words.view(np.uint8)


def coset_leaders(basis, m):
    """Least weight of every coset of the shift code with basis ``basis`` in
    F_2^m, as uint8 in :func:`coset_reps` order: entry s is the coset whose
    representative has bit ``free[i]`` set where bit i of s is, ``free`` the
    ascending non-pivot bits.

    A word of coset s sets some pivot bits P and free bits f.  The row of
    pivot p is e_p plus its free part, whose index g_p is the coset of e_p,
    so f spells s xor (the XOR of g_p over P), and the weight is
    |P| + wt(f).  The table starts at wt(s), P empty, and each row p in turn
    sets D(s) <- min(D(s), D(s xor g_p) + 1): the least weights of the
    standard array (MacWilliams and Sloane 1977, ch. 1 sec. 3) over the
    syndromes, in r passes over the 2^(m - r) entries and no pass over
    codewords.
    """
    free = [t for t in range(m) if t not in basis]
    low = len(free) // 2  # wt(s) sums the weights of its two halves: no index per entry
    halves = (np.bitwise_count(np.arange(1 << b, dtype=np.uint32)) for b in (len(free) - low, low))
    least = np.add.outer(*halves).reshape(-1)
    for row in basis.values():
        g = sum((row >> t & 1) << i for i, t in enumerate(free))  # g_p, from row p's free part
        np.minimum(least, _xor_gather(least, g) + 1, out=least)
    return least

"""Evaluation of a sparse Walsh polynomial over its sign configurations.

Every routine that evaluates a chaos over configurations goes through
this module.  Coordinate b of the ascending support is -1 at a
configuration exactly when bit b of its word is set; a monomial is the
mask of its coordinates, and its value at a configuration is
(-1)^parity(word & mask), with parity taken by ``np.bitwise_count``.

Every exact law goes through :func:`law`, the one place that picks a route:

* Integer coefficients whose absolute sum S is at most 2^31 - 1 get an
  exact law from an int32 fast Walsh-Hadamard transform (FWHT).  Every
  partial sum of the transform is bounded by S, so it cannot overflow.  The
  transform is streamed over slices of the high configuration bits: in
  the slice with high bits h the low coefficient vector is the sparse sum
  of c * chi_high(h), its transform gives the slice's 2^L values, and the
  slice histograms merge by integer addition.  Memory is O(2^L) and the
  law depends neither on the slice width nor on the worker count.
* Other coefficients get one float64 transform of all 2^k configurations
  whose stage order (lowest bit first) and butterflies (a + b, a - b) are
  fixed, so equal inputs give bit-identical atoms.
* Monte Carlo draws the Philox stream ``rng.integers(0, 2, size=(m, k))``
  in counter blocks of ``MC_CHUNK`` rows, packs each row into uint64
  words and adds the terms by parity: exactly in int64 for integer
  coefficients, in float64 and in term order otherwise.
* Sign patterns over m terms share the convention: :func:`sign_matrix` of
  the masks 1 << t lists them in order, :func:`random_signs` draws them.
"""

from __future__ import annotations

import numpy as np

from .parallel import map_chunks

SLICE_BITS = 16  # low configuration bits transformed per slice
MC_CHUNK = 1 << 16  # Monte Carlo rows per counter block
_INT_MAX = 2**31 - 1  # largest sum |c| whose transform fits int32
_DENSE_RANGE = 1 << 17  # widest value range histogrammed by bincount
_TRANSPOSE_BITS = 10  # transforms of at least 2^10 entries run on a transposed copy
_BLOCK_BITS = 16  # longer transforms run their low stages block by block
_WORD = (1 << 64) - 1


def masks(keys, support):
    """Mask (a Python int) of each monomial key over the ascending support."""
    pos = {j: b for b, j in enumerate(support)}
    return [sum(1 << pos[j] for j in key) for key in keys]


def parity(words, mask):
    """1 where monomial ``mask`` is -1 at configuration ``words``, else 0 (uint8)."""
    return np.bitwise_count(words & mask) & 1


def sign_matrix(term_masks, start, stop):
    """float32 matrix of +-1 monomial values: one row per configuration in
    start..stop-1, one column per mask."""
    cfg = np.arange(start, stop, dtype=np.uint64)
    out = np.empty((cfg.size, len(term_masks)), dtype=np.float32)
    for i, mask in enumerate(term_masks):
        out[:, i] = parity(cfg, np.uint64(mask))
    out *= -2.0
    out += 1.0
    return out


def int_dtype(coeffs):
    """(np.int32, S) with S = sum |c| when int32 transforms ``coeffs`` exactly.

    (None, None) for non-integer coefficients, (None, S) when S > 2^31 - 1.
    """
    if not all(float(c).is_integer() for c in coeffs):
        return None, None
    bound = sum(abs(int(c)) for c in coeffs)
    return (np.int32 if bound <= _INT_MAX else None), bound


def fwht(a):
    """In-place Walsh-Hadamard transform: a[c] <- sum_S a[S] (-1)^popcount(c & S).

    Stages run from the lowest bit up, each mapping a pair (x, y) to
    (x + y, x - y).  Every butterfly sees the same inputs in any schedule
    that keeps this order per pair, so these schedules give bit-identical
    floats: arrays longer than 2^_BLOCK_BITS transform each block of that
    size in cache before the stages across blocks, and arrays of at least
    2^_TRANSPOSE_BITS entries run their low half of the bits on a
    transposed copy, so every stage works on contiguous runs.
    """
    n = a.size
    if n > 1 << _BLOCK_BITS:
        rows = n >> _BLOCK_BITS
        for row in a.reshape(rows, -1):
            fwht(row)
    elif n >= 1 << _TRANSPOSE_BITS:
        rows = n >> (n.bit_length() - 1) // 2
        grid = a.reshape(rows, -1)
        t = np.ascontiguousarray(grid.T)
        _stages(t, t.shape[0])
        grid[...] = t.T
    else:
        rows = n
    _stages(a, rows)
    return a


def _stages(a, rows):
    """Butterflies over the row bits of ``a`` viewed as (rows, a.size // rows)."""
    n = a.size
    buf = np.empty(n // 2, a.dtype)
    h = n // rows
    while h < n:
        pairs = a.reshape(-1, 2, h)
        x, y = pairs[:, 0], pairs[:, 1]
        diff = buf.reshape(-1, h)
        np.subtract(x, y, out=diff)
        x += y
        y[...] = diff
        h *= 2


def values(term_masks, coeffs, k):
    """float64 values of the polynomial at all 2^k configurations."""
    a = np.zeros(1 << k)
    a[np.array(term_masks, dtype=np.int64)] = coeffs
    return fwht(a)


def law(term_masks, coeffs, k):
    """Exact (values, counts) over the 2^k configurations: the sliced integer
    transform when ``int_dtype`` allows it, else ``np.unique`` of :func:`values`."""
    out = int_law(term_masks, coeffs, k)
    return np.unique(values(term_masks, coeffs, k), return_counts=True) if out is None else out


def int_law(term_masks, coeffs, k):
    """Exact (values, counts) over the 2^k configurations by a sliced integer FWHT.

    Returns None when ``int_dtype`` finds no exact integer dtype for the
    coefficients.  Supports of at most ``SLICE_BITS`` bits run inline as
    one slice; wider ones map their slices through ``map_chunks``.
    """
    dtype, bound = int_dtype(coeffs)
    if dtype is None:
        return None
    if k <= SLICE_BITS:
        v = np.zeros(1 << k, dtype)
        v[term_masks] = coeffs
        return _histogram(fwht(v), bound)
    low_idx = np.array([m & ((1 << SLICE_BITS) - 1) for m in term_masks], dtype=np.intp)
    high = np.array([m >> SLICE_BITS for m in term_masks], dtype=np.uint64)
    c = np.array(coeffs, dtype=np.int64)

    def run_slice(h):
        v = np.zeros(1 << SLICE_BITS, dtype)
        np.add.at(v, low_idx, np.where(parity(np.uint64(h), high), -c, c))
        return _histogram(fwht(v), bound)

    return _merge(map_chunks(run_slice, range(1 << (k - SLICE_BITS))))


def random_signs(seed, counter, rows, m):
    """float32 (rows, m) matrix of seeded +-1 signs: -1 where the Philox
    stream with key ``seed`` at ``counter`` draws 1 from ``integers(0, 2)``."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=counter))
    return 1.0 - 2.0 * rng.integers(0, 2, size=(rows, m)).astype(np.float32)


def sample_law(term_masks, coeffs, k, samples, seed):
    """Seeded Monte Carlo (values, counts) of ``samples`` configurations.

    Integer coefficients are grouped by value: each group counts its odd
    terms in a narrow unsigned array and adds c * (size - 2 * odd) in
    int64, which is exact.  Other coefficients add +c or -c per term in
    term order, the float64 arithmetic of the column products.
    """
    n_words = (k + 63) // 64
    split = [[np.uint64((m >> 64 * w) & _WORD) for w in range(n_words)] for m in term_masks]
    dtype, bound = int_dtype(coeffs)
    exact = dtype is not None
    if exact:
        groups = {}
        for mask, c in zip(split, coeffs):
            groups.setdefault(int(c), []).append(mask)
    else:
        # indexed by the xor-folded popcount: +c when even, -c when odd
        tables = [np.where(np.arange(128) & 1, -c, c) for c in coeffs]

    def run_chunk(start):
        m = min(MC_CHUNK, samples - start)
        rng = np.random.Generator(np.random.Philox(key=seed, counter=(start // MC_CHUNK) << 64))
        bits = rng.integers(0, 2, size=(m, k))
        packed = np.zeros((m, 8 * n_words), dtype=np.uint8)
        packed[:, : (k + 7) // 8] = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
        words = packed.view("<u8")
        if not exact:
            acc = np.zeros(m)
            for mask, table in zip(split, tables):
                acc += table.take(_popcount(words, mask))
            return np.unique(acc, return_counts=True)
        acc = np.zeros(m, dtype=np.int64)
        for c, group in groups.items():
            odd = np.zeros(m, dtype=np.min_scalar_type(len(group)))
            for mask in group:
                odd += _popcount(words, mask) & 1
            acc += c * len(group)
            acc -= np.multiply(odd, 2 * c, dtype=np.int64)
        return _histogram(acc, bound)

    return _merge(map_chunks(run_chunk, range(0, samples, MC_CHUNK)))


def _popcount(words, mask):
    """Popcounts of ``words & mask`` xor-folded over the words (parity in bit 0)."""
    counts = [np.bitwise_count(words[:, w] & mw) for w, mw in enumerate(mask) if mw]
    if not counts:
        return np.zeros(words.shape[0], dtype=np.uint8)
    for pc in counts[1:]:
        counts[0] ^= pc
    return counts[0]


def _histogram(vals, bound):
    """(values, counts) of an integer array with entries in [-bound, bound]."""
    if 2 * bound + 1 > _DENSE_RANGE:
        return np.unique(vals, return_counts=True)
    counts = np.bincount(np.add(vals, bound, dtype=np.intp), minlength=2 * bound + 1)
    nz = np.flatnonzero(counts)
    return nz - bound, counts[nz]


def _merge(parts):
    """Sum (values, counts) histograms into one over the sorted distinct values."""
    if len(parts) == 1:
        return parts[0]
    vals, inv = np.unique(np.concatenate([p[0] for p in parts]), return_inverse=True)
    counts = np.zeros(vals.size, dtype=np.int64)
    np.add.at(counts, inv, np.concatenate([p[1] for p in parts]))
    return vals, counts

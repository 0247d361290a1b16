"""Evaluation of a sparse Walsh polynomial over its sign configurations.

Every routine that evaluates a chaos over configurations goes through
this module.  Coordinate b of the ascending support is -1 at a
configuration exactly when bit b of its word is set; a monomial is the
mask of its coordinates, and its value at a configuration is
(-1)^parity(word & mask), with parity taken by ``np.bitwise_count``.

Every exact law goes through :func:`law`, the one place that picks a route
and that refuses a support wider than ``HARD_CAP_BITS`` (2^26
configurations), on either route:

* Integer coefficients whose absolute sum S is at most 2^31 - 1 get an
  exact law from a fast Walsh-Hadamard transform (FWHT) in the narrowest
  of int8, int16 and int32 that holds S.  Every partial sum of the
  transform is a signed subset sum of the coefficients, bounded by S, so
  it cannot overflow.  The transform is streamed over slices of the high
  configuration bits: in the slice with high bits h the low coefficient
  vector is the sparse sum of c * chi_high(h), its transform gives the
  slice's 2^L values, and the slice histograms merge by integer addition
  in slice order.  The law does not depend on the slice width.  Memory
  is O(2^L) only while 2S + 1 <= ``_DENSE_RANGE``: a wider value range
  can hold up to 2^k distinct atoms, so the hard cap guards memory on
  this route too.
* Other coefficients get one float64 transform of all 2^k configurations
  from :func:`values`, the one 2^k allocation, whose stage order (lowest
  bit first) and butterflies (a + b, a - b) are fixed, so equal inputs
  give bit-identical atoms.
* Monte Carlo reads the Philox stream ``rng.integers(0, 2, size=(m, k))``
  in counter blocks of ``MC_CHUNK`` rows straight from the raw words: each
  sign is bit 31 of one 32-bit half of a raw 64-bit word, low half first,
  which is the bit ``integers(0, 2)`` returns.  The signs are stored as
  contiguous columns, a term's parity is the XOR of its columns, and the
  terms add exactly in int64 for integer coefficients, in float64 and in
  term order otherwise.
* Sign patterns over m terms are bit words in the same convention, bit t
  set where the sign of term t is -1: :func:`random_bits` draws them, and
  :func:`random_words` packs term 64j + t into bit t of little-endian
  uint64 word j.  Shifting the configuration by c multiplies a pattern by
  the word chi(c) of the :func:`shift_code` H, so a sup or a law over
  configurations depends only on the pattern's coset.  The cosets have
  equal size, so :func:`coset_reps`, one word per coset, and
  :func:`coset_sup` sweep them in place of the 2^m patterns.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InvalidArgumentError, check_cap
from .parallel import map_chunks

HARD_CAP_BITS = 26  # widest support any exact route enumerates: 2^26 configurations
SLICE_BITS = 16  # low configuration bits transformed per slice
MC_CHUNK = 1 << 16  # Monte Carlo rows per counter block
SWEEP_CELL_BITS = 16  # log2 of the pattern x codeword cells per block of the coset sweep
_DENSE_RANGE = 1 << 17  # widest value range histogrammed by bincount
_TRANSPOSE_BITS = 10  # transforms of at least 2^10 entries run on a transposed copy
_BLOCK_BITS = 16  # longer transforms run their low stages block by block


def masks(keys, support):
    """Mask (a Python int) of each monomial key over the ascending support."""
    bit = {j: 1 << b for b, j in enumerate(support)}
    return [sum(map(bit.__getitem__, key)) for key in keys]  # a key's indices are distinct


def parity(words, mask):
    """1 where monomial ``mask`` is -1 at configuration ``words``, else 0 (uint8)."""
    return np.bitwise_count(words & mask) & 1


def int_dtype(coeffs):
    """(dtype, S) with S = sum |c| and dtype the narrowest of int8, int16 and
    int32 whose max is at least S, so that it transforms ``coeffs`` exactly.

    (None, None) for non-integer coefficients, (None, S) when S > 2^31 - 1.
    """
    if not all(float(c).is_integer() for c in coeffs):
        return None, None
    bound = sum(abs(int(c)) for c in coeffs)
    fits = (t for t in (np.int8, np.int16, np.int32) if bound <= np.iinfo(t).max)
    return next(fits, None), bound


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
    check_cap(k, HARD_CAP_BITS, "configuration bits of a float64 value array",
              "sample the law with distribution_mc")
    a = np.zeros(1 << k)
    a[np.array(term_masks, dtype=np.int64)] = coeffs
    return fwht(a)


def law(term_masks, coeffs, k):
    """Exact (values, counts) over the 2^k configurations.

    Coefficients that ``int_dtype`` transforms exactly run a sliced
    integer FWHT in its dtype: supports of at most ``SLICE_BITS`` bits as
    one slice, wider ones slice by slice in order, on the calling thread.
    Other coefficients take ``np.unique`` of :func:`values`.
    """
    dtype, bound = int_dtype(coeffs)
    if dtype is None:
        return np.unique(values(term_masks, coeffs, k), return_counts=True)
    check_cap(k, HARD_CAP_BITS, "configuration bits of an exact integer law",
              "sample the law with distribution_mc")
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

    return _merge([run_slice(h) for h in range(1 << (k - SLICE_BITS))])


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
    are read through little-endian views, whatever the byte order.
    """
    n = rows * k
    raw = np.random.Philox(key=philox_key(seed), counter=counter).random_raw((n + 1) // 2)
    top = (raw.astype("<u8", copy=False).view("<u4")[:n] >= np.uint32(1 << 31)).view(np.uint8)
    del raw  # free the raw words before the transposed copy
    return np.ascontiguousarray(top.reshape(rows, k).T)


def random_words(seed, counter, rows, k):
    """(rows, ceil(k / 64)) uint64 words of the :func:`random_bits` patterns:
    bit t of word j of row r is entry 64j + t of pattern r."""
    bits = np.zeros((rows, -(-k // 64) * 64), dtype=np.uint8)
    bits[:, :k] = random_bits(seed, counter, rows, k).T
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _xor_columns(bits, cols):
    """Parity (uint8) of the rows ``cols`` of ``bits``: 0 for no rows."""
    if not cols:
        return np.zeros(bits.shape[1], dtype=np.uint8)
    if len(cols) == 1:
        return bits[cols[0]]
    out = bits[cols[0]] ^ bits[cols[1]]
    for col in cols[2:]:
        out ^= bits[col]
    return out


def sample_law(term_masks, coeffs, k, samples, seed):
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
    term_cols = [[b for b in range(k) if mask >> b & 1] for mask in term_masks]
    dtype, bound = int_dtype(coeffs)
    exact = dtype is not None
    if exact:
        groups = {}
        for columns, c in zip(term_cols, coeffs):
            groups.setdefault(int(c), []).append(columns)

    def run_chunk(start):
        m = min(MC_CHUNK, samples - start)
        bits = random_bits(seed, (start // MC_CHUNK) << 64, m, k)
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


def shift_code(term_masks, s):
    """Reduced basis {pivot bit: word} of the shift code H = {chi(c)}.

    Bit t of chi(c) is set where monomial t (mask ``term_masks[t]`` over s
    support bits) is -1 at configuration c, so shifting the configuration
    by c multiplies sign pattern u by chi(c).  H is spanned by the s
    coordinate rows (bit t set where term t contains coordinate j).  Every
    basis word is zero on the other pivot bits, so the words zero on every
    pivot bit are one representative per coset of H.
    """
    basis = {}
    for j in range(s):
        w = sum(((mask >> j) & 1) << t for t, mask in enumerate(term_masks))
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


def span(gens):
    """The 2^g XOR combinations of the g rows of the uint64 array ``gens``
    in counter order: bit i of the index picks gens[i].  A row is one word
    or a row of words, as from :func:`random_words`."""
    out = np.zeros((1, *gens.shape[1:]), dtype=np.uint64)
    for g in gens:
        out = np.concatenate([out, out ^ g])
    return out


def coset_reps(basis, m):
    """One representative per coset of the shift code with basis ``basis``:
    the 2^(m - len(basis)) m-bit words zero on every pivot bit, as uint64
    words in counter order over the free bits.  Every coset holds
    2^len(basis) patterns, so a mean over the representatives is the mean
    over all 2^m patterns."""
    return span(np.array([1 << t for t in range(m) if t not in basis], dtype=np.uint64))


def coset_sup(patterns, basis, m):
    """sup of |m - 2 wt(u xor h)| over the codewords h of the shift code with
    basis ``basis``, as int64, for each row u of the (N, width) uint64 words
    ``patterns`` of m-bit sign patterns.  |m - 2w| is convex in w, so the
    sup is max(m - 2 least, 2 most - m) over the least and the greatest
    weight of the coset u H.  Patterns and codewords are streamed in blocks
    of 2^SWEEP_CELL_BITS pattern x codeword cells, and a block holds fewer
    than 2^(SWEEP_CELL_BITS + 1) codeword words."""
    width = patterns.shape[1]
    gens = b"".join(w.to_bytes(8 * width, "little") for w in basis.values())
    gens = np.frombuffer(gens, dtype="<u8").astype(np.uint64).reshape(-1, width)
    dtype = np.min_scalar_type(64 * width)
    code_bits = min(len(gens), max(0, SWEEP_CELL_BITS - (width - 1).bit_length()))
    low = span(gens[:code_bits]).T.copy()  # word-major: row j holds word j of each codeword
    offsets = span(gens[code_bits:])
    rows = 1 << (SWEEP_CELL_BITS - code_bits)
    words = np.ascontiguousarray(patterns.T)
    least = np.full(patterns.shape[0], 64 * width, dtype=dtype)
    most = np.zeros(patterns.shape[0], dtype=dtype)
    for start in range(0, patterns.shape[0], rows):
        block = words[:, start : start + rows, None]
        lo, hi = least[start : start + rows], most[start : start + rows]
        for off in offsets:
            code = low ^ off[:, None]
            w = np.bitwise_count(block[0] ^ code[0])
            for j in range(1, width):
                w = np.add(w, np.bitwise_count(block[j] ^ code[j]), dtype=dtype)
            np.minimum(lo, w.min(axis=1), out=lo)
            np.maximum(hi, w.max(axis=1), out=hi)
    return np.maximum(m - 2 * least.astype(np.int64), 2 * most.astype(np.int64) - m)

"""Deterministic chunked map-reduce for the Monte Carlo chunks of sampled
laws and the transform blocks of one wide exact law.

Work is split into fixed chunks whose boundaries never depend on the worker
count, and partial results are merged in chunk order, so results are
bitwise identical whether the sweep runs sequentially or on a thread pool.
The CHAOSLAB_THREADS environment variable caps the number of workers.
"""

from __future__ import annotations

import os


def worker_count() -> int:
    """Number of workers to use, capped by CHAOSLAB_THREADS."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("CHAOSLAB_THREADS", "")
    if raw.strip():
        try:
            cap = int(raw)
        except ValueError:
            return 1
        return max(1, min(cpus, cap))
    return max(1, min(4, cpus))


def map_chunks(fn, chunks):
    """Apply ``fn`` to every chunk, returning results in chunk order.

    ``chunks`` must be a sequence (its order defines the merge order).
    numpy releases the GIL on large array ops, such as the sign reads and
    parities of a Monte Carlo chunk of ``kernel.MC_CHUNK`` rows, or the
    butterflies and histograms of a block of 2^``kernel.LAW_BLOCK_BITS``
    entries.
    """
    chunks = list(chunks)
    workers = worker_count()
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    from concurrent.futures import ThreadPoolExecutor  # loads logging: only where a pool runs
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))

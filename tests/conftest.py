"""Fixtures shared by the test modules."""

import os
import threading

import pytest
from hypothesis import settings

from chaoslab import kernel
from chaoslab.parallel import worker_count

# a failing property prints the @reproduce_failure blob that replays it
settings.register_profile("chaoslab", print_blob=True)
settings.load_profile("chaoslab")


@pytest.fixture
def pool_calls(monkeypatch):
    """The later ``kernel.map_chunks`` calls, as they run: one (chunk count,
    set of thread ids that ran a chunk) pair per call.

    ``os.cpu_count`` reads 4, so ``CHAOSLAB_THREADS`` alone sizes the pool,
    even on a one-CPU host.  On two workers or more, the first two chunks
    of a call wait for each other, so they run on two threads or the call
    fails: a test that asserts two thread ids saw a second thread run a
    chunk, not a pool that happened to be idle."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    calls, mapped = [], kernel.map_chunks

    def meeting(fn, chunks):
        chunks = list(chunks)
        threads = set()
        calls.append((len(chunks), threads))
        meet = threading.Barrier(2 if worker_count() > 1 and len(chunks) > 1 else 1, timeout=60)

        def run(i):
            threads.add(threading.get_ident())
            if i < 2:
                meet.wait()
            return fn(chunks[i])

        return mapped(run, range(len(chunks)))

    monkeypatch.setattr(kernel, "map_chunks", meeting)
    return calls

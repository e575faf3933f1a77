"""Contiguous spans of independent work, run on up to ``WORKERS`` threads.

The ASTFT frames and the scatterer render blocks are independent, and
their numpy calls release the GIL, so they split over the CPUs. Each
call starts its worker threads and joins them before it returns: no
thread outlives the call. With one span, the work runs in the caller
and no thread starts.

The caller allocates every span's buffers and passes them in with the
span: a worker that allocated its own large buffers would grow a malloc
arena of its own. Work run on a worker calls numpy and helpers that
``perfbench/spans.py`` does not wrap: the tracer keeps one span stack
for all threads.
"""

from __future__ import annotations

import os
import threading

WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


def split(n: int) -> list[slice]:
    """``range(n)`` as at most ``WORKERS`` contiguous slices, in order,
    none empty unless ``n`` is 0."""
    count = max(1, min(WORKERS, n))
    edges = [n * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def run(work, spans) -> None:
    """``work(*args)`` for every ``args`` tuple of ``spans``.

    The first runs in the calling thread, each other on a thread of its
    own. Every thread is joined before an error propagates, and the
    error raised is that of the first span that failed.
    """
    errors = [None] * len(spans)

    def guarded(index, args):
        try:
            work(*args)
        except BaseException as exc:  # re-raised in the caller
            errors[index] = exc

    threads = [threading.Thread(target=guarded, args=(i, args))
               for i, args in enumerate(spans) if i]
    try:
        for thread in threads:
            thread.start()
        work(*spans[0])
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc

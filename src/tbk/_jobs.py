"""Jobs mapped in order over the CPUs the process may use.

Only native code that releases the interpreter lock gains from the worker
threads: numpy's text parsing, gathers and comparisons, and hashlib's
digests. The pool is made on first use, so that importing tbk starts no
thread and imports no ``concurrent.futures``.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterable

_pool = None
_pool_lock = threading.Lock()


def cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(cpus(), thread_name_prefix="tbk")
        return _pool


def run_in_order(fn: Callable[..., Any], jobs: Iterable[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, with the jobs spread over the CPUs.

    On one CPU that list comprehension is what runs. Otherwise each job but
    the last goes to a pool of one worker thread per CPU as soon as the
    iterable yields the next one, and the calling thread runs the last, so a
    single job makes no thread. Either way the exception raised is the
    first one in job order, and one of the iterable itself comes after
    those of the jobs it yielded. When this returns or raises, no job is
    left running: a failure cancels the jobs after it that have not
    started, and waits for the ones that have. The last job may call this
    again, as it runs on the calling thread; the others must not, as a
    worker that waits for the pool can leave it no thread to run on.
    """
    if cpus() < 2:
        return [fn(*job) for job in jobs]
    futures: list = []
    try:
        job = failed = None
        try:
            it = iter(jobs)
            job = next(it, None)
            for following in it:
                futures.append(_executor().submit(fn, *job))
                job = following
        except Exception as exc:  # comes after the jobs yielded before it
            failed = exc
        tail = []
        if job is not None:
            try:
                tail.append(fn(*job))
            except Exception as exc:  # comes before the iterable's
                failed = exc
        for f in futures:
            if f.exception() is not None:
                raise f.exception()
        if failed is not None:
            raise failed
        return [f.result() for f in futures] + tail
    finally:
        if futures:
            from concurrent.futures import wait
            for f in futures:
                f.cancel()
            wait(futures)

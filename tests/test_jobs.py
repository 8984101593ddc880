"""Jobs mapped in order over worker threads, against the plain loop."""

from __future__ import annotations

import threading
import time

import pytest

from tbk import _jobs


class Failed(Exception):
    pass


def job(k: int, delay: float = 0.0, fail: bool = False) -> int:
    time.sleep(delay)
    if fail:
        raise Failed(k)
    return k * k


def outcome(jobs) -> tuple:
    try:
        return "ok", _jobs.run_in_order(job, jobs)
    except Failed as exc:
        return "failed", exc.args


def failing_iterable(jobs):
    yield from jobs
    raise Failed("iterable")


CASES = {
    "none": [],
    "one": [(3,)],
    "several": [(k, 0.001 * (k % 3)) for k in range(9)],
    # the second job fails last of all, after the later jobs have failed
    "first in order": [(0,), (1, 0.05, True), (2,), (3, 0.0, True), (4,)],
    "the last job": [(0, 0.01), (1,), (2, 0.0, True)],
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
@pytest.mark.parametrize("iterable", [list, failing_iterable])
def test_pooled_jobs_end_as_the_loop_does(pooled, monkeypatch, case,
                                          iterable):
    pooled_outcome = outcome(iterable(case))
    monkeypatch.setattr(pooled, "cpus", lambda: 1)
    assert pooled_outcome == outcome(iterable(case))
    assert pooled_outcome[0] == "ok" or pooled_outcome[1] in (
        (1,), (2,), ("iterable",))


def test_one_job_or_one_cpu_starts_no_thread(pooled, monkeypatch):
    threads = threading.active_count()
    assert _jobs.run_in_order(job, [(2,)]) == [4]
    assert pooled._pool is None
    monkeypatch.setattr(pooled, "cpus", lambda: 1)
    assert _jobs.run_in_order(job, [(k,) for k in range(5)]) == [
        0, 1, 4, 9, 16]
    assert pooled._pool is None and threading.active_count() == threads

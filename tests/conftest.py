from __future__ import annotations

import pytest

from tbk import example as ex


@pytest.fixture(scope="session")
def bundle_p2():
    return ex.bogomolov_example(2)


@pytest.fixture(scope="session")
def bundle_p2_literal():
    return ex.bogomolov_example(2, convention="literal")


@pytest.fixture(scope="session")
def bundle_p3():
    return ex.bogomolov_example(3)


@pytest.fixture
def pooled(monkeypatch):
    """The worker pool forced on with two workers, whatever the CPUs; the
    fixture yields the module that holds the pool, and shuts it down after."""
    from tbk import _jobs

    monkeypatch.setattr(_jobs, "cpus", lambda: 2)
    monkeypatch.setattr(_jobs, "_pool", None)
    yield _jobs
    if _jobs._pool is not None:
        _jobs._pool.shutdown()

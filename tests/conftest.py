import concurrent.futures
import math
import sys

import numpy as np
import pytest

import lplab.montecarlo
from lplab.gaussian import _reduce_rows


def rel_err(value: float, reference: float) -> float:
    if reference == 0.0:
        return abs(value)
    return abs(value - reference) / abs(reference)


@pytest.fixture
def tol():
    return 1e-9


@pytest.fixture
def lp_norms():
    """Row-wise lp norms of a 2-d array, or of a vector as one row, through the reducer."""

    def norms(rows, p):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return _reduce_rows(rows, [(p, False, False)], math.inf)[0]

    return norms


class RecordingPool(concurrent.futures.ThreadPoolExecutor):
    """A thread pool that records its worker count and the tasks submitted to it."""

    sizes: list[int] = []
    tasks: list[int] = []

    def __init__(self, max_workers):
        self._recorded = len(RecordingPool.sizes)
        RecordingPool.sizes.append(max_workers)
        RecordingPool.tasks.append(0)
        super().__init__(max_workers=max_workers)

    def submit(self, fn, /, *args, **kwargs):
        RecordingPool.tasks[self._recorded] += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def pools(monkeypatch):
    """Record every worker pool: pools.sizes and pools.tasks, one entry per pool.

    Monte Carlo streams and section trials share one pool helper in
    lplab.montecarlo, so both are recorded.
    """
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "tasks", [])
    monkeypatch.setattr(lplab.montecarlo, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool


@pytest.fixture
def pool_sizes(pools):
    return pools.sizes


@pytest.fixture
def fine_switching():
    """Switch threads every 10 microseconds, so workers interleave at fine grain."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)

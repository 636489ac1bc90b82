"""Forked workers, one per available CPU, for work cut into parts.

A caller defines ``run_part(part)`` over data it already holds and asks
:func:`map_parts` for every part's result.  The workers inherit
``run_part`` and its data through fork, so only the results are pickled.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["available_cpus", "map_parts"]


def available_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``, or
    ``os.cpu_count()`` where that is missing); 1 where the ``fork`` start
    method is unavailable, which keeps every caller in this process."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_parts(run_part, workers: int) -> list:
    """``[run_part(0), ..., run_part(workers - 1)]``: in this process for one
    worker, else each part in its own forked worker.  The workers are
    joined before this returns, also when a part raises."""
    if workers == 1:
        return list(map(run_part, range(workers)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(run_part,)) as pool:
        return list(pool.map(_run_adopted, range(workers)))


_adopted = None  # in a forked worker: the part function of its caller


def _adopt(run_part):
    # runs first in each worker; run_part reaches it through fork, unpickled
    global _adopted
    _adopted = run_part


def _run_adopted(part):
    return _adopted(part)

"""Map independent, deterministically seeded work over the available cores.

Each item's result depends on the item alone, so running the items in
worker processes gives results bit-identical to the serial loop; they come
back in item order.  Workers are forked from the calling process, so they
see its modules as they are at the call, including any function replaced
at run time.  A fork copies only the calling thread, and a lock another
thread holds at that moment stays held in the child, so while the caller
runs other Python threads the items are mapped in-process instead.  Each
worker runs its BLAS on one thread, as the workers already fill the CPUs.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import scipy


def workers(n_items):
    """Processes :func:`_map` should run ``n_items`` items on: one per CPU
    this process may use, at most one per item, and 1 inside a worker
    process, while other Python threads run in this one, or where the OS
    reports no CPU affinity (there fork is missing or unsafe)."""
    if (multiprocessing.parent_process() is not None
            or threading.active_count() > 1
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items))


def _one_blas_thread():
    """Set the OpenBLAS copies that numpy's and scipy's wheels ship to one
    thread each, by their wheel-internal setters; a copy this process has
    not loaded, or a missing setter, is passed over.  Runs in workers only."""
    for pkg, setter in ((np, "scipy_openblas_set_num_threads64_"),
                        (scipy, "scipy_openblas_set_num_threads")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib), mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            fn = getattr(handle, setter, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)


def _map(fn, items, n=None):
    """``[fn(i) for i in items]``, run on ``n`` forked processes
    (``workers(len(items))`` if not given).

    With one worker it maps in this process and starts none.  An exception
    raised by ``fn`` is raised here, as the first failing item's.
    """
    items = list(items)
    n = workers(len(items)) if n is None else n
    if n == 1:
        return [fn(i) for i in items]
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
            n, mp_context=ctx, initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, items))

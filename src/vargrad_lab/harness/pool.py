"""An ordered map over a pool of worker processes forked from this one.

Forked workers inherit the caller's state as it is when the pool starts:
numpy's error state (under the CLI's np.errstate(over="raise") an overflow
in a worker still raises), the allocator settings and every loaded module,
so a worker starts without importing the package again. concurrent.futures
and multiprocessing are imported only when a pool starts.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerLostError(RuntimeError):
    """A worker process ended before it returned its result."""


# OpenBLAS's thread-count setter under the names its builds export: plain,
# 64-bit-integer, and the scipy-openblas builds that numpy wheels bundle
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread() -> None:
    """Run the loaded OpenBLAS on one thread in this process.

    A pool already has one worker per CPU. OpenBLAS defaults to one thread
    per CPU as well, and its idle threads spin, so on 2 CPUs two workers
    with two BLAS threads each took twice the wall time of two with one.
    The library is found through this process's memory map (Linux); without
    one, or with another BLAS, nothing changes.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded: the same handle
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                break


def fork_map(fn: Callable[[T], R], items: list[T], workers: int) -> list[R]:
    """[fn(item) for item in items], computed on min(workers, len(items))
    forked processes, each with one BLAS thread. With one worker this is
    builtin map in this process and starts nothing.

    On any error the pending items are cancelled and every worker is joined
    before the error propagates: a worker's exception arrives as itself,
    and a worker that died raises WorkerLostError.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return list(map(fn, items))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_one_blas_thread
    )
    try:
        return list(executor.map(fn, items))
    except BrokenProcessPool as exc:
        raise WorkerLostError(str(exc)) from exc
    finally:
        executor.shutdown(cancel_futures=True)

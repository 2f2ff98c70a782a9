"""An ordered map over a pool of worker processes forked from this one.

Forked workers inherit the caller's state as it is when the pool starts:
numpy's error state (under the CLI's np.errstate(over="raise") an overflow
in a worker still raises), the allocator settings, the BLAS thread count
that cli.main sets to one, and every loaded module, so a worker starts
without importing the package again. concurrent.futures and
multiprocessing are imported only when a pool starts.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerLostError(RuntimeError):
    """A worker process ended before it returned its result."""


def fork_map(fn: Callable[[T], R], items: list[T], workers: int) -> list[R]:
    """[fn(item) for item in items], computed on min(workers, len(items))
    forked processes. With one worker this is builtin map in this process
    and starts nothing.

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

    executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(executor.map(fn, items))
    except BrokenProcessPool as exc:
        raise WorkerLostError(str(exc)) from exc
    finally:
        executor.shutdown(cancel_futures=True)

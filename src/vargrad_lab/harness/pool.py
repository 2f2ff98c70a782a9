"""An ordered, lazy map over one pool of worker processes forked from this one.

train-logreg maps its logged steps and variance-sweep its replicate spans
through fork_map. Forked workers inherit the caller's state as it is when
the pool starts: numpy's error state (under the CLI's np.errstate(over="raise")
an overflow in a worker still raises), the allocator settings, the BLAS
thread count that cli.main sets to one, and every loaded module, so a worker
starts without importing the package again. concurrent.futures and
multiprocessing are imported only when a pool starts.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerLostError(RuntimeError):
    """A worker process ended before it returned its result."""


def fork_map(fn: Callable[[T], R], items: list[T], workers: int) -> Iterator[R]:
    """Yield fn(item) for each item, in item order, computed on
    min(workers, len(items)) forked processes that start at the first
    next(). With one worker this is builtin map in this process and starts
    nothing.

    On an error, or when the consumer closes the iterator early (close(),
    or contextlib.closing around a loop that raises), the pending items are
    cancelled and every worker is joined before the iterator ends: a
    worker's exception arrives as itself, and a worker that died raises
    WorkerLostError.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from executor.map(fn, items)
    except BrokenProcessPool as exc:
        raise WorkerLostError(str(exc)) from exc
    finally:
        executor.shutdown(cancel_futures=True)

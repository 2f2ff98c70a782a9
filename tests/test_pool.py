"""The forked worker pool behind train-logreg's logged steps and
variance-sweep's replicate spans."""

import contextlib
import multiprocessing
import os

import pytest

from vargrad_lab.harness import pool


def pid_and_square(x):
    return os.getpid(), x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("three")
    return x


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fork_map_keeps_order(workers):
    items = list(range(7))
    results = list(pool.fork_map(pid_and_square, items, workers))
    assert [square for _, square in results] == [x * x for x in items]
    pids = {pid for pid, _ in results}
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= workers
    assert multiprocessing.active_children() == []


def test_worker_exception_arrives_as_itself():
    with pytest.raises(ValueError, match="three"):
        list(pool.fork_map(fail_on_three, list(range(8)), 2))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_fork_map_is_lazy_and_yields_in_item_order(workers):
    results = pool.fork_map(pid_and_square, list(range(20)), workers)
    assert multiprocessing.active_children() == []  # nothing starts before next()
    for x in range(20):
        assert next(results)[1] == x * x
    with pytest.raises(StopIteration):
        next(results)
    assert multiprocessing.active_children() == []


def test_consumer_that_stops_early_leaves_no_children():
    results = pool.fork_map(pid_and_square, list(range(50)), 2)
    assert next(results)[1] == 0
    assert multiprocessing.active_children() != []
    results.close()
    assert multiprocessing.active_children() == []


def test_consumer_that_raises_leaves_no_children():
    with pytest.raises(KeyError):
        with contextlib.closing(pool.fork_map(pid_and_square, list(range(50)), 2)) as results:
            for _, square in results:
                if square == 4:
                    raise KeyError(square)
    assert multiprocessing.active_children() == []

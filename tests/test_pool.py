"""The forked worker pool behind train-logreg's logged steps."""

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
    results = pool.fork_map(pid_and_square, items, workers)
    assert [square for _, square in results] == [x * x for x in items]
    pids = {pid for pid, _ in results}
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids and len(pids) <= workers
    assert multiprocessing.active_children() == []


def test_worker_exception_arrives_as_itself():
    with pytest.raises(ValueError, match="three"):
        pool.fork_map(fail_on_three, list(range(8)), 2)
    assert multiprocessing.active_children() == []


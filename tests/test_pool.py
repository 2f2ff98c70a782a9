"""The forked worker pool behind train-logreg's logged steps."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vargrad_lab.harness import pool

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_one_blas_thread_limits_a_loaded_openblas():
    # in a fresh interpreter: every OpenBLAS in the memory map reports one
    # thread after the call; with no OpenBLAS loaded the call is a no-op
    script = (
        "import ctypes\n"
        "import os\n"
        "import numpy\n"
        "from vargrad_lab.harness import pool\n"
        "pool._one_blas_thread()\n"
        "maps = open('/proc/self/maps').readlines() if os.path.exists('/proc/self/maps') else []\n"
        "paths = {l.split(None, 5)[5].strip() for l in maps if 'openblas' in l}\n"
        "names = [n.replace('set_num', 'get_num') for n in pool._OPENBLAS_SET_THREADS]\n"
        "for path in paths:\n"
        "    lib = ctypes.CDLL(path)\n"
        "    print([getattr(lib, n)() for n in names if hasattr(lib, n)][0])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"1"}

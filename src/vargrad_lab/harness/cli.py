"""Command-line interface.

    vargrad-lab <subcommand> --config <path> [--seed N] [--out <path>]

Subcommands are the experiment names; the config file must declare the same
experiment, so a file never silently drives the wrong runner. Exit codes:
0 success, 2 configuration error (an output path that cannot be written
too), 3 numerical abort or library error during a run (for example an array
shape numpy refuses or cannot allocate, a worker process that died, or a
pool that cannot start).

Every run sets BLAS to one thread, so the CSV bytes do not depend on the
machine's CPU count. Run as a program, train-logreg evaluates its logged
steps, and variance-sweep its replicate spans, on one forked worker per
usable CPU; main() called in-process runs them serially unless given a
worker count.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

import numpy as np

from ..optim import NonFiniteGradientError
from .config import EXPERIMENTS, ConfigError, parse_config
from .experiments import RUNNERS
from .pool import WorkerLostError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vargrad-lab",
        description="Gradient-estimator experiments with CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a 'key = value' config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output path")
    return parser


# glibc mallopt parameters (malloc.h) and the values set for them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20  # the largest glibc accepts on 64-bit
_TRIM_THRESHOLD_BYTES = 256 << 20


def _set_allocator_policy() -> None:
    """Keep freed multi-MB numpy buffers in the heap for reuse.

    By default glibc raises its mmap threshold to the largest block freed so
    far and trims the heap top whenever twice that much is free, so a run
    that frees and reallocates 8 MB arrays gives 16 MB back to the kernel
    and faults it in again on every cycle. Fixed thresholds switch that
    adjustment off: blocks under 32 MiB come from the heap, and the heap is
    trimmed only past 256 MiB of free top. Other C libraries are left alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a refused value (return 0) leaves glibc's default policy, which only
    # costs speed, so the return values are not checked
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


# OpenBLAS's thread-count setter under the names its builds export: plain,
# 64-bit-integer, and the scipy-openblas builds that numpy wheels bundle
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread() -> None:
    """Run the loaded OpenBLAS on one thread in this process and in the
    workers it forks.

    A threaded BLAS splits the sum of a matrix product between its threads,
    so the last bits of a product depend on the thread count: delta-ratio at
    dims 30 and 20000 draws wrote different bytes under 1 and 2 threads.
    Its idle threads also spin, which doubled the CPU time of a serial
    train-logreg run on 2 CPUs without making it faster. The library is
    found through this process's memory map (Linux); without one, or with
    another BLAS, nothing changes.
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


def main(argv=None, workers: int = 1) -> int:
    """Run one subcommand and return its exit code. train-logreg and
    variance-sweep run their tasks on up to workers forked processes; at 1
    they run them in this process."""
    args = build_parser().parse_args(argv)
    _set_allocator_policy()
    _one_blas_thread()
    try:
        cfg = parse_config(args.config)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config declares experiment '{cfg.experiment}' "
                f"but the subcommand is '{args.command}'"
            )
        cfg = cfg.with_overrides(seed=args.seed, out=args.out)
        if cfg.out is None:
            raise ConfigError("no output path: set 'out' in the config or pass --out")
        if "\0" in cfg.out:  # open() refuses it, but only after the run
            raise ConfigError("the output path contains a NUL character")
        # an overflow aborts instead of writing inf; pool workers are forked
        # inside this block, so they inherit it
        with np.errstate(over="raise"):
            out = RUNNERS[cfg.experiment](cfg, workers=workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteGradientError, ArithmeticError) as exc:  # overflow, fp errors
        # Python's float overflow message is only an errno pair
        reason = f"float overflow: {exc}" if isinstance(exc, OverflowError) else exc
        print(f"numerical abort: {reason}", file=sys.stderr)
        return 3
    # ConfigError, a ValueError, is caught above; an OSError here is not the
    # CSV write (that one is a ConfigError) but, say, a pool that cannot start
    except (ValueError, MemoryError, OSError, WorkerLostError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, so `taskset`
    limits it, or the CPU count where the OS has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def entry_point() -> None:
    sys.exit(main(workers=_usable_cpus()))


if __name__ == "__main__":
    entry_point()

#!/usr/bin/env python3
"""Benchmark of the vargrad-lab CLI on one workload.

    python3 perfbench/run.py --workload {sweep,logreg,cvcmp} --seed N --seconds T --trace {0,1}

Closed loop, one client: the CLI runs as one child process at a time, each
started after the previous one exits, with the config generated from the
seed as its only input. Each child's CSV must pass the workload's checks
and match the first child's bytes. With --trace 0 it reports the end-to-end
metrics (medians over the run's children); with --trace 1 it runs
tracer.py, which imports the package in-process and wraps each layer from
outside, and reports the per-layer metrics. Every stdout line names a
metric or a fact about the run; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import COUNTS, span_names
from workloads import WORKLOADS, CheckFailed, Workload, read_rows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# One BLAS thread: on the 2-core reference machine two threads burn twice
# the CPU on logreg for no gain in wall time, and one keeps the other core
# free so the timing loop does not compete with the child.
BLAS_THREADS = 1
THREAD_ENV = {v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

MIN_CLI_RUNS = 2
# Set-up runs timed before each CLI run. A run holds only two to four CLI
# runs, and the median of that few set-up samples moved by 30% between two
# sets of the same seeds; a fixed batch per CLI run spreads the samples
# evenly over the run and gives every run the same sampling.
SETUPS_PER_CLI_RUN = 4
MIN_TRACED_RUNS = 1
HARD_LIMIT_S = 170.0  # children still running past this are killed

SETUP_CODE = (
    "import sys\n"
    "from vargrad_lab.harness import cli\n"
    "from vargrad_lab.harness.config import parse_config\n"
    "parse_config(sys.argv[1])\n"
)


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts children one at a time inside a scratch directory of the checkout."""

    def __init__(self, work: Path, hard_deadline: float):
        self.work = work
        self.hard_deadline = hard_deadline
        self.env = {**os.environ, **THREAD_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.started = 0

    def run(self, argv: list[str]) -> Child:
        self.started += 1
        out_path = self.work / f"child-{self.started}.out"
        err_path = self.work / f"child-{self.started}.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.hard_deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,  # includes the child's own waited-for children
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


class OutputCheck:
    """Checks CSVs of one workload and seed: the workload's gates, and the
    same bytes as the first CSV checked."""

    def __init__(self, workload: Workload, options: dict):
        self.workload = workload
        self.options = options
        self.first: str | None = None
        self.first_error: str | None = None

    def __call__(self, path: Path) -> str:
        """Return the sha256 of path; raise CheckFailed if it fails."""
        if not path.is_file():
            raise CheckFailed(f"no CSV written at {path.name}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.first is None:
            self.first = digest
            try:
                self.workload.check(read_rows(path), self.options)
            except CheckFailed as exc:
                self.first_error = str(exc)
        elif digest != self.first:
            raise CheckFailed(f"CSV bytes differ from the first run of this seed ({digest} != {self.first})")
        if self.first_error is not None:  # same bytes, same verdict
            raise CheckFailed(self.first_error)
        return digest


def _read_first(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def manifest(args, draws: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "draws_per_run": draws,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def loop(seconds: float, minimum: int, step) -> None:
    """Call step() until at least minimum calls are done and another would
    end past seconds, judged by the median duration so far."""
    t0 = time.perf_counter()
    durations = []
    while True:
        s0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - s0)
        elapsed = time.perf_counter() - t0
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return


def fail(message: str) -> None:
    print(f"FAILED: {message}", file=sys.stderr)


def end_to_end(args, workload, runner: Runner, cfg: Path, draws: int, check: OutputCheck):
    python = sys.executable
    setup_argv = [python, "-c", SETUP_CODE, str(cfg)]
    warm = runner.run(setup_argv)  # fills __pycache__; not timed
    if warm.rc != 0:
        fail(f"set-up child exited {warm.rc}: {warm.stderr.strip()[-2000:]}")
        return None, 0, 0

    setups: list[float] = []
    good: list[Child] = []
    attempted = failed = 0

    def timed_setup() -> bool:
        setup = runner.run(setup_argv)
        if setup.rc != 0:
            fail(f"set-up child exited {setup.rc}: {setup.stderr.strip()[-2000:]}")
            return False
        setups.append(setup.wall_s)
        return True

    def one_cli_run():
        nonlocal attempted, failed
        attempted += 1
        if not all(timed_setup() for _ in range(SETUPS_PER_CLI_RUN)):
            failed += 1
            return
        out = runner.work / f"out-{attempted}.csv"
        child = runner.run(
            [python, "-m", "vargrad_lab.harness.cli", workload.subcommand, "--config", str(cfg), "--out", str(out)]
        )
        if child.rc != 0:
            failed += 1
            fail(f"CLI exited {child.rc}: {child.stderr.strip()[-2000:]}")
            return
        good.append(child)  # it ran to completion, so its timing stands even if a check fails
        try:
            digest = check(out)
        except CheckFailed as exc:
            failed += 1
            fail(str(exc))
            digest = "(check failed)"
        print(
            f"run {attempted}: wall {child.wall_s:.4f} s, cpu {child.cpu_s:.4f} s, "
            f"peak rss {child.peak_rss_mb:.1f} MB, csv sha256 {digest}"
        )

    loop(args.seconds, MIN_CLI_RUNS, one_cli_run)
    if not good:
        return None, attempted, failed
    wall = statistics.median(c.wall_s for c in good)
    setup = statistics.median(setups)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "draws_per_s": (draws / (wall - setup), "1/s"),
        "cpu_s": (statistics.median(c.cpu_s for c in good), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in good), "MB"),
    }
    print(f"samples: {len(good)} CLI runs, {len(setups)} set-up runs")
    return metrics, attempted, failed


def per_layer(args, workload, runner: Runner, cfg: Path, draws: int, check: OutputCheck):
    traces: list[dict] = []
    attempted = failed = 0

    def one_traced_run():
        nonlocal attempted, failed
        attempted += 1
        plain, traced = runner.work / f"plain-{attempted}.csv", runner.work / f"traced-{attempted}.csv"
        child = runner.run(
            [sys.executable, str(TRACER), workload.subcommand, "--config", str(cfg),
             "--untraced-out", str(plain), "--traced-out", str(traced)]
        )
        if child.rc != 0:
            failed += 1
            fail(f"tracer exited {child.rc}: {child.stderr.strip()[-2000:]}")
            return
        result = json.loads(child.stdout.strip().splitlines()[-1])
        traces.append(result)
        try:
            digest = check(plain)
            if traced.read_bytes() != plain.read_bytes():
                raise CheckFailed("traced CSV differs from the untraced one")
            rows = result["counts"].get("families.draw.rows", 0)
            if rows != draws:
                raise CheckFailed(f"traced families.draw.rows {rows} != config-derived draw count {draws}")
            if result["counts"] != traces[0]["counts"]:
                raise CheckFailed("work counters differ between traced runs of one seed")
        except CheckFailed as exc:
            failed += 1
            fail(str(exc))
            digest = "(check failed)"
        print(
            f"traced run {attempted}: runner {result['traced_s']:.4f} s traced, "
            f"{result['untraced_s']:.4f} s untraced, csv sha256 {digest}"
        )

    loop(args.seconds, MIN_TRACED_RUNS, one_traced_run)
    if not traces:
        return None, attempted, failed

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    layers = span_names()
    for name in layers:
        per_run = [t["stats"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0}) for t in traces]
        metrics[f"{name}.calls"] = (per_run[0]["calls"], "count")
        metrics[f"{name}.s"] = (med(st["s"] for st in per_run), "s")
        metrics[f"{name}.self_s"] = (med(st["self_s"] for st in per_run), "s")
    for name, unit in COUNTS.items():
        metrics[name] = (traces[0]["counts"].get(name, 0), unit)
    metrics["import_s"] = (med(t["import_s"] for t in traces), "s")
    metrics["runner_s"] = (med(t["traced_s"] for t in traces), "s")
    metrics["trace_overhead_frac"] = (
        med((t["traced_s"] - t["untraced_s"]) / t["untraced_s"] for t in traces),
        "frac",
    )
    runner_s = metrics["runner_s"][0]
    print(f"samples: {len(traces)} traced runs")
    for name in layers:
        share = metrics[f"{name}.self_s"][0] / runner_s
        print(f"self-time share {name}: {share:.1%}")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="Benchmark the vargrad-lab CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "vargrad_lab" / "harness" / "cli.py").is_file():
        print(f"error: no vargrad_lab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    os.environ.update(THREAD_ENV)  # before numpy loads, here or in a child
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    options = workload.resolved()
    draws = workload.draws(options)
    print("manifest " + json.dumps(manifest(args, draws)))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cfg = workload.write_config(work / "workload.cfg", args.seed)
        runner = Runner(work, started + HARD_LIMIT_S)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, workload, runner, cfg, draws, OutputCheck(workload, options))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        fail("no run succeeded; nothing to report")
        return 1
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(f"ops_failed_frac = {failed / attempted} ({failed} of {attempted} runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

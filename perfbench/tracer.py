"""Per-layer trace of one CLI invocation, measured from outside the package.

Run as a child process:

    python3 perfbench/tracer.py <subcommand> --config C --untraced-out A --traced-out B

It imports vargrad_lab, runs the CLI in-process once untraced (writing A)
and once with the public functions of each layer wrapped (writing B), and
prints one JSON object: import time, both runner times, and per-layer
calls, inclusive time, self time and work counters. Every module-level
binding of a traced function is replaced, not only the defining one,
because analysis, estimators and losses import log_joint by name and
experiments imports write_csv by name.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# (module under vargrad_lab, function); the span name is "<module>.<function>".
TRACED = (
    ("families", "draw"),
    ("families", "log_density"),
    ("families", "score"),
    ("targets", "log_joint"),
    ("losses", "evidence_and_elbo"),
    ("analysis", "delta_cv_mc"),
    ("analysis", "replicate_estimates"),
    ("analysis", "report_from_estimates"),
    ("analysis", "paired_difference_from_estimates"),
    ("estimators", "build_batch"),
    ("estimators", "vargrad"),
    ("estimators", "sampled_cv_coefficient"),
    ("optim", "sgd_step"),
    ("harness.rng", "split_stream"),
    ("harness.csvio", "write_csv"),
    ("harness.config", "parse_config"),
)

# log_joint spans carry the target class, so each target is timed on its own.
TARGET_LABELS = {"GaussianTarget": "gaussian", "LogRegModel": "logreg", "DiscreteToyModel": "discrete"}

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Spans kept in memory in start order, plus named work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, self.clock(), float("nan"), parent)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, inclusive time s and self time self_s per span name.

    A span's self time is its duration minus the part of its interval that
    its direct children cover. Spans are in start order, so each parent's
    children arrive sorted and their union is a single merging pass.
    """
    covered = [0.0] * len(spans)
    run_end = [float("-inf")] * len(spans)  # end of the latest child interval merged so far
    for sp in spans:
        if sp.parent is None:
            continue
        parent = spans[sp.parent]
        lo, hi = max(sp.start, parent.start, run_end[sp.parent]), min(sp.end, parent.end)
        if hi > lo:
            covered[sp.parent] += hi - lo
        run_end[sp.parent] = max(run_end[sp.parent], sp.end)
    stats: dict[str, dict[str, float]] = {}
    for sp, cov in zip(spans, covered):
        st = stats.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["s"] += sp.end - sp.start
        st["self_s"] += sp.end - sp.start - cov
    return stats


def _count_draw(tracer: Tracer, sp: Span, bound, result) -> None:
    rows = int(result.shape[0])
    tracer.counts["families.draw.rows"] += rows
    if sp.parent is not None:
        tracer.spans[sp.parent].counts["draw_rows"] += rows
        tracer.spans[sp.parent].counts["draw_calls"] += 1


def _count_replicate(tracer: Tracer, sp: Span, bound, result) -> None:
    from vargrad_lab.analysis import CV_SAMPLED_TAG

    # Each chunk draws one shared block plus one block per cv_sampled spec.
    params = bound.arguments["params"]
    extra = sum(1 for spec in bound.arguments["specs"] if spec.tag == CV_SAMPLED_TAG)
    tracer.counts["analysis.replicate_estimates.chunks"] += sp.counts["draw_calls"] // (1 + extra)
    per_draw = (params.dim + 1 + params.num_params) * 8  # z, f and scores in float64
    tracer.counts["analysis.replicate_estimates.bytes_computed"] += sp.counts["draw_rows"] * per_draw


def _count_csv(tracer: Tracer, sp: Span, bound, result) -> None:
    tracer.counts["harness.csvio.write_csv.rows"] += len(bound.arguments["rows"])
    tracer.counts["harness.csvio.write_csv.bytes"] += os.path.getsize(bound.arguments["path"])


COUNTERS = {
    "families.draw": _count_draw,
    "analysis.replicate_estimates": _count_replicate,
    "harness.csvio.write_csv": _count_csv,
}

# Work counters the COUNTERS fill in, with their units.
COUNTS = {
    "families.draw.rows": "count",
    "analysis.replicate_estimates.chunks": "count",
    "analysis.replicate_estimates.bytes_computed": "B",
    "harness.csvio.write_csv.rows": "count",
    "harness.csvio.write_csv.bytes": "B",
}


def span_names() -> list[str]:
    """Every span name a traced run can report, log_joint once per target
    the workloads use."""
    names = []
    for module_name, fn_name in TRACED:
        name = f"{module_name}.{fn_name}"
        if name == "targets.log_joint":
            names += [f"{name}.logreg", f"{name}.gaussian"]
        else:
            names.append(name)
    return names


def _wrap(tracer: Tracer, fn: Callable, name: str) -> Callable:
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = name
        if name == "targets.log_joint":
            target = args[0] if args else kwargs["target"]
            label = f"{name}.{TARGET_LABELS.get(type(target).__name__, type(target).__name__)}"
        with tracer.span(label) as sp:
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, sp, signature.bind(*args, **kwargs), result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """Wrap every binding of each TRACED function in every loaded
    vargrad_lab module; returns what to restore."""
    modules = [m for n, m in list(sys.modules.items()) if n == "vargrad_lab" or n.startswith("vargrad_lab.")]
    undo = []
    for module_name, fn_name in TRACED:
        fn = getattr(importlib.import_module(f"vargrad_lab.{module_name}"), fn_name)
        wrapper = _wrap(tracer, fn, f"{module_name}.{fn_name}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, fn))
    return undo


def uninstall(undo: list[tuple[object, str, Callable]]) -> None:
    for module, attr, fn in undo:
        setattr(module, attr, fn)


def traced_run(argv: list[str], run: Callable[[list[str]], int]) -> tuple[int, Tracer]:
    """Run run(argv) under a fresh tracer, inside a root span."""
    tracer = Tracer()
    undo = install(tracer)
    try:
        with tracer.span(ROOT_SPAN):
            rc = run(argv)
    finally:
        uninstall(undo)
    return rc, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("subcommand")
    parser.add_argument("--config", required=True)
    parser.add_argument("--untraced-out", required=True)
    parser.add_argument("--traced-out", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from vargrad_lab.harness import cli

    import_s = time.perf_counter() - t0
    base = [args.subcommand, "--config", args.config, "--out"]
    with contextlib.redirect_stdout(sys.stderr):  # the CLI prints its output path
        t0 = time.perf_counter()
        rc_untraced = cli.main(base + [args.untraced_out])
        untraced_s = time.perf_counter() - t0
        rc_traced, tracer = traced_run(base + [args.traced_out], cli.main)
    stats = layer_stats(tracer.spans)
    print(
        json.dumps(
            {
                "rc_untraced": rc_untraced,
                "rc_traced": rc_traced,
                "import_s": import_s,
                "untraced_s": untraced_s,
                "traced_s": stats[ROOT_SPAN]["s"],
                "stats": stats,
                "counts": dict(tracer.counts),
            }
        )
    )
    return 0 if rc_untraced == rc_traced == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

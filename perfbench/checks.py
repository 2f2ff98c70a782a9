"""The benchmark's own tests; kept out of the repository's test suite.

    python3 -m pytest -q perfbench/checks.py

They run each workload at a reduced size through the same tracer the
benchmark uses, so they take a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Span, Tracer, layer_stats, traced_run  # noqa: E402
from workloads import WORKLOADS, CheckFailed, read_rows  # noqa: E402

REDUCED = {
    "sweep": {"sweep.replicates": 400},
    "logreg": {
        "logreg.dims": 3,
        "logreg.n_data": 20,
        "logreg.steps": 20,
        "diagnostics.n_delta": 200,
        "diagnostics.n_is": 400,
        "diagnostics.n_elbo": 200,
        "diagnostics.variance_replicates": 50,
        "diagnostics.cv_oracle_samples": 100,
    },
    "cvcmp": {"cv.dims": [2], "cv.s_grid": [2, 4], "cv.replicates": 60},
}


def test_self_time_subtracts_only_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):  # [0, 10]
        with tracer.span("a"):  # [1, 4]
            with tracer.span("leaf"):  # [2, 3]
                pass
        with tracer.span("leaf"):  # [5, 9]
            pass
    stats = layer_stats(tracer.spans)
    assert stats["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert stats["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert stats["leaf"] == {"calls": 2, "s": 5.0, "self_s": 5.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 1.0, 6.0, 0),
        Span("y", 4.0, 8.0, 0),  # overlaps x by 2
        Span("z", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert layer_stats(spans)["root"]["self_s"] == pytest.approx(10.0 - 7.0 - 1.0)


def _run_traced(name: str, tmp_path: Path):
    from vargrad_lab.harness import cli

    workload = WORKLOADS[name]
    cfg = workload.write_config(tmp_path / "w.cfg", 7, REDUCED[name])
    base = [workload.subcommand, "--config", str(cfg), "--out"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(base + [str(tmp_path / "plain.csv")]) == 0
        rc, tracer = traced_run(base + [str(tmp_path / "traced.csv")], cli.main)
    assert rc == 0
    return workload, tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_draw_rows_equal_config_draw_count(name, tmp_path):
    workload, tracer = _run_traced(name, tmp_path)
    assert tracer.counts["families.draw.rows"] == workload.draws(workload.resolved(REDUCED[name]))
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    stats = layer_stats(tracer.spans)
    # experiments imports write_csv by name; analysis imports log_joint by name
    assert stats["harness.csvio.write_csv"]["calls"] == 1
    assert tracer.counts["harness.csvio.write_csv.rows"] == len(read_rows(tmp_path / "plain.csv"))
    log_joint_calls = sum(v["calls"] for k, v in stats.items() if k.startswith("targets.log_joint."))
    assert log_joint_calls == stats["families.log_density"]["calls"]


def test_wrapping_is_undone():
    import vargrad_lab.analysis as analysis
    import vargrad_lab.targets as targets

    before = (analysis.log_joint, targets.log_joint, analysis.replicate_estimates)
    traced_run([], lambda argv: 0)
    assert (analysis.log_joint, targets.log_joint, analysis.replicate_estimates) == before


def test_sweep_gates_reject_a_gap_off_the_closed_form(tmp_path):
    workload, _ = _run_traced("sweep", tmp_path)
    options = workload.resolved(REDUCED["sweep"])
    rows = read_rows(tmp_path / "plain.csv")
    workload.check(rows, options)
    rows[0]["diff"] = rows[0]["analytic"] + 5.0 * rows[0]["diff_se"]
    with pytest.raises(CheckFailed):
        workload.check(rows, options)

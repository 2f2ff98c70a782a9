"""The benchmark's workloads: the config each one hands the CLI, the number
of latent draws that config implies, and the checks its CSV must pass.

Every option that enters the draw count or a check is written into the
config explicitly, so a later change to a CLI default does not silently
change what a workload measures.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# The default 12-point variance-sweep grid, rows [mu, mu_tilde, sigma2,
# sigma2_tilde, S]: both signs of the variance gap, the S = 9 zero crossing
# and the (1, 0.5, 1000) point where Reinforce wins.
SWEEP_GRID = [
    [1.0, 2.0, 1.0, 1.0, 9],
    [1.0, 2.0, 1.0, 1.0, 2],
    [1.0, 2.0, 1.0, 1.0, 100],
    [3.0, 1.0, 3.0, 1.0, 4],
    [0.0, 0.0, 2.0, 1.0, 4],
    [0.0, 0.0, 1.0, 2.0, 10],
    [1.0, 0.0, 0.5, 1.0, 1000],
    [1.0, 0.0, 0.5, 1.0, 10],
    [2.0, 1.0, 1.0, 1.0, 4],
    [2.0, 1.0, 1.0, 1.0, 20],
    [3.0, 1.0, 3.0, 1.0, 2],
    [0.5, 0.0, 1.0, 1.5, 50],
]

# cvcmp accepts an estimator mean when it lies within this many SEs of the
# closed-form KL gradient. A run checks 990 (estimator, S, coordinate) cells
# whose estimates are heavy-tailed; over seeds 1-20 the largest |z| was 4.05.
CV_MEAN_Z = 5.0


class CheckFailed(Exception):
    """The CLI's output broke one of the workload's gates."""


def read_rows(path) -> list[dict[str, Any]]:
    """Data rows of a CLI CSV (metadata lines skipped), cells as float or str."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        rows = []
        for record in reader:
            row = {}
            for key, cell in record.items():
                try:
                    row[key] = float(cell)
                except ValueError:
                    row[key] = cell
            rows.append(row)
    return rows


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sweep_draws(o: dict) -> int:
    return o["sweep.replicates"] * sum(row[4] for row in o["sweep.grid_points"])


def check_sweep(rows: list[dict], o: dict) -> None:
    """The test_c03 gates."""
    _require(len(rows) == len(o["sweep.grid_points"]), f"sweep: {len(rows)} rows")
    for r in rows:
        _require(
            abs(r["diff"] - r["analytic"]) <= 4.0 * r["diff_se"],
            f"sweep: gap off the closed form by more than 4 SE in {r}",
        )
    zero = [r for r in rows if r["S"] == 9]
    _require(all(r["analytic"] == 0.0 for r in zero), "sweep: S = 9 row is not the zero crossing")
    inside = [r for r in rows if (r["mu"], r["sigma2"], r["S"]) == (1.0, 0.5, 1000)]
    _require(
        all(r["analytic"] < 0.0 and r["diff"] < 0.0 for r in inside),
        "sweep: the (1, 0.5, 1000) row does not favour Reinforce",
    )


def logreg_log_steps(o: dict) -> int:
    return 1 + o["logreg.steps"] // o["logging.every"]


def logreg_draws(o: dict) -> int:
    per_log_step = (
        o["diagnostics.n_is"]
        + o["diagnostics.n_elbo"]
        + o["diagnostics.n_delta"]
        + o["diagnostics.cv_oracle_samples"]
        + o["diagnostics.variance_replicates"]
        * (o["diagnostics.variance_s"] + o["diagnostics.cv_extra_samples"])
    )
    return logreg_log_steps(o) * per_log_step + o["logreg.steps"] * o["logreg.train_s"]


def check_logreg(rows: list[dict], o: dict) -> None:
    """The test_c09 gates."""
    expected = logreg_log_steps(o) * 2 * (o["logreg.dims"] + 1)
    _require(len(rows) == expected, f"logreg: {len(rows)} rows, expected {expected}")
    for r in rows:
        _require(r["delta_valid"] == 1, f"logreg: invalid delta in {r}")
        _require(r["delta_abs_ratio"] < 0.5, f"logreg: |delta ratio| >= 0.5 in {r}")
        _require(
            r["diff_reinforce_vargrad"] >= -4.0 * r["diff_se_reinforce_vargrad"],
            f"logreg: leave-one-out variance above Reinforce by more than 4 SE in {r}",
        )
        if r["step"] > 100:
            # test_c09 compares the two variance estimates raw at its one
            # seed; at other seeds a single heavy-tailed estimate can cross
            # the line by far less than its SE, so allow 4 SE of the difference.
            slack = 4.0 * math.hypot(r["var_vargrad_se"], 2.0 * r["var_cv_oracle_se"])
            _require(
                r["var_vargrad"] <= 2.0 * r["var_cv_oracle"] + slack,
                f"logreg: leave-one-out variance above twice the oracle CV by more than 4 SE in {r}",
            )


def cv_draws(o: dict) -> int:
    blocks = 1 + o["cv.estimators"].count("cv_sampled")  # cv_sampled draws s_extra = S more
    return len(o["cv.dims"]) * o["cv.replicates"] * sum(o["cv.s_grid"]) * blocks


def cv_mean_z(rows: list[dict], o: dict) -> float:
    """Largest |mean - exact| / mean_se over the reinforce, vargrad and
    cv_oracle rows, against losses.kl_gaussian_gradient."""
    import numpy as np

    from vargrad_lab.families import DiagGaussianParams
    from vargrad_lab.losses import kl_gaussian_gradient
    from vargrad_lab.targets import GaussianTarget

    exact = {}
    for d in o["cv.dims"]:
        q = DiagGaussianParams(
            mean=np.full(d, o["cv.mu"]), log_std=np.full(d, 0.5 * math.log(o["cv.sigma2"]))
        )
        t = GaussianTarget(
            post_mean=np.full(d, o["cv.mu_tilde"]), post_var=np.full(d, o["cv.sigma2_tilde"])
        )
        exact[d] = kl_gaussian_gradient(q, t)
    worst = 0.0
    for r in rows:
        if r["estimator"] in ("reinforce", "vargrad", "cv_oracle"):
            g = float(exact[int(r["dims"])][int(r["coord"])])
            worst = max(worst, abs(r["mean"] - g) / r["mean_se"])
    return worst


def check_cv(rows: list[dict], o: dict) -> None:
    specs = len(o["cv.estimators"]) + len(o["cv.a_grid"])
    expected = sum(2 * d for d in o["cv.dims"]) * len(o["cv.s_grid"]) * specs
    _require(len(rows) == expected, f"cvcmp: {len(rows)} rows, expected {expected}")
    z = cv_mean_z(rows, o)
    _require(z <= CV_MEAN_Z, f"cvcmp: an estimator mean is {z:.2f} SE off the exact gradient")


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    options: dict[str, Any]
    draws: Callable[[dict], int]
    check: Callable[[list[dict], dict], None]

    def resolved(self, overrides: dict | None = None) -> dict[str, Any]:
        return {**self.options, **(overrides or {})}

    def write_config(self, path: Path, seed: int, overrides: dict | None = None) -> Path:
        lines = [f"experiment = {self.subcommand}", f"seed = {seed}"]
        lines += [f"{k} = {json.dumps(v)}" for k, v in self.resolved(overrides).items()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            subcommand="variance-sweep",
            options={"sweep.grid_points": SWEEP_GRID, "sweep.replicates": 100000},
            draws=sweep_draws,
            check=check_sweep,
        ),
        Workload(
            name="logreg",
            subcommand="train-logreg",
            options={
                "logreg.dims": 50,
                "logreg.n_data": 100,
                "logreg.steps": 1000,
                "logreg.train_s": 4,
                "optimizer.learning_rate": 0.001,
                "logging.every": 10,
                "diagnostics.n_delta": 2000,
                "diagnostics.n_is": 10000,
                "diagnostics.n_elbo": 2000,
                "diagnostics.variance_replicates": 1000,
                "diagnostics.variance_s": 4,
                "diagnostics.cv_extra_samples": 2,
                "diagnostics.cv_oracle_samples": 1000,
            },
            draws=logreg_draws,
            check=check_logreg,
        ),
        # Not listed in BENCHMARK.json: on a shared 2-vCPU VM its ten-run
        # spread crossed the 25% bound, so it is run by hand, in paired runs
        # against the parent, when a change touches the estimator kernel at
        # wide P or the jackknife.
        Workload(
            name="cvcmp",
            subcommand="cv-comparison",
            options={
                "cv.dims": [3, 30],
                "cv.s_grid": [2, 4, 8, 16, 32],
                # Every (dims, S) cell is one chunk holding all replicates, so
                # peak memory grows linearly with this: about 0.9 GB here and
                # 1.7 GB at 20000. That keeps it below the count that would
                # match the other workloads' 13-16 s per CLI run.
                "cv.replicates": 10000,
                "cv.mu": 3.0,
                "cv.sigma2": 3.0,
                "cv.mu_tilde": 1.0,
                "cv.sigma2_tilde": 1.0,
                "cv.estimators": ["reinforce", "vargrad", "cv_oracle", "cv_sampled"],
                "cv.a_grid": [0.0, 2.0, 4.0],
            },
            draws=cv_draws,
            check=check_cv,
        ),
    )
}

"""Experiment drivers behind the CLI subcommands.

Each runner takes a resolved ExperimentConfig, derives every random stream
from (seed, label, index) via split_stream, and writes one CSV through
_write_run, whose metadata lines are the resolved config in config syntax
followed by the few values the run computed. Reruns with the same config and
seed are byte-identical.

train-logreg runs in two stages. The SGD loop runs serially and records the
parameters at step 0 and at every logging.every steps. Each recorded step is
then turned into its diagnostic rows by _logreg_step_rows, which reads only
(cfg, model, t, parameters) and its own split_stream(seed, label, t)
streams. The steps can therefore run in any process and in any order; their
rows are joined in step order and written once, so the bytes do not depend
on the worker count.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any

import numpy as np

from .. import analysis, estimators, families, losses, optim, targets
from ..analysis import CV_SAMPLED_TAG, EstimatorSpec
from ..estimators import CV_TAG, REINFORCE_TAG, VARGRAD_TAG
from ..families import DiagGaussianParams, MeanFieldBernoulliParams
from ..gaussian_oracles import (
    CONVENTIONS,
    convention_coordinate,
    cov_f_score2_analytic,
    delta_cv_analytic,
    delta_var_analytic,
    delta_var_large_s,
    optimal_a_analytic,
    score_variance_analytic,
)
from ..targets import DiscreteToyModel, GaussianTarget
from .config import ConfigError, ExperimentConfig
from .csvio import write_csv
from .pool import fork_map
from .rng import split_stream


def _replicated_gaussian_pair(
    mu: float, sigma2: float, mu_tilde: float, sigma2_tilde: float, dims: int
) -> tuple[DiagGaussianParams, GaussianTarget]:
    """The same 1-D (q, posterior) setting copied across dims coordinates."""
    q = DiagGaussianParams(
        mean=np.full(dims, mu), log_std=np.full(dims, 0.5 * math.log(sigma2))
    )
    target = GaussianTarget(
        post_mean=np.full(dims, mu_tilde), post_var=np.full(dims, sigma2_tilde)
    )
    return q, target


def _z_score(mean: float, exact: float, se: float) -> float:
    # Zero-variance estimators reproduce the exact value up to summation
    # rounding, leaving se at fp-dust scale; treat agreement at double
    # precision as z = 0 rather than dividing dust by dust.
    tol = 1e-12 * max(1.0, abs(exact), abs(mean))
    if abs(mean - exact) <= tol:
        return 0.0
    if se > 0.0:
        return (mean - exact) / se
    return math.inf


def _write_run(cfg: ExperimentConfig, rows: list[dict], **computed: Any) -> str:
    """Write rows to cfg.out under '#' lines: experiment, seed and every
    resolved option in config syntax (values as JSON), so that with '# '
    stripped those lines are a config that reproduces the file; then the
    values the run computed."""
    metadata = {"experiment": cfg.experiment, "seed": cfg.seed}
    metadata.update((key, json.dumps(value)) for key, value in cfg.options.items())
    metadata.update(computed)
    write_csv(cfg.out, rows, metadata)
    return cfg.out


# Estimator names each subcommand accepts, in the order its error lists them,
# and the estimator each name selects. "cv" and "cv_oracle" are the fixed-
# coefficient control variate under each subcommand's name for its coefficient.
_ESTIMATOR_CHOICES = {
    "unbiasedness": ("reinforce", "cv", "vargrad"),
    "cv-comparison": ("reinforce", "vargrad", "cv_oracle", "cv_sampled"),
}
_ESTIMATOR_TAGS = {
    "reinforce": REINFORCE_TAG,
    "vargrad": VARGRAD_TAG,
    "cv": CV_TAG,
    "cv_oracle": CV_TAG,
    "cv_sampled": CV_SAMPLED_TAG,
}


def _estimator_specs(
    cfg: ExperimentConfig, key: str, a_fixed: np.ndarray, S: int
) -> list[EstimatorSpec]:
    """Specs for the estimator names under cfg[key]. The fixed control
    variate uses a_fixed; cv_sampled estimates its coefficient from a batch
    the size of the estimate batch, S."""
    choices = _ESTIMATOR_CHOICES[cfg.experiment]
    names = cfg[key]
    if len(set(names)) != len(names):
        raise ConfigError(f"key '{key}': estimator names must be unique, got {names}")
    specs = []
    for name in names:
        if name not in choices:
            raise ConfigError(
                f"key '{key}': unknown estimator {name!r} for {cfg.experiment}; "
                f"choose from {', '.join(choices)}"
            )
        tag = _ESTIMATOR_TAGS[name]
        specs.append(
            EstimatorSpec(
                name=name,
                tag=tag,
                a=a_fixed if tag == CV_TAG else None,
                s_extra=S if tag == CV_SAMPLED_TAG else None,
            )
        )
    return specs


def run_unbiasedness(cfg: ExperimentConfig) -> str:
    d = cfg["toy.dims"]
    if d > families.MAX_ENUM_DIM:
        raise ConfigError(
            f"toy.dims must be <= {families.MAX_ENUM_DIM} (exhaustive enumeration oracle)"
        )
    posterior = cfg["toy.posterior"]
    if posterior is not None:
        if len(posterior) != 2**d:
            raise ConfigError(f"toy.posterior needs 2^dims = {2**d} entries, got {len(posterior)}")
        model = DiscreteToyModel.from_posterior(np.asarray(posterior, dtype=float))
    else:
        table_rng = split_stream(cfg.seed, "toy-table")
        model = DiscreteToyModel(log_joint_table=table_rng.normal(0.0, 1.0, size=2**d))
    logits = cfg["toy.logits"]
    if logits is None:
        logits = [0.0] * d
    elif len(logits) != d:
        raise ConfigError(f"toy.logits needs dims = {d} entries, got {len(logits)}")
    params = MeanFieldBernoulliParams(logits=np.asarray(logits, dtype=float))

    kl, exact_grad = targets.exact_kl_and_gradient(model, params)
    a_const = kl - model.log_evidence  # population mean of f, the fixed CV coefficient
    S, R = cfg["toy.s"], cfg["toy.replicates"]
    specs = _estimator_specs(cfg, "toy.estimators", np.full(params.num_params, a_const), S)
    ests = analysis.replicate_estimates(
        params, model, split_stream(cfg.seed, "unbiasedness"), S, R, specs
    )
    labels = families.param_labels(params)
    rows = []
    for spec in specs:
        report = analysis.report_from_estimates(ests[spec.name])
        mean, se = report.per_coordinate_mean, report.mean_standard_errors
        for k in range(params.num_params):
            z = _z_score(float(mean[k]), float(exact_grad[k]), float(se[k]))
            rows.append(
                {
                    "estimator": spec.name,
                    "coord": k,
                    "label": labels[k],
                    "exact_grad": float(exact_grad[k]),
                    "replicate_mean": float(mean[k]),
                    "mean_se": float(se[k]),
                    "z_score": z,
                    "within_4se": abs(z) < 4.0,
                }
            )
    return _write_run(cfg, rows, exact_kl=kl, cv_coefficient=a_const)


def run_variance_sweep(cfg: ExperimentConfig) -> str:
    grid = cfg["sweep.grid_points"]
    R = cfg["sweep.replicates"]
    rows = []
    for i, (mu, mu_tilde, sigma2, sigma2_tilde, S) in enumerate(grid):
        q, target = _replicated_gaussian_pair(mu, sigma2, mu_tilde, sigma2_tilde, dims=1)
        specs = [
            EstimatorSpec(name="reinforce", tag=REINFORCE_TAG),
            EstimatorSpec(name="vargrad", tag=VARGRAD_TAG),
        ]
        ests = analysis.replicate_estimates(
            q, target, split_stream(cfg.seed, "variance-sweep", i), S, R, specs
        )
        pair = analysis.paired_difference_from_estimates(ests["reinforce"], ests["vargrad"])
        # the large-S sufficient condition delta / ELBO < 1/2 for the
        # leave-one-out estimator to beat Reinforce; delta = 0 meets it
        # trivially (no correction at all), even at ELBO = 0. A nonzero delta
        # over ELBO = 0 has no value: ZeroDivisionError, a numerical abort.
        delta = float(delta_cv_analytic(q, target)[0])
        elbo = target.log_evidence - losses.kl_gaussian_closed_form(q, target)
        condition = delta / elbo if delta != 0.0 else 0.0
        # coordinate 0 is the mean derivative, the coordinate the closed form covers
        rows.append(
            {
                "mu": mu,
                "mu_tilde": mu_tilde,
                "sigma2": sigma2,
                "sigma2_tilde": sigma2_tilde,
                "S": S,
                "var_reinforce": float(pair.report_a.per_coordinate_variance[0]),
                "var_vargrad": float(pair.report_b.per_coordinate_variance[0]),
                "diff": float(pair.diff[0]),
                "diff_se": float(pair.diff_se[0]),
                "analytic": delta_var_analytic(q, target, S),
                "condition_value": condition,
                "condition_met": condition < 0.5,
            }
        )
    return _write_run(cfg, rows, coordinate="mean_0")


def run_delta_ratio(cfg: ExperimentConfig) -> str:
    mu, sigma2 = cfg["delta.mu"], cfg["delta.sigma2"]
    mu_tilde, sigma2_tilde = cfg["delta.mu_tilde"], cfg["delta.sigma2_tilde"]
    n = cfg["delta.n_samples"]
    rows = []
    for d in cfg["delta.dims"]:
        q, target = _replicated_gaussian_pair(mu, sigma2, mu_tilde, sigma2_tilde, dims=d)
        report = analysis.delta_cv_mc(q, target, split_stream(cfg.seed, "delta-ratio", d), n)
        delta_pop = delta_cv_analytic(q, target)
        a_pop = losses.kl_gaussian_closed_form(q, target) - target.log_evidence
        # at q = posterior both coefficient expectations are 0 and no ratio exists
        ratio_defined = a_pop != 0.0 and report.a_vargrad_expectation != 0.0
        labels = families.param_labels(q)
        for k in range(q.num_params):
            rows.append(
                {
                    "dims": d,
                    "coord": k,
                    "label": labels[k],
                    "delta_mc": float(report.delta_cv[k]),
                    "delta_se": float(report.delta_se[k]),
                    "delta_analytic": float(delta_pop[k]),
                    "a_expectation_mc": report.a_vargrad_expectation,
                    "a_expectation_analytic": a_pop,
                    "ratio_abs_mc": abs(float(report.ratio[k])),
                    "ratio_se": float(report.ratio_se[k]),
                    "ratio_abs_analytic": abs(float(delta_pop[k]) / a_pop) if a_pop else math.nan,
                    "valid": bool(report.valid[k]) and ratio_defined,
                }
            )
    return _write_run(cfg, rows)


def run_gaussian_oracles(cfg: ExperimentConfig) -> str:
    grid = cfg["oracles.grid_points"]
    n_mc = cfg["oracles.mc_draws"]
    rows = []
    for i, (mu, mu_tilde, sigma2, sigma2_tilde, S) in enumerate(grid):
        q, target = _replicated_gaussian_pair(mu, sigma2, mu_tilde, sigma2_tilde, dims=1)
        row = {
            "mu": mu,
            "mu_tilde": mu_tilde,
            "sigma2": sigma2,
            "sigma2_tilde": sigma2_tilde,
            "S": S,
            "delta_var": delta_var_analytic(q, target, S),
            "delta_var_large_s": delta_var_large_s(mu - mu_tilde, sigma2 - sigma2_tilde),
            "kl": losses.kl_gaussian_closed_form(q, target),
        }
        # each oracle is evaluated once; its (mean, log_std) pair fills two columns
        for name, values in (
            ("delta", delta_cv_analytic(q, target)),
            ("a_opt", optimal_a_analytic(q, target)),
            ("score_var", score_variance_analytic(q)),
            ("kurt", families.gaussian_score_kurtosis_analytic(q)),
        ):
            row[f"{name}_mean"] = float(values[0])
            row[f"{name}_log_std"] = float(values[1])
        # one batch serves every convention, each a rescaled library
        # coordinate of Cov(f, score^2); the "oracles-mean" label keeps the
        # draws of the mean columns
        mc = analysis.delta_cv_mc(q, target, split_stream(cfg.seed, "oracles-mean", i), n_mc)
        for convention in CONVENTIONS:
            k, factor = convention_coordinate(q, 0, convention)
            row[f"cov_{convention}"] = cov_f_score2_analytic(q, target, 0, convention)
            row[f"cov_{convention}_mc"] = factor * float(mc.cov[k])
            row[f"cov_{convention}_mc_se"] = factor * float(mc.cov_se[k])
        rows.append(row)
    return _write_run(cfg, rows)


def run_cv_comparison(cfg: ExperimentConfig) -> str:
    mu, sigma2 = cfg["cv.mu"], cfg["cv.sigma2"]
    mu_tilde, sigma2_tilde = cfg["cv.mu_tilde"], cfg["cv.sigma2_tilde"]
    R = cfg["cv.replicates"]
    a_grid = cfg["cv.a_grid"] or []
    rows = []
    for d in cfg["cv.dims"]:
        q, target = _replicated_gaussian_pair(mu, sigma2, mu_tilde, sigma2_tilde, dims=d)
        a_star = optimal_a_analytic(q, target)
        labels = families.param_labels(q)
        for S in cfg["cv.s_grid"]:
            specs = _estimator_specs(cfg, "cv.estimators", a_star, S)
            a_values = {spec.name: math.nan for spec in specs}
            for j, a_val in enumerate(a_grid):
                spec = EstimatorSpec(
                    name=f"cv_const_{j}", tag=CV_TAG, a=np.full(q.num_params, float(a_val))
                )
                specs.append(spec)
                a_values[spec.name] = float(a_val)
            ests = analysis.replicate_estimates(
                q, target, split_stream(cfg.seed, f"cv-comparison-{d}", S), S, R, specs
            )
            for spec in specs:
                report = analysis.report_from_estimates(ests[spec.name])
                for k in range(q.num_params):
                    rows.append(
                        {
                            "dims": d,
                            "S": S,
                            "estimator": spec.name,
                            "a_value": a_values[spec.name],
                            "coord": k,
                            "label": labels[k],
                            "variance": float(report.per_coordinate_variance[k]),
                            "variance_se": float(report.standard_errors[k]),
                            "mean": float(report.per_coordinate_mean[k]),
                            "mean_se": float(report.mean_standard_errors[k]),
                        }
                    )
    return _write_run(cfg, rows)


def _logreg_step_rows(
    cfg: ExperimentConfig, model: targets.LogRegModel, step: tuple[int, np.ndarray]
) -> list[dict]:
    """The diagnostic rows of one logged step (t, phi), one per parameter
    coordinate of q = phi. Every stream is split_stream(seed, label, t), so
    the rows depend only on (cfg, model, t, phi)."""
    t, phi = step
    q = DiagGaussianParams.from_vector(phi)
    labels = families.param_labels(q)
    log_ev, elbo, lv_loss = losses.evidence_and_elbo(
        q,
        model,
        split_stream(cfg.seed, "diag-evidence", t),
        n_is=cfg["diagnostics.n_is"],
        n_elbo=cfg["diagnostics.n_elbo"],
    )
    kl_is = log_ev - elbo
    if kl_is > 0.0:
        denom = abs(math.sqrt(kl_is) - log_ev / math.sqrt(kl_is))
    else:
        denom = math.nan
    delta = analysis.delta_cv_mc(
        q, model, split_stream(cfg.seed, "diag-delta", t), cfg["diagnostics.n_delta"]
    )
    a_oracle = estimators.sampled_cv_coefficient(
        q,
        model,
        split_stream(cfg.seed, "diag-cv-oracle", t),
        cfg["diagnostics.cv_oracle_samples"],
    )
    specs = [
        EstimatorSpec(name="reinforce", tag=REINFORCE_TAG),
        EstimatorSpec(name="vargrad", tag=VARGRAD_TAG),
        EstimatorSpec(
            name="cv_sampled", tag=CV_SAMPLED_TAG, s_extra=cfg["diagnostics.cv_extra_samples"]
        ),
        EstimatorSpec(name="cv_oracle", tag=CV_TAG, a=a_oracle),
    ]
    ests = analysis.replicate_estimates(
        q,
        model,
        split_stream(cfg.seed, "diag-variance", t),
        cfg["diagnostics.variance_s"],
        cfg["diagnostics.variance_replicates"],
        specs,
    )
    pair = analysis.paired_difference_from_estimates(ests["reinforce"], ests["vargrad"])
    # the pair already summarised the two estimators it compares
    reports = {"reinforce": pair.report_a, "vargrad": pair.report_b}
    for s in specs:
        if s.name not in reports:
            reports[s.name] = analysis.report_from_estimates(ests[s.name])
    rows = []
    for k in range(q.num_params):
        row = {
            "step": t,
            "coord": k,
            "label": labels[k],
            "elbo": elbo,
            "log_evidence_is": log_ev,
            "kl_is": kl_is,
            "bound_denominator": denom,
            "delta_abs_ratio": abs(float(delta.ratio[k])),
            "delta_ratio_se": float(delta.ratio_se[k]),
            "delta_valid": bool(delta.valid[k]),
        }
        for name in ("reinforce", "vargrad", "cv_sampled", "cv_oracle"):
            row[f"var_{name}"] = float(reports[name].per_coordinate_variance[k])
            row[f"var_{name}_se"] = float(reports[name].standard_errors[k])
        row["diff_reinforce_vargrad"] = float(pair.diff[k])
        row["diff_se_reinforce_vargrad"] = float(pair.diff_se[k])
        row["log_variance_loss"] = lv_loss
        # bound_denominator is NaN where the importance-sampled KL is not positive
        row["bound_valid"] = kl_is > 0.0
        rows.append(row)
    return rows


def run_train_logreg(cfg: ExperimentConfig, workers: int = 1) -> str:
    """Train, then diagnose: the SGD loop runs here and records the
    parameters at step 0 and every logging.every steps; each recorded step
    then becomes its rows through _logreg_step_rows, on up to workers
    processes. The CSV bytes do not depend on workers."""
    model = targets.synth_logreg_dataset(
        split_stream(cfg.seed, "logreg-data"), N=cfg["logreg.n_data"], D=cfg["logreg.dims"]
    )
    params = DiagGaussianParams(mean=np.zeros(model.dim), log_std=np.zeros(model.dim))
    lr = cfg["optimizer.learning_rate"]
    every = cfg["logging.every"]
    phi = params.to_vector()
    trajectory = [(0, phi)]
    for t in range(1, cfg["logreg.steps"] + 1):
        f, sc = estimators.build_batch(
            params, model, split_stream(cfg.seed, "train", t), cfg["logreg.train_s"]
        )
        phi = optim.sgd_step(phi, estimators.vargrad(f, sc), lr)
        params = DiagGaussianParams.from_vector(phi)
        if t % every == 0:
            trajectory.append((t, phi))

    step_rows = functools.partial(_logreg_step_rows, cfg, model)
    blocks = fork_map(step_rows, trajectory, workers)
    return _write_run(cfg, [row for block in blocks for row in block])


RUNNERS = {
    "train-logreg": run_train_logreg,
    "variance-sweep": run_variance_sweep,
    "delta-ratio": run_delta_ratio,
    "gaussian-oracles": run_gaussian_oracles,
    "unbiasedness": run_unbiasedness,
    "cv-comparison": run_cv_comparison,
}

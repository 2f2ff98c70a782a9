"""Experiment drivers behind the CLI subcommands.

Each runner takes a resolved ExperimentConfig, derives every random stream
from (seed, label, index) via split_stream, and writes one CSV whose
metadata lines record the settings that produced it. Reruns with the same
config and seed are byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .. import analysis, estimators, families, losses, optim, targets
from ..analysis import CV_SAMPLED_TAG, EstimatorSpec
from ..estimators import CV_TAG, REINFORCE_TAG, VARGRAD_TAG
from ..families import DiagGaussianParams, MeanFieldBernoulliParams
from ..gaussian_oracles import (
    CONVENTIONS,
    Gaussian1DSetting,
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
    specs = []
    for name in cfg[key]:
        if name not in choices:
            raise ConfigError(
                f"unknown estimator {name!r} for {cfg.experiment}; "
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
    if d > 4:
        raise ConfigError("toy.dims must be <= 4 (exhaustive enumeration oracle)")
    posterior = cfg["toy.posterior"]
    if posterior is not None:
        if len(posterior) != 2**d:
            raise ConfigError(f"toy.posterior needs 2^dims = {2**d} entries, got {len(posterior)}")
        model = DiscreteToyModel.from_posterior(np.asarray(posterior, dtype=float))
        table_source = "config"
    else:
        table_rng = split_stream(cfg.seed, "toy-table")
        model = DiscreteToyModel(log_joint_table=table_rng.normal(0.0, 1.0, size=2**d))
        table_source = "seeded"
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
    metadata = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "dims": d,
        "s": S,
        "replicates": R,
        "table_source": table_source,
        "exact_kl": kl,
        "cv_coefficient": a_const,
    }
    write_csv(cfg.out, rows, metadata)
    return cfg.out


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
        setting = Gaussian1DSetting(
            mu=mu, mu_tilde=mu_tilde, sigma2=sigma2, sigma2_tilde=sigma2_tilde, S=S
        )
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
                "analytic": delta_var_analytic(setting),
            }
        )
    metadata = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "replicates": R,
        "grid_points": len(grid),
        "coordinate": "mean_0",
    }
    write_csv(cfg.out, rows, metadata)
    return cfg.out


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
    metadata = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "n_samples": n,
        "mu": mu,
        "sigma2": sigma2,
        "mu_tilde": mu_tilde,
        "sigma2_tilde": sigma2_tilde,
    }
    write_csv(cfg.out, rows, metadata)
    return cfg.out


def run_gaussian_oracles(cfg: ExperimentConfig) -> str:
    grid = cfg["oracles.grid_points"]
    n_mc = cfg["oracles.mc_draws"]
    rows = []
    for i, (mu, mu_tilde, sigma2, sigma2_tilde, S) in enumerate(grid):
        q, target = _replicated_gaussian_pair(mu, sigma2, mu_tilde, sigma2_tilde, dims=1)
        setting = Gaussian1DSetting(
            mu=mu, mu_tilde=mu_tilde, sigma2=sigma2, sigma2_tilde=sigma2_tilde, S=S
        )
        row = {
            "mu": mu,
            "mu_tilde": mu_tilde,
            "sigma2": sigma2,
            "sigma2_tilde": sigma2_tilde,
            "S": S,
            "delta_var": delta_var_analytic(setting),
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
        for j, convention in enumerate(CONVENTIONS):
            row[f"cov_{convention}"] = cov_f_score2_analytic(q, target, 0, convention)
            mc, se = analysis.cov_f_score2_mc(
                q, target, split_stream(cfg.seed, f"oracles-{convention}", i), n_mc, 0, convention
            )
            row[f"cov_{convention}_mc"] = mc
            row[f"cov_{convention}_mc_se"] = se
        rows.append(row)
    metadata = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "grid_points": len(grid),
        "mc_draws": n_mc,
    }
    write_csv(cfg.out, rows, metadata)
    return cfg.out


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
    metadata = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "replicates": R,
        "mu": mu,
        "sigma2": sigma2,
        "mu_tilde": mu_tilde,
        "sigma2_tilde": sigma2_tilde,
    }
    write_csv(cfg.out, rows, metadata)
    return cfg.out


def run_train_logreg(cfg: ExperimentConfig) -> str:
    d = cfg["logreg.dims"]
    model = targets.synth_logreg_dataset(
        split_stream(cfg.seed, "logreg-data"), N=cfg["logreg.n_data"], D=d
    )
    latent = model.dim
    params = DiagGaussianParams(mean=np.zeros(latent), log_std=np.zeros(latent))
    labels = families.param_labels(params)
    state = optim.OptimizerState(lr=cfg["optimizer.learning_rate"])
    steps, every, S_train = cfg["logreg.steps"], cfg["logging.every"], cfg["logreg.train_s"]
    n_is, n_elbo, n_delta = cfg["diagnostics.n_is"], cfg["diagnostics.n_elbo"], cfg["diagnostics.n_delta"]
    var_S, var_R = cfg["diagnostics.variance_s"], cfg["diagnostics.variance_replicates"]
    rows = []

    def log_step(t: int, q: DiagGaussianParams) -> None:
        log_ev, elbo = losses.evidence_and_elbo(
            q, model, split_stream(cfg.seed, "diag-evidence", t), n_is=n_is, n_elbo=n_elbo
        )
        kl_is = log_ev - elbo
        if kl_is > 0.0:
            denom = abs(math.sqrt(kl_is) - log_ev / math.sqrt(kl_is))
        else:
            denom = math.nan
        delta = analysis.delta_cv_mc(q, model, split_stream(cfg.seed, "diag-delta", t), n_delta)
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
            q, model, split_stream(cfg.seed, "diag-variance", t), var_S, var_R, specs
        )
        pair = analysis.paired_difference_from_estimates(ests["reinforce"], ests["vargrad"])
        # the pair already summarised the two estimators it compares
        reports = {"reinforce": pair.report_a, "vargrad": pair.report_b}
        for s in specs:
            if s.name not in reports:
                reports[s.name] = analysis.report_from_estimates(ests[s.name])
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
            rows.append(row)

    log_step(0, params)
    phi = params.to_vector()
    for t in range(1, steps + 1):
        f, sc = estimators.build_batch(params, model, split_stream(cfg.seed, "train", t), S_train)
        grad = estimators.vargrad(f, sc)
        phi = optim.sgd_step(state, phi, grad)
        params = DiagGaussianParams.from_vector(phi)
        if t % every == 0:
            log_step(t, params)

    metadata = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "dims": d,
        "n_data": cfg["logreg.n_data"],
        "steps": steps,
        "train_s": S_train,
        "learning_rate": cfg["optimizer.learning_rate"],
        "log_every": every,
        "n_delta": n_delta,
        "n_is": n_is,
        "n_elbo": n_elbo,
        "variance_replicates": var_R,
        "variance_s": var_S,
        "cv_extra_samples": cfg["diagnostics.cv_extra_samples"],
        "cv_oracle_samples": cfg["diagnostics.cv_oracle_samples"],
    }
    write_csv(cfg.out, rows, metadata)
    return cfg.out


RUNNERS = {
    "train-logreg": run_train_logreg,
    "variance-sweep": run_variance_sweep,
    "delta-ratio": run_delta_ratio,
    "gaussian-oracles": run_gaussian_oracles,
    "unbiasedness": run_unbiasedness,
    "cv-comparison": run_cv_comparison,
}

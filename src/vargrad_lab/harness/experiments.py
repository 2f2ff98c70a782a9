"""Experiment drivers behind the CLI subcommands.

Each runner takes a resolved ExperimentConfig, derives every random stream
from (seed, label, index) via split_stream, and writes one CSV through
_write_run, whose metadata lines are the resolved config in config syntax
followed by the few values the run computed. Reruns with the same config and
seed are byte-identical.

train-logreg runs in two stages. The SGD loop runs serially and records the
parameters at step 0 and at every logging.every steps. Each recorded step is
then turned into its block of diagnostic columns by _logreg_step_block,
which reads only (cfg, model, t, parameters) and its own
split_stream(seed, label, t) streams. The steps can therefore run in any
process and in any order; their blocks are joined in step order and
written once, so the bytes do not depend on the worker count.

variance-sweep cuts each grid row's replicates into fixed spans of
_SPAN_REPLICATES, each drawn from its own jump of the row's stream, and
maps every (row, span) task of the run through one pool. Its bytes do not
depend on the worker count either.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from typing import Any, Iterator

import numpy as np

from .. import analysis, estimators, families, losses, optim, targets
from ..analysis import CV_SAMPLED_TAG, EstimatorSpec
from ..estimators import CV_TAG, REINFORCE_TAG, VARGRAD_TAG
from ..families import DiagGaussianParams, MeanFieldBernoulliParams
from ..gaussian_oracles import (
    CONVENTIONS,
    convention_coordinate,
    delta_cv_analytic,
    delta_var_analytic,
    delta_var_large_s,
    expected_f_analytic,
    optimal_a_analytic,
    score_variance_analytic,
)
from ..targets import DiscreteToyModel, GaussianTarget
from .config import GRID_COLUMNS, ConfigError, ExperimentConfig
from .csvio import write_csv
from .pool import fork_map
from .rng import split_stream


def _gaussian_pair(
    mu: float, mu_tilde: float, sigma2: float, sigma2_tilde: float, dims: int = 1
) -> tuple[DiagGaussianParams, GaussianTarget]:
    """q = N(mu, sigma2) against the posterior N(mu_tilde, sigma2_tilde) and
    log p(x) = 0 in each of dims coordinates; arguments in GRID_COLUMNS order."""
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
    # a gap with no spread is infinitely many SEs off, on the gap's side
    return math.copysign(math.inf, mean - exact)


def _block_rows(block: dict[str, Any]) -> Iterator[tuple]:
    """The tuple rows of one block: a list, range or array holds one value
    per row, any other value fills its column. Arrays become Python lists."""
    columns = [v.tolist() if isinstance(v, np.ndarray) else v for v in block.values()]
    n = max((len(c) for c in columns if isinstance(c, (list, range))), default=1)
    return zip(*(c if isinstance(c, (list, range)) else [c] * n for c in columns), strict=True)


def _write_run(cfg: ExperimentConfig, blocks: list[dict[str, Any]], **computed: Any) -> str:
    """Write the blocks to cfg.out under the first block's column names,
    which every block repeats in order, below '#' lines: experiment, seed and
    every resolved option in config syntax (values as JSON), which with '# '
    stripped reproduce the file, then the values the run computed."""
    header = list(blocks[0])
    rows = []
    for block in blocks:
        if list(block) != header:
            raise ValueError(f"block columns {list(block)} differ from the header {header}")
        rows.extend(_block_rows(block))
    metadata = {"experiment": cfg.experiment, "seed": cfg.seed}
    metadata.update((key, json.dumps(value)) for key, value in cfg.options.items())
    metadata.update(computed)
    try:
        write_csv(cfg.out, header, rows, metadata)
    except OSError as exc:  # the output path is part of the config
        raise ConfigError(f"cannot write output: {exc}") from exc
    return cfg.out


# The estimator each accepted name selects; the config schema lists the names
# each subcommand accepts. "cv" and "cv_oracle" are the fixed-coefficient
# control variate under each subcommand's name for its coefficient.
_ESTIMATOR_TAGS = {
    "reinforce": REINFORCE_TAG,
    "vargrad": VARGRAD_TAG,
    "cv": CV_TAG,
    "cv_oracle": CV_TAG,
    "cv_sampled": CV_SAMPLED_TAG,
}


def _estimator_specs(
    names: list[str], a_fixed: np.ndarray | None, s_extra: int | None
) -> list[EstimatorSpec]:
    """Specs for the estimator names, in their order. The fixed control
    variate uses a_fixed; cv_sampled estimates its coefficient from a fresh
    batch of s_extra draws per replicate. Those batches are drawn in spec
    order, so the name order is the cv_sampled stream order."""
    specs = []
    for name in names:
        tag = _ESTIMATOR_TAGS[name]
        specs.append(
            EstimatorSpec(
                name=name,
                tag=tag,
                a=a_fixed if tag == CV_TAG else None,
                s_extra=s_extra if tag == CV_SAMPLED_TAG else None,
            )
        )
    return specs


def run_unbiasedness(cfg: ExperimentConfig, workers: int = 1) -> str:
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

    kl, exact_grad = analysis.exact_kl_and_gradient(model, params)
    a_const = kl - model.log_evidence  # population mean of f, the fixed CV coefficient
    S, R = cfg["toy.s"], cfg["toy.replicates"]
    specs = _estimator_specs(cfg["toy.estimators"], np.full(params.num_params, a_const), S)
    ests = analysis.replicate_estimates(
        params, model, split_stream(cfg.seed, "unbiasedness"), S, R, specs
    )
    labels = families.param_labels(params)
    blocks = []
    for spec in specs:
        report = analysis.report_from_estimates(ests[spec.name])
        mean, se = report.per_coordinate_mean, report.mean_standard_errors
        z = [_z_score(*cells) for cells in zip(mean.tolist(), exact_grad.tolist(), se.tolist())]
        blocks.append(
            {
                "estimator": spec.name,
                "coord": range(params.num_params),
                "label": labels,
                "exact_grad": exact_grad,
                "replicate_mean": mean,
                "mean_se": se,
                "z_score": z,
                "within_4se": [abs(v) < 4.0 for v in z],
            }
        )
    return _write_run(cfg, blocks, exact_kl=kl, cv_coefficient=a_const)


# Replicates per task of variance-sweep. Span k of grid row i draws from
# split_stream(seed, "variance-sweep", i) jumped k times (about 2^127 draws per
# jump), so the bytes depend on this value wherever sweep.replicates exceeds
# it, but not on the worker count. 2^13 cuts the default grid's 1e5
# replicates into 13 spans per row: enough tasks to keep two workers busy,
# few enough that the per-task cost stays small. The last span of a row
# holds the rest, however few.
_SPAN_REPLICATES = 1 << 13

_SWEEP_SPECS = _estimator_specs(["reinforce", "vargrad"], None, None)


def _sweep_spans(R: int) -> list[tuple[int, int]]:
    """The (start, stop) replicate spans of one sweep row: _SPAN_REPLICATES
    each, the last one to R."""
    return [(lo, min(lo + _SPAN_REPLICATES, R)) for lo in range(0, R, _SPAN_REPLICATES)]


def _sweep_span(
    cfg: ExperimentConfig, task: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The mean_0 column of the Reinforce and VarGrad estimates of task
    (row i, span k, n replicates), drawn from the k-th jump of row i's
    stream; it depends only on (cfg, task)."""
    i, k, n = task
    row = cfg["sweep.grid_points"][i]
    q, target = _gaussian_pair(*row[:4])
    row_stream = split_stream(cfg.seed, "variance-sweep", i)
    rng = np.random.Generator(row_stream.bit_generator.jumped(k))
    ests = analysis.replicate_estimates(q, target, rng, row[4], n, _SWEEP_SPECS)
    # coordinate 0 is the mean derivative, the coordinate the closed form covers
    return ests["reinforce"][:, 0].copy(), ests["vargrad"][:, 0].copy()


def run_variance_sweep(cfg: ExperimentConfig, workers: int = 1) -> str:
    """Every (row, span) task of the grid goes through one fork_map on up to
    workers processes. The results arrive in task order and fill each row's
    (R, 1) columns; a row is summarised as soon as its last span is in, so
    at most one row's replicates are held at a time."""
    grid = cfg["sweep.grid_points"]
    R = cfg["sweep.replicates"]
    spans = _sweep_spans(R)
    tasks = [
        (i, k, stop - start) for i in range(len(grid)) for k, (start, stop) in enumerate(spans)
    ]
    blocks = []
    span_fn = functools.partial(_sweep_span, cfg)
    with contextlib.closing(fork_map(span_fn, tasks, workers)) as results:
        for row in grid:
            xa, xb = np.empty((R, 1)), np.empty((R, 1))
            for start, stop in spans:
                xa[start:stop, 0], xb[start:stop, 0] = next(results)
            pair = analysis.paired_difference_from_estimates(xa, xb)
            del xa, xb
            q, target = _gaussian_pair(*row[:4])
            # for E f != 0, delta / ELBO = delta / -E f < 1/2 is exactly A > 0,
            # A the large-S term of delta_var_analytic: VarGrad beats Reinforce
            # past S* = 1 + B / A. delta = 0 meets it trivially, even at E f = 0;
            # a nonzero delta over E f = 0 is a ZeroDivisionError, a numerical abort.
            delta = float(delta_cv_analytic(q, target)[0])
            condition = delta / -expected_f_analytic(q, target) if delta != 0.0 else 0.0
            blocks.append(
                {
                    **dict(zip(GRID_COLUMNS, row)),
                    "var_reinforce": float(pair.report_a.per_coordinate_variance[0]),
                    "var_vargrad": float(pair.report_b.per_coordinate_variance[0]),
                    "diff": float(pair.diff[0]),
                    "diff_se": float(pair.diff_se[0]),
                    "analytic": delta_var_analytic(q, target, row[4]),
                    "condition_value": condition,
                    "condition_met": condition < 0.5,
                }
            )
    return _write_run(cfg, blocks, coordinate="mean_0")


def run_delta_ratio(cfg: ExperimentConfig, workers: int = 1) -> str:
    pair = [cfg[f"delta.{name}"] for name in GRID_COLUMNS[:4]]
    n = cfg["delta.n_samples"]
    blocks = []
    for d in cfg["delta.dims"]:
        q, target = _gaussian_pair(*pair, dims=d)
        report = analysis.delta_cv_mc(q, target, split_stream(cfg.seed, "delta-ratio", d), n)
        delta_pop = delta_cv_analytic(q, target)
        a_pop = expected_f_analytic(q, target)
        # at q = posterior both coefficient expectations are 0 and no ratio exists
        ratio_defined = a_pop != 0.0 and report.a_vargrad_expectation != 0.0
        # Python floats, whose division gives inf where numpy's would raise
        ratio_pop = [abs(v / a_pop) for v in delta_pop.tolist()] if a_pop else math.nan
        blocks.append(
            {
                "dims": d,
                "coord": range(q.num_params),
                "label": families.param_labels(q),
                "delta_mc": report.delta_cv,
                "delta_se": report.delta_se,
                "delta_analytic": delta_pop,
                "a_expectation_mc": report.a_vargrad_expectation,
                "a_expectation_analytic": a_pop,
                "ratio_abs_mc": np.abs(report.ratio),
                "ratio_se": report.ratio_se,
                "ratio_abs_analytic": ratio_pop,
                "valid": report.valid & ratio_defined,
            }
        )
    return _write_run(cfg, blocks)


def run_gaussian_oracles(cfg: ExperimentConfig, workers: int = 1) -> str:
    grid = cfg["oracles.grid_points"]
    n_mc = cfg["oracles.mc_draws"]
    blocks = []
    for i, row in enumerate(grid):
        mu, mu_tilde, sigma2, sigma2_tilde, S = row
        q, target = _gaussian_pair(*row[:4])
        block = {
            **dict(zip(GRID_COLUMNS, row)),
            "delta_var": delta_var_analytic(q, target, S),
            "delta_var_large_s": delta_var_large_s(mu - mu_tilde, sigma2 - sigma2_tilde),
            "kl": losses.kl_gaussian_closed_form(q, target),
        }
        delta, score_var = delta_cv_analytic(q, target), score_variance_analytic(q)
        # each oracle is evaluated once; its pair fills the mean and log-std
        # columns, but the kurtosis pair's second value is the natural
        # statistic z^2's (the log-std score's own is 15 at every setting)
        for name, second, values in (
            ("delta", "log_std", delta),
            ("a_opt", "log_std", optimal_a_analytic(q, target)),
            ("score_var", "log_std", score_var),
            ("kurt", "z2", families.gaussian_score_kurtosis_analytic(q)),
        ):
            block[f"{name}_mean"] = float(values[0])
            block[f"{name}_{second}"] = float(values[1])
        # Cov(f, score^2) = delta Var(score) per library coordinate; one batch
        # serves every convention, each a rescaled library coordinate, and
        # the "oracles-mean" label keeps the draws of the mean columns
        cov = delta * score_var
        mc = analysis.delta_cv_mc(q, target, split_stream(cfg.seed, "oracles-mean", i), n_mc)
        for convention in CONVENTIONS:
            k, factor = convention_coordinate(q, 0, convention)
            block[f"cov_{convention}"] = factor * float(cov[k])
            block[f"cov_{convention}_mc"] = factor * float(mc.cov[k])
            block[f"cov_{convention}_mc_se"] = factor * float(mc.cov_se[k])
        blocks.append(block)
    return _write_run(cfg, blocks)


def run_cv_comparison(cfg: ExperimentConfig, workers: int = 1) -> str:
    pair = [cfg[f"cv.{name}"] for name in GRID_COLUMNS[:4]]
    R = cfg["cv.replicates"]
    a_grid = cfg["cv.a_grid"] or []
    blocks = []
    for d in cfg["cv.dims"]:
        q, target = _gaussian_pair(*pair, dims=d)
        a_star = optimal_a_analytic(q, target)
        labels = families.param_labels(q)
        for S in cfg["cv.s_grid"]:
            specs = _estimator_specs(cfg["cv.estimators"], a_star, S)
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
                blocks.append(
                    {
                        "dims": d,
                        "S": S,
                        "estimator": spec.name,
                        "a_value": a_values[spec.name],
                        "coord": range(q.num_params),
                        "label": labels,
                        "variance": report.per_coordinate_variance,
                        "variance_se": report.standard_errors,
                        "mean": report.per_coordinate_mean,
                        "mean_se": report.mean_standard_errors,
                    }
                )
    return _write_run(cfg, blocks)


def _logreg_step_block(
    cfg: ExperimentConfig, model: targets.LogRegModel, step: tuple[int, np.ndarray]
) -> dict[str, Any]:
    """The diagnostic block of one logged step (t, phi), one row per
    parameter coordinate of q = phi. Every stream is split_stream(seed,
    label, t), so the block depends only on (cfg, model, t, phi)."""
    t, phi = step
    q = DiagGaussianParams.from_vector(phi)
    log_ev, elbo, lv_loss = losses.evidence_and_elbo(
        q,
        model,
        split_stream(cfg.seed, "diag-evidence", t),
        n_is=cfg["diagnostics.n_is"],
        n_elbo=cfg["diagnostics.n_elbo"],
    )
    kl_is = log_ev - elbo
    delta = analysis.delta_cv_mc(
        q, model, split_stream(cfg.seed, "diag-delta", t), cfg["diagnostics.n_delta"]
    )
    a_oracle = estimators.sampled_cv_coefficient(
        q,
        model,
        split_stream(cfg.seed, "diag-cv-oracle", t),
        cfg["diagnostics.cv_oracle_samples"],
    )
    # the name order is the cv_sampled stream order and the var_* column order
    specs = _estimator_specs(
        ["reinforce", "vargrad", "cv_sampled", "cv_oracle"],
        a_oracle,
        cfg["diagnostics.cv_extra_samples"],
    )
    ests = analysis.replicate_estimates(
        q,
        model,
        split_stream(cfg.seed, "diag-variance", t),
        cfg["diagnostics.variance_s"],
        cfg["diagnostics.variance_replicates"],
        specs,
    )
    pair = analysis.paired_difference_from_estimates(ests["reinforce"], ests["vargrad"])
    block = {
        "step": t,
        "coord": range(q.num_params),
        "label": families.param_labels(q),
        "elbo": elbo,
        "log_evidence_is": log_ev,
        "kl_is": kl_is,
        "bound_denominator": analysis.bound_denominator(kl_is, log_ev),
        "delta_abs_ratio": np.abs(delta.ratio),
        "delta_ratio_se": delta.ratio_se,
        "delta_valid": delta.valid,
    }
    # the pair already summarised the two estimators it compares
    reports = {"reinforce": pair.report_a, "vargrad": pair.report_b}
    for spec in specs:
        if spec.name not in reports:
            reports[spec.name] = analysis.report_from_estimates(ests[spec.name])
        block[f"var_{spec.name}"] = reports[spec.name].per_coordinate_variance
        block[f"var_{spec.name}_se"] = reports[spec.name].standard_errors
    block["diff_reinforce_vargrad"] = pair.diff
    block["diff_se_reinforce_vargrad"] = pair.diff_se
    block["log_variance_loss"] = lv_loss
    # bound_denominator is NaN where the importance-sampled KL is not positive
    block["bound_valid"] = kl_is > 0.0
    return block


def run_train_logreg(cfg: ExperimentConfig, workers: int = 1) -> str:
    """Train, then diagnose: the SGD loop runs here and records the
    parameters at step 0 and every logging.every steps; each recorded step
    then becomes its block through _logreg_step_block, on up to workers
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
        z = families.draw(params, split_stream(cfg.seed, "train", t), cfg["logreg.train_s"])
        phi = optim.sgd_step(phi, estimators.vargrad(params, model, z), lr)
        params = DiagGaussianParams.from_vector(phi)
        if t % every == 0:
            trajectory.append((t, phi))

    step_block = functools.partial(_logreg_step_block, cfg, model)
    return _write_run(cfg, list(fork_map(step_block, trajectory, workers)))


# Every runner is called as run(cfg, workers). train-logreg and
# variance-sweep map their work over up to workers forked processes; the
# others run in the calling process and ignore workers.
RUNNERS = {
    "train-logreg": run_train_logreg,
    "variance-sweep": run_variance_sweep,
    "delta-ratio": run_delta_ratio,
    "gaussian-oracles": run_gaussian_oracles,
    "unbiasedness": run_unbiasedness,
    "cv-comparison": run_cv_comparison,
}

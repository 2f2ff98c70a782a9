"""Diagnostics: correction terms, ratio bounds, and variance measurement.

The quantities here quantify how far the leave-one-out estimator's implicit
batch-mean coefficient sits from the per-coordinate optimal control-variate
coefficient. The gap per coordinate is delta_i = Cov(f, score_i^2) /
Var(score_i); the relative size |delta_i / E[f_bar]| admits an upper bound
in terms of the KL divergence, the score kurtosis, and a density-ratio
supremum, and the ratio shrinking is what justifies treating f_bar as a
near-optimal coefficient.

Variance measurement runs R independent replicates of an estimator and
reports per-coordinate means and variances. Standard errors come from
delete-one jackknife over the replicates rather than a Gaussian
approximation, because fourth-moment statistics of score products are
heavy-tailed. Estimators compared against each other are evaluated on
shared replicate draws so that differences carry a paired jackknife SE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families, losses
from .estimators import (
    CV_TAG,
    REINFORCE_TAG,
    VARGRAD_TAG,
    batch_sums,
    combine,
    cv_coefficient,
    draw_f,
)
from .families import DiagGaussianParams, Params, gaussian_score_kurtosis_analytic
# log_joint is no longer called here, but perfbench/checks.py reads the
# analysis.log_joint binding, so it stays importable from this module.
from .targets import GaussianTarget, Target, log_joint  # noqa: F401

CV_SAMPLED_TAG = "cv_sampled"

# At most this many latent draws (rows * S) are materialised at once in
# replicate_estimates. The size is set for speed, not memory: at 2^15 a
# chunk's z, f and score arrays (256-512 KB each at D = 1) stay in cache and
# malloc reuses them from chunk to chunk, while from 2^16 up they go back to
# the OS and are page-faulted in afresh for every chunk, which costs more
# than the arithmetic. cv_sampled draws depend on this value, because each
# chunk draws its extra blocks after its shared block; 2^15 is the smallest
# power of two that keeps the default cv-comparison and train-logreg
# replicate runs in one chunk.
_CHUNK_SAMPLE_CAP = 1 << 15


@dataclass(frozen=True)
class DeltaReport:
    """Monte Carlo correction term per coordinate, with jackknife SEs.

    cov is the sample covariance Cov(f, score_i^2), the numerator of
    delta_cv, and cov_se its delete-one jackknife SE; both are defined for
    every coordinate. delta_cv and ratio are NaN where valid is False (zero
    score variance). a_vargrad_expectation is the sample mean of f, the
    expectation of the batch-mean coefficient; ratio = delta_cv /
    a_vargrad_expectation.
    """

    delta_cv: np.ndarray
    delta_se: np.ndarray
    a_vargrad_expectation: float
    ratio: np.ndarray
    ratio_se: np.ndarray
    valid: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray


@dataclass(frozen=True)
class VarianceReport:
    """Per-coordinate spread of an estimator over R replicates of S samples.

    standard_errors are delete-one jackknife SEs of the variance entries;
    mean_standard_errors are plain SEs of the replicate means.
    """

    per_coordinate_variance: np.ndarray
    per_coordinate_mean: np.ndarray
    standard_errors: np.ndarray
    mean_standard_errors: np.ndarray


@dataclass(frozen=True)
class PairedVarianceDifference:
    """Variance difference of two estimators measured on shared draws."""

    report_a: VarianceReport
    report_b: VarianceReport
    diff: np.ndarray
    diff_se: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """Per-coordinate bound on |delta_i / E[f_bar]| from KL, kurtosis and the
    density-ratio supremum C; undefined flags the vanishing denominator
    KL = log p(x) (bound_rhs is NaN there). A KL of exactly zero with
    nonzero evidence is reported as a +inf sentinel, meaning not evaluable
    rather than infinite."""

    bound_rhs: np.ndarray
    C: float
    kurtosis: np.ndarray
    undefined: bool


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator to evaluate inside a replicate run.

    tag selects the estimator; cv needs a fixed coefficient vector a, and
    cv_sampled needs s_extra, the size of the independent batch used to
    estimate the coefficient afresh in every replicate.

    vargrad weights each score by f_s minus the mean of the other S - 1
    values of f, the leave-one-out baseline of VIMCO (Mnih & Rezende 2016)
    and of Kool, van Hoof & Welling 2019 ("Buy 4 REINFORCE Samples, Get a
    Baseline for Free!"). cv_sampled keeps the baseline independent of the
    samples it weights the same way, with a fresh batch instead of the
    other samples, and estimates the optimal coefficient from that batch.
    """

    name: str
    tag: str
    a: np.ndarray | None = None
    s_extra: int | None = None

    def __post_init__(self):
        if self.tag not in (REINFORCE_TAG, VARGRAD_TAG, CV_TAG, CV_SAMPLED_TAG):
            raise ValueError(f"unknown estimator tag {self.tag!r}")
        if self.tag == CV_TAG and self.a is None:
            raise ValueError("cv estimator needs a coefficient vector")
        if self.tag == CV_SAMPLED_TAG and (self.s_extra is None or self.s_extra < 2):
            raise ValueError("cv_sampled needs s_extra >= 2")


def _draw_block(params: Params, target: Target, rng, rows: int, S: int):
    """rows * S fresh draws as f (rows, S) and scores (rows, S, P)."""
    z, f = draw_f(params, target, rng, rows * S)
    sc = families.score(params, z)
    return f.reshape(rows, S), sc.reshape(rows, S, sc.shape[-1])


def replicate_estimates(
    params: Params,
    target: Target,
    rng: np.random.Generator,
    S: int,
    R: int,
    specs: list[EstimatorSpec],
) -> dict[str, np.ndarray]:
    """R independent gradient estimates for each spec, on shared draws.

    Returns an (R, P) array per spec name. All specs see the same R batches
    of S samples, drawn in chunks of whole replicates of at most
    _CHUNK_SAMPLE_CAP draws (at least one replicate per chunk), a size set
    for cache residency and buffer reuse. Without cv_sampled specs the
    chunks are invisible: the draws are one sequential stream. cv_sampled
    specs additionally consume an independent (rows, s_extra) block each,
    drawn after the shared block of every chunk in spec order, so the stream
    layout is deterministic but, once R * S exceeds the cap, depends on it
    for every spec of the run. Each chunk is reduced to its batch sums once,
    and every spec is a combine of those sums.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    if R < 2:
        raise ValueError("R must be >= 2")
    if any(s.tag == VARGRAD_TAG for s in specs) and S < 2:
        raise ValueError("the leave-one-out estimator needs S >= 2")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("estimator spec names must be unique")
    p = params.num_params
    out = {s.name: np.empty((R, p)) for s in specs}
    chunk_rows = max(1, _CHUNK_SAMPLE_CAP // max(S, 1))
    start = 0
    while start < R:
        rows = min(chunk_rows, R - start)
        sums = batch_sums(*_draw_block(params, target, rng, rows, S))
        for spec in specs:
            if spec.tag == CV_SAMPLED_TAG:  # fresh coefficient per replicate
                a = cv_coefficient(*_draw_block(params, target, rng, rows, spec.s_extra))
                est = combine(sums, CV_TAG, a)
            else:
                est = combine(sums, spec.tag, spec.a)
            out[spec.name][start : start + rows] = est
        start += rows
    return out


def _loo_variances(x: np.ndarray) -> np.ndarray:
    """Delete-one ddof=1 variances of the columns of x (R, P), from the
    running sums in O(R P): row i holds the variance without replicate i.
    Needs R >= 3."""
    r = x.shape[0]
    t = x.sum(axis=0)
    q = (x**2).sum(axis=0)
    return (q - x**2 - (t - x) ** 2 / (r - 1)) / (r - 2)


def _jackknife_stat_se(loo: np.ndarray) -> np.ndarray:
    r = loo.shape[0]
    with np.errstate(invalid="ignore"):  # NaN columns flow through untouched
        return np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))


def report_from_estimates(x: np.ndarray) -> VarianceReport:
    """Summarise an (R, P) array of replicate estimates (as produced by
    replicate_estimates) into a VarianceReport. The jackknife SEs of the
    variances need R >= 3 and are NaN below that."""
    return _report_and_loo(x)[0]


def _report_and_loo(x: np.ndarray) -> tuple[VarianceReport, np.ndarray | None]:
    """The report of x and the delete-one variances behind its SEs (None
    when R < 3)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an (R, P) estimate array")
    if x.shape[0] < 2:
        raise ValueError("variance needs at least 2 replicates")
    r = x.shape[0]
    var = np.var(x, axis=0, ddof=1)
    loo = _loo_variances(x) if r >= 3 else None
    report = VarianceReport(
        per_coordinate_variance=var,
        per_coordinate_mean=np.mean(x, axis=0),
        standard_errors=np.full(x.shape[1], np.nan) if loo is None else _jackknife_stat_se(loo),
        mean_standard_errors=np.sqrt(var) / np.sqrt(r),
    )
    return report, loo


def paired_difference_from_estimates(xa: np.ndarray, xb: np.ndarray) -> PairedVarianceDifference:
    """Var(a) - Var(b) from two (R, P) estimate arrays that were produced on
    the same replicate draws, with a paired delete-one jackknife SE (the
    per-replicate estimates are correlated by construction, which the
    delete-one recomputation accounts for). The delete-one variances behind
    each report's SEs also give the difference's SE."""
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    if xa.shape != xb.shape or xa.ndim != 2:
        raise ValueError("expected two (R, P) arrays of equal shape")
    report_a, loo_a = _report_and_loo(xa)
    report_b, loo_b = _report_and_loo(xb)
    if loo_a is None:
        diff_se = np.full(xa.shape[1], np.nan)
    else:
        diff_se = _jackknife_stat_se(loo_a - loo_b)
    return PairedVarianceDifference(
        report_a=report_a,
        report_b=report_b,
        diff=report_a.per_coordinate_variance - report_b.per_coordinate_variance,
        diff_se=diff_se,
    )


def delta_cv_mc(params: Params, target: Target, rng: np.random.Generator, n: int) -> DeltaReport:
    """Correction term per coordinate from n shared draws.

    delta_i is the ratio of the sample covariance Cov(f, score_i^2) to the
    sample variance Var(score_i); sharing the draws across numerator and
    denominator makes this a biased (but consistent) ratio estimate, which
    is accepted for diagnostics. SEs are delete-one jackknife on the
    covariance and ratio statistics themselves.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    z, f = draw_f(params, target, rng, n)
    sc = families.score(params, z)
    y = sc**2
    sx, sy, sxy = f.sum(), y.sum(axis=0), f @ y
    sw = sc.sum(axis=0)
    cov = (sxy - sx * sy / n) / (n - 1)
    var = (sy - sw**2 / n) / (n - 1)
    valid = var > 0.0
    delta = np.where(valid, cov / np.where(valid, var, 1.0), np.nan)
    a_exp = sx / n
    ratio = delta / a_exp if a_exp != 0.0 else np.full_like(delta, np.nan)

    # Leave-one-out recomputation from the running sums, O(n P).
    m = n - 1
    cov_t = (sxy - f[:, None] * y - (sx - f)[:, None] * (sy - y) / m) / (m - 1)
    var_t = _loo_variances(sc)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_t = cov_t / var_t
        ratio_t = delta_t / ((sx - f) / m)[:, None]
    delta_se = np.where(valid, _jackknife_stat_se(delta_t), np.nan)
    ratio_se = np.where(valid, _jackknife_stat_se(ratio_t), np.nan)
    return DeltaReport(
        delta_cv=delta,
        delta_se=delta_se,
        a_vargrad_expectation=float(a_exp),
        ratio=ratio,
        ratio_se=ratio_se,
        valid=valid,
        cov=cov,
        cov_se=_jackknife_stat_se(cov_t),
    )


def gaussian_sup_ratio(q_params: DiagGaussianParams, target: GaussianTarget) -> float:
    """Closed-form sup_z q(z)/p(z|x) for diagonal Gaussians.

    Finite exactly when q has strictly lighter tails, q_var_k < post_var_k
    for every k; the supremum then factorises over coordinates and each
    factor peaks where the quadratic exponent is stationary.
    """
    if q_params.dim != target.dim:
        raise ValueError("q and target dimensions differ")
    s2, s2t = q_params.var, target.post_var
    if not np.all(s2 < s2t):
        raise ValueError("sup q/p is infinite unless q_var < post_var in every coordinate")
    mu, mut = q_params.mean, target.post_mean
    z_star = (mu / s2 - mut / s2t) / (1.0 / s2 - 1.0 / s2t)
    log_c = (
        0.5 * np.log(s2t)
        - q_params.log_std
        - (z_star - mu) ** 2 / (2.0 * s2)
        + (z_star - mut) ** 2 / (2.0 * s2t)
    )
    return float(np.exp(np.sum(log_c)))


def delta_ratio_bound(
    q_params: DiagGaussianParams,
    target: GaussianTarget,
    C: float | None = None,
) -> BoundReport:
    """Per-coordinate upper bound 2 sqrt(C * kurt_i) / |sqrt(KL) - log p(x)/sqrt(KL)|.

    C defaults to the closed-form density-ratio supremum, which requires the
    light-tail condition; pass C explicitly otherwise (or to hold it fixed
    across settings). KL and the kurtosis vector come from closed forms.
    """
    kl = losses.kl_gaussian_closed_form(q_params, target)  # a sum of terms >= 0
    if C is None:
        C = gaussian_sup_ratio(q_params, target)
    if C <= 0.0:
        raise ValueError("C must be positive")
    kurt = gaussian_score_kurtosis_analytic(q_params)
    log_ev = target.log_evidence
    if kl == log_ev:
        bound = np.full(q_params.num_params, np.nan)
        return BoundReport(bound, float(C), kurt, undefined=True)
    if kl == 0.0:
        bound = np.full(q_params.num_params, np.inf)
        return BoundReport(bound, float(C), kurt, undefined=False)
    denom = abs(np.sqrt(kl) - log_ev / np.sqrt(kl))
    bound = 2.0 * np.sqrt(C * kurt) / denom
    return BoundReport(bound, float(C), kurt, undefined=False)

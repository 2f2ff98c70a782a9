"""Diagnostics: correction terms, ratio bounds, and variance measurement.

The leave-one-out estimator's implicit coefficient is the batch mean f_bar;
the optimal control-variate coefficient is a*_i = E[f s_i^2] / E[s_i^2] for
score s_i. Their gap delta_i = a*_i - E f = Cov(f, s_i^2) / E[s_i^2] is
bounded relative to E[f_bar] by the KL divergence, the score kurtosis and a
density-ratio supremum, and it is a scaled coordinate of the exact KL
gradient g = E[f s], whatever the target. Bernoulli logit: s^2 - E s^2 =
(1 - 2 theta) s, so delta_i = (1 - 2 theta_i) g_i / (theta_i (1 - theta_i)).
Gaussian, w = (z - mean)/sigma: s_mean^2 sigma^2 = He_2(w) + 1, and
s_logstd = He_2 has s_logstd^2 = He_4 + 4 He_2 + 2, so delta_mean_k =
g_logstd_k and delta_logstd_k = 2 g_logstd_k + E[f He_4(w_k)]/2, the last
term 0 for a Gaussian target. At every stationary point delta = 0 for
Bernoulli and Gaussian mean coordinates: there E f_bar is optimal.

Variance measurement runs R independent replicates of an estimator and
reports per-coordinate means and variances, with delete-one jackknife SEs
rather than a Gaussian approximation, because fourth-moment statistics of
score products are heavy-tailed. Estimators compared against each other
share replicate draws, so differences carry a paired jackknife SE. The
jackknife SE of a variance, or of a paired difference of two, is a closed
form in the centred squares (x_i - mean)^2: no delete-one array is formed
and no digits are lost where |mean| >> sd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families, losses
from .estimators import (
    CV_TAG,
    REINFORCE_TAG,
    VARGRAD_TAG,
    BatchSums,
    batch_sums_from_draws,
    build_batch,
    coefficient_gap,
    combine,
    cv_coefficient,
)
from .families import DiagGaussianParams, Params
# log_joint is no longer called here, but perfbench/checks.py reads the
# analysis.log_joint binding, so it stays importable from this module.
from .targets import DiscreteToyModel, GaussianTarget, Target, log_joint  # noqa: F401

CV_SAMPLED_TAG = "cv_sampled"

# At most this many latent draws (rows * S) are materialised at once in
# replicate_estimates. The size is set for speed, not memory: at 2^15 a
# chunk's z, f and score-statistic arrays (256 KB each at D = 1) stay in a
# core's L2 cache, and smaller chunks pay numpy's per-call cost on fewer
# draws. On a 2-vCPU x86 VM (2 MiB L2) under the CLI's allocator policy,
# the replicate kernel at S = 1000 took 16.5-16.9 ns per draw at 2^14 and
# 2^15, 18.0 at 2^16, 23.5 at 2^17 and 30.9 at 2^12. No draw depends on
# this value: the chunks take the stream in order and each replicate is
# reduced on its own, so any cap gives the same bytes.
_CHUNK_SAMPLE_CAP = 1 << 15

# The delete-one jackknife divides by n - 2, so every replicate count and
# sample count it summarises must be at least this; the config schema reads
# the same floor.
MIN_JACKKNIFE_N = 3


@dataclass(frozen=True)
class DeltaReport:
    """Monte Carlo correction term per coordinate, with jackknife SEs.

    delta_cv is estimators.coefficient_gap, a_hat - f_bar = sum (f - f_bar)
    score_i^2 / sum score_i^2, an estimate of the module docstring's exact
    delta (0 at every stationary point for Bernoulli and Gaussian mean
    coordinates); it and ratio = delta_cv / a_vargrad_expectation are NaN
    where valid is False, where sum score_i^2 = 0. cov is its numerator over
    n - 1, the sample covariance Cov(f, score_i^2), with cov_se its
    delete-one jackknife SE, both defined for every coordinate.
    a_vargrad_expectation is the sample mean of f, the expectation of the
    batch-mean coefficient.
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

    standard_errors are delete-one jackknife SEs of the variance entries,
    in closed form from the centred squares; mean_standard_errors are plain
    SEs of the replicate means.
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
    estimate the coefficient afresh in every replicate. Those batches are
    drawn after all of the run's shared draws (see replicate_estimates).

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


def replicate_estimates(
    params: Params,
    target: Target,
    rng: np.random.Generator,
    S: int,
    R: int,
    specs: list[EstimatorSpec],
) -> dict[str, np.ndarray]:
    """R independent gradient estimates for each spec, on shared draws.

    Returns an (R, P) array per spec name. The stream layout: first the
    R * S shared draws, replicate after replicate, which every spec sees;
    then, for each cv_sampled spec in spec order, R * s_extra draws, one
    coefficient batch per replicate. Each pass draws in chunks of whole
    replicates of at most _CHUNK_SAMPLE_CAP shared draws (at least one
    replicate per chunk), a size set for cache residency; the chunks take
    the stream in order, so no draw depends on it. Each shared chunk goes
    straight to its BatchSums through estimators.batch_sums_from_draws,
    which sums the family's score statistics and builds no score array, into
    one run-wide BatchSums; every spec is one combine of it. The cv_sampled
    coefficient batches need every draw's score and go through build_batch.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    if R < 1:
        raise ValueError("R must be >= 1")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("estimator spec names must be unique")
    p = params.num_params
    chunk_rows = max(1, _CHUNK_SAMPLE_CAP // S)
    chunks = [(lo, min(lo + chunk_rows, R)) for lo in range(0, R, chunk_rows)]
    sums = BatchSums(np.empty((R, p)), np.empty((R, 1)), np.empty((R, p)), S)
    for lo, hi in chunks:
        # the draws are bound to no name, so the last chunk's are freed
        # before the cv_sampled pass draws its own
        part = batch_sums_from_draws(
            params, target, families.draw(params, rng, (hi - lo) * S).reshape(hi - lo, S, -1)
        )
        for whole, block in zip(sums[:3], part[:3]):
            whole[lo:hi] = block
    out = {}
    for spec in specs:
        tag, a = spec.tag, spec.a
        if tag == CV_SAMPLED_TAG:  # a fresh coefficient per replicate
            tag, a = CV_TAG, np.empty((R, p))
            for lo, hi in chunks:
                rows, s = hi - lo, spec.s_extra
                f, sc = build_batch(params, target, families.draw(params, rng, rows * s))
                a[lo:hi] = cv_coefficient(f.reshape(rows, s), sc.reshape(rows, s, -1))
        out[spec.name] = combine(sums, tag, a)
    return out


def _jackknife_stat_se(loo: np.ndarray) -> np.ndarray:
    r = loo.shape[0]
    with np.errstate(invalid="ignore"):  # NaN columns flow through untouched
        return np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))


def _variance_se(g: np.ndarray) -> np.ndarray:
    """Delete-one jackknife SE of a ddof=1 variance from the centred squares
    g = (x - mean)^2 of its column: dropping replicate i moves the variance
    by -r (g_i - mean g) / ((r - 1)(r - 2)). g_a - g_b gives a paired SE."""
    r = g.shape[0]
    return r / ((r - 1) * (r - 2)) * _jackknife_stat_se(g)


def report_from_estimates(x: np.ndarray) -> VarianceReport:
    """Summarise an (R, P) array of replicate estimates (as produced by
    replicate_estimates) into a VarianceReport. The jackknife SEs of the
    variances need R >= MIN_JACKKNIFE_N."""
    return _report_and_squares(x)[0]


def _report_and_squares(x: np.ndarray) -> tuple[VarianceReport, np.ndarray]:
    """The report of x and its centred squares, np.var's (x - mean)^2."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an (R, P) estimate array")
    r = x.shape[0]
    if r < MIN_JACKKNIFE_N:
        raise ValueError(f"the jackknife needs at least {MIN_JACKKNIFE_N} replicates")
    mean = np.mean(x, axis=0)
    g = x - mean
    g *= g
    var = g.sum(axis=0) / (r - 1)
    report = VarianceReport(
        per_coordinate_variance=var,
        per_coordinate_mean=mean,
        standard_errors=_variance_se(g),
        mean_standard_errors=np.sqrt(var) / np.sqrt(r),
    )
    return report, g


def paired_difference_from_estimates(xa: np.ndarray, xb: np.ndarray) -> PairedVarianceDifference:
    """Var(a) - Var(b) from two (R, P) estimate arrays produced on the same
    replicate draws, with a paired delete-one jackknife SE from the two
    reports' centred squares (the per-replicate estimates are correlated by
    construction, which the paired jackknife accounts for)."""
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    if xa.shape != xb.shape or xa.ndim != 2:
        raise ValueError("expected two (R, P) arrays of equal shape")
    report_a, g_a = _report_and_squares(xa)
    report_b, g_b = _report_and_squares(xb)
    return PairedVarianceDifference(
        report_a=report_a,
        report_b=report_b,
        diff=report_a.per_coordinate_variance - report_b.per_coordinate_variance,
        diff_se=_variance_se(g_a - g_b),
    )


def delta_cv_mc(params: Params, target: Target, rng: np.random.Generator, n: int) -> DeltaReport:
    """Correction term per coordinate from n shared draws.

    delta_i is estimators.coefficient_gap of the batch, sum (f - f_bar)
    s_i^2 / sum s_i^2; sharing the draws between numerator and denominator
    makes it a biased (but consistent) ratio, accepted for diagnostics. SEs
    are delete-one jackknife on the covariance and ratio statistics, whose
    delete-one values are closed forms in the batch's sums.
    """
    if n < MIN_JACKKNIFE_N:
        raise ValueError(f"n must be >= {MIN_JACKKNIFE_N}")
    f, y = build_batch(params, target, families.draw(params, rng, n))
    y *= y  # the squared scores; the scores are not read again
    delta, num, den = coefficient_gap(f, y)
    valid = den > 0.0
    a_exp = float(f.mean())
    ratio = delta / a_exp if a_exp != 0.0 else np.full_like(delta, np.nan)

    # Without draw i, with c_i = (f_i - f_bar) / (n - 1), the mean of f is
    # f_bar - c_i, num is num - c_i (n y_i - den) and den is den - y_i.
    c = (f - a_exp)[:, None] / (n - 1)
    num_t = n * y
    num_t -= den
    num_t *= c
    num_t = np.subtract(num, num_t, out=num_t)
    den_t = np.subtract(den, y, out=y)
    cov_se = _jackknife_stat_se(num_t) / (n - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_t = np.divide(num_t, den_t, out=num_t)
        ratio_t = np.divide(delta_t, a_exp - c, out=den_t)
    delta_se = np.where(valid, _jackknife_stat_se(delta_t), np.nan)
    ratio_se = np.where(valid, _jackknife_stat_se(ratio_t), np.nan)
    return DeltaReport(
        delta_cv=delta,
        delta_se=delta_se,
        a_vargrad_expectation=a_exp,
        ratio=ratio,
        ratio_se=ratio_se,
        valid=valid,
        cov=num / (n - 1),
        cov_se=cov_se,
    )


def exact_kl_and_gradient(
    discrete: DiscreteToyModel, params: families.MeanFieldBernoulliParams
) -> tuple[float, np.ndarray]:
    """KL(q || posterior) and its exact logit gradient, by enumeration.

    Weighted by w = q(z) over all 2^D states, with r(z) = log q(z) -
    log p(z|x) and the scores z - theta: KL = E_q r, and the gradient is the
    score-times-integrand form d KL / d logit_k = E_q[(z_k - theta_k) r(z)],
    exact here because the expectation is a finite sum. The score-mean-zero
    identity removes the term from differentiating log q inside r.
    """
    if discrete.dim != params.dim:
        raise ValueError(f"dimension mismatch: model D={discrete.dim}, params D={params.dim}")
    states = families.support_states(discrete.dim)
    log_q = families.log_density(params, states)
    r = log_q - (discrete.log_joint_table - discrete.log_evidence)
    w = np.exp(log_q)
    return float(w @ r), (w * r) @ families.score(params, (states,), 1.0)


def gaussian_sup_ratio(q_params: DiagGaussianParams, target: GaussianTarget) -> float:
    """Closed-form sup_z q(z)/p(z|x) for diagonal Gaussians.

    Finite exactly when q has strictly lighter tails, q_var_k < post_var_k
    for every k; the log ratio is then a concave quadratic, stationary at
    z*, and the supremum is q(z*)/p(z*|x).
    """
    losses.require_same_dim(q_params, target)
    s2, s2t = q_params.var, target.post_var
    if not np.all(s2 < s2t):
        raise ValueError("sup q/p is infinite unless q_var < post_var in every coordinate")
    mu, mut = q_params.mean, target.post_mean
    z_star = (mu / s2 - mut / s2t) / (1.0 / s2 - 1.0 / s2t)
    log_p = families.gaussian_log_density(z_star, mut, s2t, with_stats=False)
    return float(np.exp(families.log_density(q_params, z_star) - log_p))


def bound_denominator(kl: float, log_evidence: float) -> float:
    """|sqrt(KL) - log p(x)/sqrt(KL)|, the denominator of the bound on
    |delta_i / E[f_bar]|; NaN unless KL > 0."""
    if not kl > 0.0:
        return math.nan
    root = math.sqrt(kl)
    return abs(root - log_evidence / root)


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
    # each score's own kurtosis, as the Cauchy-Schwarz step needs: 3 for a
    # mean score (Gaussian), 15 for a log-std one (affine in (z - mu)^2)
    kurt = np.repeat([3.0, 15.0], q_params.dim)
    log_ev = target.log_evidence
    if kl == log_ev:
        bound = np.full(q_params.num_params, np.nan)
        return BoundReport(bound, float(C), kurt, undefined=True)
    if kl == 0.0:
        bound = np.full(q_params.num_params, np.inf)
        return BoundReport(bound, float(C), kurt, undefined=False)
    bound = 2.0 * np.sqrt(C * kurt) / bound_denominator(kl, log_ev)
    return BoundReport(bound, float(C), kurt, undefined=False)

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
from .estimators import CV_TAG, REINFORCE_TAG, VARGRAD_TAG
from .families import (
    DiagGaussianParams,
    MeanFieldBernoulliParams,
    Params,
    gaussian_score_kurtosis_analytic,
    support_probs,
    support_states,
)
from .gaussian_oracles import (
    CONVENTIONS,
    MEAN_CONVENTION,
    VARIANCE_CONVENTION,
    delta_cv_analytic,
)
from .targets import DiscreteToyModel, GaussianTarget, Target, log_joint

CV_SAMPLED_TAG = "cv_sampled"

# Upper limit on latent draws materialised at once inside replicate loops;
# keeps peak memory flat for large S * R products.
_CHUNK_SAMPLE_CAP = 1 << 21


@dataclass(frozen=True)
class DeltaReport:
    """Monte Carlo correction term per coordinate, with jackknife SEs.

    delta_cv and ratio are NaN where valid is False (zero score variance).
    a_vargrad_expectation is the sample mean of f, the expectation of the
    batch-mean coefficient; ratio = delta_cv / a_vargrad_expectation.
    """

    delta_cv: np.ndarray
    delta_se: np.ndarray
    a_vargrad_expectation: float
    ratio: np.ndarray
    ratio_se: np.ndarray
    n_samples: int
    valid: np.ndarray


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
    R: int
    S: int
    estimator_tag: str


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
    kl_value: float
    log_evidence: float
    C: float
    kurtosis: np.ndarray
    undefined: bool


@dataclass(frozen=True)
class VarianceOrderingReport:
    """Correction-term condition against the measured variance ordering.

    condition_value is delta_i / ELBO from population oracles (closed form
    for Gaussian targets, enumeration for discrete ones); the sufficient
    condition for the leave-one-out estimator to win at large S is
    condition_value < 1/2. diff = Var(reinforce) - Var(vargrad), measured.
    """

    condition_value: np.ndarray
    condition_met: np.ndarray
    var_reinforce: np.ndarray
    var_vargrad: np.ndarray
    diff: np.ndarray
    diff_se: np.ndarray
    S: int
    R: int


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator to evaluate inside a replicate run.

    tag selects the estimator; cv needs a fixed coefficient vector a, and
    cv_sampled needs s_extra, the size of the independent batch used to
    estimate the coefficient afresh in every replicate.
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


def _f_and_scores(params: Params, target: Target, rng, n: int, shape: tuple):
    """Draw n latents and return f and scores reshaped to shape + trailing axes."""
    z = families.draw(params, rng, n)
    f = np.asarray(families.log_density(params, z) - log_joint(target, z), float)
    sc = families.score(params, z)
    d = z.shape[-1]
    return f.reshape(shape), sc.reshape(shape + (sc.shape[-1],)), d


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
    of S samples; cv_sampled specs additionally consume an independent
    (R, s_extra) block each, drawn after the shared block of every chunk in
    spec order, so the stream layout is deterministic.
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
        f, sc, _ = _f_and_scores(params, target, rng, rows * S, (rows, S))
        fdotsc = np.einsum("rs,rsp->rp", f, sc)
        mean_sc = sc.mean(axis=1)
        for spec in specs:
            if spec.tag == REINFORCE_TAG:
                est = fdotsc / S
            elif spec.tag == VARGRAD_TAG:
                est = (fdotsc - f.mean(axis=1)[:, None] * sc.sum(axis=1)) / (S - 1)
            elif spec.tag == CV_TAG:
                est = fdotsc / S - spec.a * mean_sc
            else:  # cv_sampled: fresh coefficient per replicate
                fe, se, _ = _f_and_scores(params, target, rng, rows * spec.s_extra, (rows, spec.s_extra))
                fse = fe[..., None] * se
                se_c = se - se.mean(axis=1, keepdims=True)
                num = np.sum((fse - fse.mean(axis=1, keepdims=True)) * se_c, axis=1)
                den = np.sum(se_c**2, axis=1)
                a_r = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.nan)
                est = fdotsc / S - a_r * mean_sc
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


def report_from_estimates(x: np.ndarray, S: int, tag: str) -> VarianceReport:
    """Summarise an (R, P) array of replicate estimates (as produced by
    replicate_estimates) into a VarianceReport. The jackknife SEs of the
    variances need R >= 3 and are NaN below that."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an (R, P) estimate array")
    if x.shape[0] < 2:
        raise ValueError("variance needs at least 2 replicates")
    r = x.shape[0]
    var = np.var(x, axis=0, ddof=1)
    var_se = _jackknife_stat_se(_loo_variances(x)) if r >= 3 else np.full(x.shape[1], np.nan)
    return VarianceReport(
        per_coordinate_variance=var,
        per_coordinate_mean=np.mean(x, axis=0),
        standard_errors=var_se,
        mean_standard_errors=np.sqrt(var) / np.sqrt(r),
        R=r,
        S=S,
        estimator_tag=tag,
    )


def estimator_variance(
    estimator_tag: str,
    params: Params,
    target: Target,
    rng: np.random.Generator,
    S: int,
    R: int,
    a: np.ndarray | None = None,
    s_extra: int | None = None,
) -> VarianceReport:
    """Per-coordinate variance and mean of an estimator over R replicates."""
    spec = EstimatorSpec(name=estimator_tag, tag=estimator_tag, a=a, s_extra=s_extra)
    x = replicate_estimates(params, target, rng, S, R, [spec])[estimator_tag]
    return report_from_estimates(x, S, estimator_tag)


def paired_variance_difference(
    params: Params,
    target: Target,
    rng: np.random.Generator,
    S: int,
    R: int,
    spec_a: EstimatorSpec,
    spec_b: EstimatorSpec,
) -> PairedVarianceDifference:
    """Var(a) - Var(b) on shared replicate draws, with a paired jackknife SE
    of the difference (the per-replicate estimates are correlated by
    construction, which the delete-one recomputation accounts for)."""
    ests = replicate_estimates(params, target, rng, S, R, [spec_a, spec_b])
    return paired_difference_from_estimates(
        ests[spec_a.name], ests[spec_b.name], S, spec_a.tag, spec_b.tag
    )


def paired_difference_from_estimates(
    xa: np.ndarray, xb: np.ndarray, S: int, tag_a: str, tag_b: str
) -> PairedVarianceDifference:
    """Var(a) - Var(b) from two (R, P) estimate arrays that were produced on
    the same replicate draws, with a paired delete-one jackknife SE."""
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    if xa.shape != xb.shape or xa.ndim != 2:
        raise ValueError("expected two (R, P) arrays of equal shape")
    report_a = report_from_estimates(xa, S, tag_a)
    report_b = report_from_estimates(xb, S, tag_b)
    if xa.shape[0] < 3:
        diff_se = np.full(xa.shape[1], np.nan)
    else:
        diff_se = _jackknife_stat_se(_loo_variances(xa) - _loo_variances(xb))
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
    is accepted for diagnostics. SEs are delete-one jackknife on the ratio
    statistics themselves.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    f, sc, _ = _f_and_scores(params, target, rng, n, (n,))
    y = sc**2
    sx, sy, sxy = f.sum(), y.sum(axis=0), f @ y
    sw, sww = sc.sum(axis=0), (sc**2).sum(axis=0)
    cov = (sxy - sx * sy / n) / (n - 1)
    var = (sww - sw**2 / n) / (n - 1)
    valid = var > 0.0
    delta = np.where(valid, cov / np.where(valid, var, 1.0), np.nan)
    a_exp = sx / n
    ratio = delta / a_exp if a_exp != 0.0 else np.full_like(delta, np.nan)

    # Leave-one-out recomputation from the running sums, O(n P).
    m = n - 1
    cov_t = (sxy - f[:, None] * y - (sx - f)[:, None] * (sy - y) / m) / (m - 1)
    var_t = (sww - sc**2 - (sw - sc) ** 2 / m) / (m - 1)
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
        n_samples=n,
        valid=valid,
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
    kl = losses.kl_gaussian_closed_form(q_params, target)
    kl = max(kl, 0.0)  # guard fp dust near q == posterior
    if C is None:
        C = gaussian_sup_ratio(q_params, target)
    if C <= 0.0:
        raise ValueError("C must be positive")
    kurt = gaussian_score_kurtosis_analytic(q_params)
    log_ev = target.log_evidence
    if kl == log_ev:
        bound = np.full(q_params.num_params, np.nan)
        return BoundReport(bound, kl, log_ev, float(C), kurt, undefined=True)
    if kl == 0.0:
        bound = np.full(q_params.num_params, np.inf)
        return BoundReport(bound, kl, log_ev, float(C), kurt, undefined=False)
    denom = abs(np.sqrt(kl) - log_ev / np.sqrt(kl))
    bound = 2.0 * np.sqrt(C * kurt) / denom
    return BoundReport(bound, kl, log_ev, float(C), kurt, undefined=False)


def _delta_and_elbo_enumerated(
    params: MeanFieldBernoulliParams, target: DiscreteToyModel
) -> tuple[np.ndarray, float]:
    """Exact correction term and ELBO for a discrete model, by enumeration."""
    states = support_states(target.dim)
    q = support_probs(params)
    f = np.asarray(families.log_density(params, states), float) - target.log_joint_table
    sc = states - params.probs
    e_f = float(q @ f)
    e_s2 = q @ sc**2
    cov = (q * f) @ sc**2 - e_f * e_s2  # E[s] = 0 exactly, so Var = E[s^2]
    return cov / e_s2, -e_f


def variance_ordering_check(
    params: Params,
    target: Target,
    rng: np.random.Generator,
    S: int,
    R: int,
) -> VarianceOrderingReport:
    """Evaluate the large-S sufficient condition delta_i/ELBO < 1/2 from
    population oracles and measure the actual variance ordering at this S."""
    if isinstance(target, GaussianTarget) and isinstance(params, DiagGaussianParams):
        delta = delta_cv_analytic(params, target)
        elbo = target.log_evidence - losses.kl_gaussian_closed_form(params, target)
    elif isinstance(target, DiscreteToyModel) and isinstance(params, MeanFieldBernoulliParams):
        delta, elbo = _delta_and_elbo_enumerated(params, target)
    else:
        raise ValueError("population condition needs a Gaussian or discrete target")
    # delta = 0 satisfies the condition trivially (no correction at all), even
    # at ELBO = 0 where the ratio itself is 0/0.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = delta / elbo if elbo != 0.0 else np.full_like(delta, np.nan)
    condition_value = np.where(delta == 0.0, 0.0, ratio)
    pair = paired_variance_difference(
        params,
        target,
        rng,
        S,
        R,
        EstimatorSpec(name="reinforce", tag=REINFORCE_TAG),
        EstimatorSpec(name="vargrad", tag=VARGRAD_TAG),
    )
    return VarianceOrderingReport(
        condition_value=condition_value,
        condition_met=condition_value < 0.5,
        var_reinforce=pair.report_a.per_coordinate_variance,
        var_vargrad=pair.report_b.per_coordinate_variance,
        diff=pair.diff,
        diff_se=pair.diff_se,
        S=S,
        R=R,
    )


def cov_f_score2_mc(
    q_params: DiagGaussianParams,
    target: Target,
    rng: np.random.Generator,
    n: int,
    k: int,
    convention: str,
) -> tuple[float, float]:
    """Monte Carlo Cov(f, score_k^2) for one latent coordinate, where the
    score is taken with respect to the mean, the variance, or the log
    variance of that coordinate. Returns (estimate, delta-method SE); the SE
    is the spread of the centred cross products over draws, which is what
    the sample covariance averages.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= k < q_params.dim:
        raise ValueError(f"coordinate {k} out of range for dim {q_params.dim}")
    z = families.draw(q_params, rng, n)
    f = np.asarray(families.log_density(q_params, z) - log_joint(target, z), float)
    u = z[:, k] - q_params.mean[k]
    s2 = q_params.var[k]
    base = u**2 / s2 - 1.0
    if convention == MEAN_CONVENTION:
        s = u / s2
    elif convention == VARIANCE_CONVENTION:
        s = base / (2.0 * s2)
    else:
        s = base / 2.0
    y = s**2
    prod = (f - f.mean()) * (y - y.mean())
    cov = float(prod.sum() / (n - 1))
    se = float(np.std(prod, ddof=1) / np.sqrt(n))
    return cov, se


def kurtosis_mc(params: Params, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-coordinate score kurtosis E[s^4]/E[s^2]^2 from n draws; raw moments
    are the definition here (the population score mean is zero). Coordinates
    with zero second moment come back NaN."""
    if n < 4:
        raise ValueError("n must be >= 4")
    z = families.draw(params, rng, n)
    sc = families.score(params, z)
    m2 = np.mean(sc**2, axis=0)
    m4 = np.mean(sc**4, axis=0)
    ok = m2 > 0.0
    return np.where(ok, m4 / np.where(ok, m2, 1.0) ** 2, np.nan)

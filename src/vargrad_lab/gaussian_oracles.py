"""Closed-form ground truth for diagonal-Gaussian settings.

Everything in this module is pen-and-paper algebra for the case where both
q and the posterior are diagonal Gaussians; the functions exist to be
compared against the Monte Carlo machinery, not to replace it. The
mean-gradient variance difference between the plain score-function estimator
and the leave-one-out estimator has an exact one-dimensional expression, the
covariance Cov(f, score^2) has per-coordinate closed forms, and composing
them with the closed-form KL gives the analytically optimal control-variate
coefficient.

Coordinate conventions. The library parameterises Gaussians by (mean,
log-std), while the variance analysis is naturally stated per coordinate in
one of three conventions: the mean, the variance sigma^2, or log sigma^2.
Scores in these conventions are rescaled library scores
(d/d sigma^2 = sigma^-2 d/d log sigma^2, and the log-std score is twice the
log-variance score), so a squared score is a library coordinate's squared
score times a squared chain factor: 1 for the mean, 1/4 for log sigma^2 and
1/(4 sigma^4) for sigma^2. convention_coordinate is that one mapping; the
closed-form Cov(f, score^2) and the Monte Carlo one of gaussian-oracles
both go through it.

Two standard Gaussian facts used below, derived from the central moments
E[u^2] = sigma^2, E[u^4] = 3 sigma^4, E[u^6] = 15 sigma^6 of u = z - mean:
Var(d log q / d mean) = 1/sigma^2 and Var(d log q / d log sigma^2) = 1/2
(hence 2 for the log-std coordinate). Both are Monte Carlo checked in tests
rather than trusted.
"""

from __future__ import annotations

import numpy as np

from .families import DiagGaussianParams
from .losses import kl_gaussian_closed_form
from .targets import GaussianTarget

MEAN_CONVENTION = "mean"
VARIANCE_CONVENTION = "variance"
LOG_VARIANCE_CONVENTION = "log_variance"
CONVENTIONS = (MEAN_CONVENTION, VARIANCE_CONVENTION, LOG_VARIANCE_CONVENTION)


def delta_var_analytic(q_params: DiagGaussianParams, target: GaussianTarget, S: int) -> float:
    """Var(Reinforce_mu) - Var(VarGrad_mu) for a 1-D pair, q = N(mu, sigma2)
    against the posterior N(mu_tilde, sigma2_tilde), with S samples per
    estimate.

    For u = z - mu the integrand decomposes as f = c0 + c1 u + c2 u^2 with
    c1 = dmu / sigma2_tilde and c2 = (1/sigma2_tilde - 1/sigma2) / 2, and
    E[f] = KL - log p(x). Expanding both estimators' second moments over S
    iid draws gives

        E[f] (E[f] + 4 c2 sigma^2) / (S sigma^2)
            - 2 (c1^2 + c2^2 sigma^2) / (S (S - 1)).

    Positive values mean the leave-one-out estimator wins. The expression
    is exact for every S >= 2; the first term carries E[f]^2, so additive
    normalisation of f matters (only the plain estimator is sensitive to
    it), including the log evidence and the log sigma2_tilde/sigma2
    constant inside the KL. At mu=1, mu_tilde=2, sigma2 = sigma2_tilde = 1
    and log p(x) = 0 it reduces to (1 - 8/(S-1)) / (4S), which crosses zero
    exactly at S = 9.
    """
    if q_params.dim != 1 or target.dim != 1:
        raise ValueError("delta_var_analytic needs a 1-D q and target")
    if S < 2:
        raise ValueError("S must be >= 2")
    s = float(S)
    s2, s2t = float(q_params.var[0]), float(target.post_var[0])
    c1 = float(q_params.mean[0] - target.post_mean[0]) / s2t
    c2 = 0.5 * (1.0 / s2t - 1.0 / s2)
    ef = kl_gaussian_closed_form(q_params, target) - target.log_evidence
    return ef * (ef + 4.0 * c2 * s2) / (s * s2) - 2.0 * (c1**2 + c2**2 * s2) / (s * (s - 1.0))


def delta_var_large_s(dmu: float, dsigma2: float) -> float:
    """Polynomial surrogate for the large-S variance-difference numerator:
    dmu^4 + 6 dmu^2 dsigma2 + 5 dsigma2^2. As a function of dsigma2 it is
    negative exactly on (-dmu^2, -dmu^2/5), marking a region where the
    plain estimator wins. It agrees with the sign of delta_var_analytic
    exactly when sigma2 == sigma2_tilde (where it reduces to dmu^4) and
    approximately near that diagonal; far from it the exact expression's
    log and KL^2 terms shift the region boundaries.
    """
    return dmu**4 + 6.0 * dmu**2 * dsigma2 + 5.0 * dsigma2**2


def _check_pair(q_params: DiagGaussianParams, target: GaussianTarget) -> None:
    if q_params.dim != target.dim:
        raise ValueError("q and target dimensions differ")


def convention_coordinate(
    q_params: DiagGaussianParams, k: int, convention: str
) -> tuple[int, float]:
    """Where the score of latent coordinate k in a convention sits among the
    library scores, and the squared chain factor that takes a squared
    library score to it: (k, 1) for the mean, and the log-std coordinate
    D + k with 1/4 for log sigma^2 (half the log-std score) or
    1/(4 sigma_k^4) for sigma^2 (sigma_k^-2 times that)."""
    if not 0 <= k < q_params.dim:
        raise ValueError(f"coordinate {k} out of range for D={q_params.dim}")
    if convention == MEAN_CONVENTION:
        return k, 1.0
    if convention == LOG_VARIANCE_CONVENTION:
        return q_params.dim + k, 0.25
    if convention == VARIANCE_CONVENTION:
        # a power, unlike a quotient, raises OverflowError instead of giving inf
        return q_params.dim + k, 0.25 * float(q_params.var[k]) ** -2.0
    raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")


def cov_f_score2_analytic(
    q_params: DiagGaussianParams,
    target: GaussianTarget,
    k: int,
    convention: str = MEAN_CONVENTION,
) -> float:
    """Closed-form Cov_q(f, score_k^2) for coordinate k of a diagonal pair:
    the squared chain factor of the convention times delta_cv_analytic and
    score_variance_analytic at its library coordinate (Cov = delta Var).

    mean convention:         1/sigma_tilde_k^2 - 1/sigma_k^2
    sigma^2 convention:      (1/sigma_k^2) (1/sigma_tilde_k^2 - 1/sigma_k^2)
    log sigma^2 convention:  sigma_k^2 (1/sigma_tilde_k^2 - 1/sigma_k^2)

    Only coordinate k of f contributes since the coordinates are
    independent, and the evidence constant drops out of every covariance.
    """
    _check_pair(q_params, target)
    i, factor = convention_coordinate(q_params, k, convention)
    cov = delta_cv_analytic(q_params, target)[i] * score_variance_analytic(q_params)[i]
    return factor * float(cov)


def score_variance_analytic(q_params: DiagGaussianParams) -> np.ndarray:
    """Var of each library score coordinate, length 2D: 1/sigma_k^2 for the
    means, 2 for the log-stds (twice the log-variance score, which has
    variance 1/2)."""
    return np.concatenate([1.0 / q_params.var, np.full(q_params.dim, 2.0)])


def delta_cv_analytic(q_params: DiagGaussianParams, target: GaussianTarget) -> np.ndarray:
    """Population correction term Cov(f, score_i^2)/Var(score_i) per library
    coordinate (mean block then log-std block), length 2D.

    The ratio is invariant under rescaling a coordinate, so the log-std
    entries coincide with the log-variance convention:
        mean_k:    sigma_k^2 / sigma_tilde_k^2 - 1
        log_std_k: 2 (sigma_k^2 / sigma_tilde_k^2 - 1)
    """
    _check_pair(q_params, target)
    base = q_params.var / target.post_var - 1.0
    return np.concatenate([base, 2.0 * base])


def optimal_a_analytic(q_params: DiagGaussianParams, target: GaussianTarget) -> np.ndarray:
    """Analytic optimal control-variate coefficient per library coordinate.

    a*_i = (KL - log p(x)) + Cov(f, score_i^2)/Var(score_i); the first term
    is the expectation of the batch-mean coefficient and the second is the
    correction term. Returns length 2D, ordered (means, log-stds).
    """
    _check_pair(q_params, target)
    expected_coeff = kl_gaussian_closed_form(q_params, target) - target.log_evidence
    return expected_coeff + delta_cv_analytic(q_params, target)
